import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hssfl import cli
from hssfl.cli import main
from hssfl.numkit import load_arrays, save_arrays


def run_cli(*args):
    return main(list(args))


def read_lines(*path):
    return Path(*path).read_text(encoding="utf-8").splitlines()


def read_json(*path):
    return json.loads(Path(*path).read_text(encoding="utf-8"))


def rewrite_npz(path, change):
    """Apply ``change(meta, arrays)`` to the index and tensors of an array
    file in place."""
    meta, arrays = load_arrays(path)
    arrays = dict(arrays)
    change(meta, arrays)
    save_arrays(path, arrays, meta)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture()
def data_csv(tmp_path):
    path = str(tmp_path / "mix.csv")
    assert run_cli("gen-data", "--classes", "4", "--dim", "8", "--per-class", "40",
                   "--seed", "3", "--out", path) == 0
    return path


class TestGenData:
    def test_default_shape(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert run_cli("gen-data", "--per-class", "5", "--seed", "1", "--out", out) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert len(lines) == 50
        assert len(lines[0].split(",")) == 33  # 32 features + label
        assert os.path.exists(out + ".manifest.json")

    def test_seed_repeatable_byte_equal(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli("gen-data", "--per-class", "5", "--seed", "9", "--out", a)
        run_cli("gen-data", "--per-class", "5", "--seed", "9", "--out", b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_indivisible_noniid_rejected(self, tmp_path):
        out = str(tmp_path / "d.csv")
        rc = run_cli("gen-data", "--classes", "7", "--clients", "5",
                     "--per-class", "5", "--out", out)
        assert rc == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        monkeypatch.setenv("HSSFL_SEED", "77")
        run_cli("gen-data", "--per-class", "5", "--out", a)
        run_cli("gen-data", "--per-class", "5", "--seed", "77", "--out", b)
        assert Path(a).read_bytes() == Path(b).read_bytes()


def run_args(data, out, *extra):
    return ("run", "--data", data, "--out", out,
            "--arch", "8,6", "--clients", "2", "--rounds", "2", "--epochs", "1",
            "--rad-size", "10", "--partition", "iid", "--batch-size", "32",
            "--seed", "5") + extra


class TestRun:
    def test_outputs_exist(self, tmp_path, data_csv):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        for name in ("manifest.json", "config.resolved.json", "log.jsonl",
                     "run_summary.json"):
            assert os.path.exists(os.path.join(out, name)), name
        assert os.path.isdir(os.path.join(out, "models", "client_0"))
        assert os.path.isdir(os.path.join(out, "checkpoints"))

    def test_mu_flag_switches_proximal_branch(self, tmp_path, data_csv):
        out0 = str(tmp_path / "mu0")
        out5 = str(tmp_path / "mu5")
        run_cli(*run_args(data_csv, out0, "--mu", "0"))
        run_cli(*run_args(data_csv, out5, "--mu", "0.5"))
        rec0 = [json.loads(l) for l in read_lines(out0, "log.jsonl") if '"client"' in l][0]
        rec5 = [json.loads(l) for l in read_lines(out5, "log.jsonl") if '"client"' in l][0]
        assert rec0["loss_prox_start"] == 0.0
        assert rec5["loss_prox_start"] > 0.0

    def test_paper_defaults_echoed_in_manifest(self, tmp_path, data_csv):
        out = str(tmp_path / "pd")
        # rounds overridden so the run stays desk-sized; manifest keeps the rest
        assert run_cli("run", "--data", data_csv, "--out", out,
                       "--arch", "8,6", "--clients", "2", "--partition", "iid",
                       "--paper-defaults", "--rounds", "1", "--rad-size", "10",
                       "--seed", "1") == 0
        cfg = read_json(out, "manifest.json")["config"]
        assert cfg["local_epochs"] == 5
        assert cfg["momentum"] == 0.9
        assert cfg["eta"] == 0.032
        assert cfg["batch_size"] == 200
        assert cfg["mu"] == 0.5

    def test_paper_defaults_full_scale_echo(self, tmp_path, data_csv):
        # with nothing overridden the config holds the full-scale values; the
        # toy dataset is too small for them, so the run is refused before it
        # writes a manifest
        out = str(tmp_path / "pd_full")
        flags = ["run", "--data", data_csv, "--out", out, "--arch", "8,6", "--clients", "2",
                 "--partition", "iid", "--paper-defaults", "--seed", "1"]
        assert run_cli(*flags) == 2
        assert not os.path.exists(os.path.join(out, "manifest.json"))
        cfg = cli._resolve_config(cli.build_parser().parse_args(flags))
        assert (cfg.rounds, cfg.batch_size, cfg.rad_size, cfg.eta) == (200, 200, 5000, 0.032)

    def test_stop_and_resume_matches_uninterrupted(self, tmp_path, data_csv):
        full = str(tmp_path / "full")
        part = str(tmp_path / "part")
        calm = ("--rounds", "3", "--lr", "0.005", "--momentum", "0.0")
        args_full = run_args(data_csv, full, *calm)
        args_part = run_args(data_csv, part, *calm)
        assert run_cli(*args_full) == 0
        assert run_cli(*args_part, "--stop-after", "1") == 0
        assert run_cli(*args_part, "--resume") == 0
        assert (Path(full, "log.jsonl").read_bytes()
                == Path(part, "log.jsonl").read_bytes())

    def test_checkpoint_and_models_byte_identical(self, tmp_path, data_csv):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(*run_args(data_csv, a)) == 0
        assert run_cli(*run_args(data_csv, b)) == 0
        assert os.listdir(os.path.join(a, "checkpoints")) == ["checkpoint.npz"]
        for sub in ("checkpoints", "models"):
            files = tree_bytes(os.path.join(a, sub))
            assert files and files == tree_bytes(os.path.join(b, sub))

    def test_config_file_with_flag_override(self, tmp_path, data_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "num_clients": 2,
            "rounds": 1,
            "local_epochs": 1,
            "eta": 0.01,
            "momentum": 0.0,
            "batch_size": 16,
            "mu": 0.0,
            "proximal_form": "one_minus_cka",
            "tau": 0.9,
            "normalize_loss": False,
            "rad_size": 10,
            "seed": 4,
            "partition": "iid",
            "client_specs": [{"layer_widths": [8, 6], "activation": "relu"}] * 2,
        }))
        out = str(tmp_path / "run")
        assert run_cli("run", "--data", data_csv, "--out", out,
                       "--config", str(cfg_path), "--lr", "0.005") == 0
        resolved = read_json(out, "config.resolved.json")
        assert resolved["eta"] == 0.005  # flag wins over file
        assert resolved["tau"] == 0.9    # file wins over default
        assert resolved["normalize_loss"] is False


@pytest.fixture(scope="module")
def readme_csv(tmp_path_factory):
    """The README's dataset: 10 classes of 200 rows in 32 dimensions."""
    path = str(tmp_path_factory.mktemp("readme") / "mix.csv")
    assert run_cli("gen-data", "--classes", "10", "--dim", "32", "--per-class", "200",
                   "--seed", "0", "--out", path) == 0
    return path


class TestShippedDefaults:
    """Runs that set no learning rate, momentum, mu, tau or loss flag train
    on the shipped desk defaults, which normalize the regression loss."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_desk_shape_trains(self, tmp_path, readme_csv, activation):
        out = tmp_path / "run"
        assert run_cli("run", "--data", readme_csv, "--out", str(out),
                       "--arch", f"32,16,8:{activation}", "--arch", f"32,24,16:{activation}",
                       "--clients", "5", "--rounds", "3", "--epochs", "1",
                       "--rad-size", "64", "--seed", "1") == 0
        assert read_json(out, "config.resolved.json")["normalize_loss"] is True
        assert read_json(out, "run_summary.json")["rounds_completed"] == 3

    def test_small_shape_trains(self, tmp_path, data_csv):
        out = tmp_path / "run"
        assert run_cli(*run_args(data_csv, str(out), "--rounds", "3")) == 0
        assert read_json(out, "run_summary.json")["rounds_completed"] == 3


# the README run, shortened to 8 rounds of 2 epochs
KILLED_RUN = ("--arch", "32,16,8", "--arch", "32,24,16", "--clients", "5",
              "--partition", "noniid", "--rounds", "8", "--epochs", "2", "--lr", "0.1",
              "--tau", "0.9", "--mu", "0.5", "--aug-noise", "0.3", "--aug-mask", "0.1",
              "--normalize-loss", "--seed", "0")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_process(*args) -> subprocess.Popen:
    """``python -m hssfl.cli`` on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, "-m", "hssfl.cli", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def line_count(path: Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def children(pid: int) -> set:
    return {int(c) for task in Path(f"/proc/{pid}/task").iterdir()
            for c in (task / "children").read_text().split()}


def ended(pid: int) -> bool:
    """Whether the process is gone or a zombie that waits to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


class TestKilledRun:
    """A run killed with SIGKILL at any point resumes with --resume to the
    log and weights of the uninterrupted run, and its view producer, or the
    round's client workers, end with it."""

    def test_sigkill_then_resume_is_the_uninterrupted_run(self, tmp_path, readme_csv):
        full = tmp_path / "full"
        assert run_cli("run", "--data", readme_csv, "--out", str(full), *KILLED_RUN) == 0
        # the kill comes when the file holds that many lines: when the
        # manifest appears, before any checkpoint, then after rounds 2 and 5;
        # on two workers, after round 2 once a round's child trains
        for trial, (name, lines, workers) in enumerate((
                ("manifest.json", 0, ()), ("log.jsonl", 1 + 2 * 6, ()),
                ("log.jsonl", 1 + 5 * 6, ()), ("log.jsonl", 1 + 2 * 6, ("--workers", "2")))):
            out = tmp_path / f"killed{trial}"
            args = ("run", "--data", readme_csv, "--out", str(out), *KILLED_RUN, *workers)
            proc = cli_process(*args)
            deadline = time.monotonic() + 60.0
            try:
                while (not (out / name).exists() or line_count(out / name) < lines
                       or workers and not children(proc.pid)):
                    assert proc.poll() is None, proc.stderr.read().decode()
                    assert time.monotonic() < deadline, "the run stalled"
                    time.sleep(0.001)
                forked = children(proc.pid)
                proc.kill()
            finally:
                proc.kill()
                proc.wait()
                proc.stderr.close()
            if lines:
                # the view producer, or the one child of a round on two workers
                assert len(forked) == 1
            else:
                assert not (out / "checkpoints" / "checkpoint.npz").exists()
            deadline = time.monotonic() + 1.0
            while not all(ended(pid) for pid in forked):
                assert time.monotonic() < deadline, f"child {forked} outlived its run"
                time.sleep(0.01)

            resumed = cli_process(*args, "--resume")
            _, err = resumed.communicate(timeout=60)
            assert resumed.returncode == 0, err.decode()
            assert (out / "log.jsonl").read_bytes() == (full / "log.jsonl").read_bytes()
            for k in range(5):
                model = Path("models", f"client_{k}", "model.npz")
                assert (out / model).read_bytes() == (full / model).read_bytes()


    def test_resume_restarts_a_run_that_made_no_checkpoint(self, tmp_path, data_csv, capsys):
        full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
        assert run_cli(*run_args(data_csv, full)) == 0
        assert run_cli(*run_args(data_csv, cut)) == 0
        os.remove(os.path.join(cut, "checkpoints", "checkpoint.npz"))
        # another config's manifest is no run of this one
        assert run_cli(*run_args(data_csv, cut, "--resume", "--seed", "6")) == 2
        assert "checkpoint.npz" in capsys.readouterr().err
        assert run_cli(*run_args(data_csv, cut, "--resume")) == 0
        assert tree_bytes(cut).keys() == tree_bytes(full).keys()
        for name in ("log.jsonl", "config.resolved.json", "checkpoints/checkpoint.npz",
                     "models/client_0/model.npz", "models/client_1/model.npz"):
            assert Path(cut, name).read_bytes() == Path(full, name).read_bytes(), name


class TestEvalAndTheory:
    def test_eval_writes_reports(self, tmp_path, data_csv):
        out = str(tmp_path / "run")
        run_cli(*run_args(data_csv, out))
        assert run_cli("eval", "--run-dir", out, "--data", data_csv,
                       "--probe-epochs", "3") == 0
        rows = read_lines(out, "eval.csv")
        assert rows[0].strip() == "client,architecture,accuracy"
        assert len(rows) == 3
        jl = [json.loads(l) for l in read_lines(out, "eval.jsonl")]
        assert {r["client"] for r in jl} == {0, 1}

    def test_check_theory_requires_probes(self, tmp_path, data_csv):
        out = str(tmp_path / "run")
        run_cli(*run_args(data_csv, out))
        assert run_cli("check-theory", "--run-dir", out) == 2

    def test_check_theory_emits_reports(self, tmp_path, data_csv):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(
            data_csv, out, "--theory-probes", "--form", "trace_alignment",
            "--clip-radius", "1.0", "--mu", "0.1", "--lr", "0.002",
            "--momentum", "0.0", "--tau", "1.0", "--batch-size", "4096",
        )) == 0
        assert run_cli("check-theory", "--run-dir", out) == 0
        lines = [json.loads(l) for l in read_lines(out, "bounds.jsonl")]
        assert "estimates" in lines[0]
        kinds = {l["which"] for l in lines[1:]}
        assert kinds == {"lemma1", "lemma2", "theorem"}


class TestBadInput:
    """Input the program cannot use exits 2 with a message, not a traceback."""

    def test_resume_without_checkpoint(self, tmp_path, data_csv, capsys):
        assert run_cli(*run_args(data_csv, str(tmp_path / "run")), "--resume") == 2
        assert "checkpoint.npz" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key(self, tmp_path, data_csv, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"num_client": 2}))
        rc = run_cli("run", "--data", data_csv, "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path), "--arch", "8,6", "--rad-size", "10")
        assert rc == 2
        assert "num_client" in capsys.readouterr().err

    def test_unbounded_trace_alignment(self, tmp_path, data_csv, capsys):
        out = tmp_path / "run"
        assert run_cli(*run_args(data_csv, str(out), "--form", "trace_alignment")) == 2
        assert "--clip-radius" in capsys.readouterr().err
        assert not (out / "log.jsonl").exists()

    def test_l2rep_mixed_widths(self, tmp_path, readme_csv, capsys):
        # refused by the config, before a client trains or the log is opened
        out = tmp_path / "run"
        assert run_cli("run", "--data", readme_csv, "--out", str(out), "--form", "l2_rep",
                       "--arch", "32,16,8", "--arch", "32,24,16") == 2
        assert "l2_rep needs one representation width" in capsys.readouterr().err
        assert not (out / "log.jsonl").exists()

    def test_missing_config_file(self, tmp_path, data_csv, capsys):
        missing = str(tmp_path / "missing.json")
        rc = run_cli(*run_args(data_csv, str(tmp_path / "run")), "--config", missing)
        assert rc == 2
        assert missing in capsys.readouterr().err

    def test_config_file_not_json(self, tmp_path, data_csv, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{bad")
        rc = run_cli(*run_args(data_csv, str(tmp_path / "run")), "--config", str(cfg_path))
        assert rc == 2
        assert str(cfg_path) in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("check-theory", "config.resolved.json"),
        ("check-theory", "log.jsonl"),
        ("eval", "config.resolved.json"),
    ])
    def test_run_dir_without_file(self, tmp_path, data_csv, capsys, command, name):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        os.remove(os.path.join(out, name))
        extra = ("--data", data_csv) if command == "eval" else ()
        assert run_cli(command, "--run-dir", out, *extra) == 2
        assert os.path.join(out, name) in capsys.readouterr().err

    def test_eval_without_model_file(self, tmp_path, data_csv, capsys):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        os.remove(os.path.join(out, "models", "client_1", "model.npz"))
        assert run_cli("eval", "--run-dir", out, "--data", data_csv) == 2
        assert os.path.join("client_1", "model.npz") in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        (lambda m, a: a.pop("online3"), "missing entries ['online3']"),
        (lambda m, a: a.update(online0=a["online0"][:4]), "entry 'online0' has shape (4, 6)"),
        (lambda m, a: a.update(momentum0=a["velocity0"]), "unexpected entries ['momentum0']"),
        (lambda m, a: m.update(spec=None), "manifest lacks a valid spec"),
    ], ids=["missing", "truncated", "unexpected", "manifest"])
    def test_eval_model_file_with_bad_entry(self, tmp_path, data_csv, capsys, change, named):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        path = os.path.join(out, "models", "client_1", "model.npz")
        rewrite_npz(path, change)
        assert run_cli("eval", "--run-dir", out, "--data", data_csv) == 2
        assert f"{path}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        (lambda m, a: a.pop("upload_1"), "entry 'upload_1' is missing"),
        (lambda m, a: a.update(upload_0=a["upload_0"][:5]),
         "entry 'upload_0' is missing or does not have 10 rows"),
        (lambda m, a: a.update(upload_0=np.ones((10, 11))),
         "entry 'upload_0' has 11 columns, not the 6 of client 0's upload"),
        # a client puts its upload back into the reference at an offset
        # that the configured widths fix
        (lambda m, a: a.update(upload_0=a["upload_0"][:, :5]),
         "entry 'upload_0' has 5 columns, not the 6 of client 0's upload"),
        (lambda m, a: a.update({"client_0/online0": a["client_0/online0"][:4]}),
         "client 0: entry 'online0' has shape (4, 6)"),
        (lambda m, a: a.pop("client_1/velocity2"), "client 1: missing entries ['velocity2']"),
        # the earlier layout, whose square payload_k held dense L x L entries
        (lambda m, a: a.update({f"payload_{k}": a.pop(f"upload_{k}") for k in range(2)}),
         "entry 'upload_0' is missing"),
        # an upload is stored as its canonical lower-trapezoidal factor
        (lambda m, a: a.update(upload_0=a["upload_0"] + np.triu(np.ones((10, 6)), 1)),
         "entry 'upload_0' has nonzeros above its diagonal"),
        (lambda m, a: m.update(round=-1), "checkpoint.npz: round -1 is outside 1..2"),
        (lambda m, a: m.update(round=0), "checkpoint.npz: round 0 is outside 1..2"),
        (lambda m, a: m.update(round=3), "checkpoint.npz: round 3 is outside 1..2"),
    ], ids=["missing-payload", "short-payload", "wide-payload", "narrow-payload",
            "truncated-tensor", "missing-tensor", "payload-entries", "non-canonical-payload",
            "negative-round", "round-zero", "round-past-the-run"])
    def test_resume_from_bad_checkpoint(self, tmp_path, data_csv, capsys, change, named):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out), "--stop-after", "1") == 0
        rewrite_npz(os.path.join(out, "checkpoints", "checkpoint.npz"), change)
        assert run_cli(*run_args(data_csv, out), "--resume") == 2
        err = capsys.readouterr().err
        assert "checkpoint.npz" in err and named in err

    @pytest.mark.parametrize("meta", [["round", 1], "round 1", None],
                             ids=["list", "string", "null"])
    def test_resume_from_checkpoint_whose_meta_is_not_an_object(self, tmp_path, data_csv,
                                                                capsys, meta):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out), "--stop-after", "1") == 0
        path = os.path.join(out, "checkpoints", "checkpoint.npz")
        save_arrays(path, load_arrays(path)[1], meta)
        assert run_cli(*run_args(data_csv, out), "--resume") == 2
        assert f"{path}: meta is " in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        (lambda args: [*args, "--workers", "0", "--clients", "4"],
         "argument --workers: must be at least 1, got 0"),
        (lambda args: [*args, "--stop-after", "0"],
         "argument --stop-after: must be at least 1, got 0"),
        (lambda args: ["12,6" if a == "8,6" else a for a in args],
         "client 0: encoder input width 12 != dataset width 8"),
        (lambda args: [*args, "--clients", "3", "--partition", "noniid"],
         "4 classes do not divide evenly over 3 clients"),
        (lambda args: [*args, "--rad-size", "500"],
         "alignment size 500 exceeds the 160 unreserved pool rows"),
    ], ids=["no-workers", "stop-before-round-1", "encoder-width", "indivisible-partition",
            "rad-larger-than-pool"])
    def test_a_refused_run_leaves_its_directory_as_it_was(self, tmp_path, data_csv, capsys,
                                                          change, named):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        before = tree_bytes(out)
        capsys.readouterr()
        try:
            code = run_cli(*change(run_args(data_csv, out)))
        except SystemExit as exc:  # refused as the arguments are parsed
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
        assert tree_bytes(out) == before
        assert run_cli("eval", "--run-dir", out, "--data", data_csv) == 0

    @pytest.mark.parametrize("flag, value, named", [
        ("--probe-batch", "0", "argument --probe-batch: must be at least 1, got 0"),
        ("--probe-batch", "-5", "argument --probe-batch: must be at least 1, got -5"),
        ("--probe-epochs", "-1", "argument --probe-epochs: must be at least 0, got -1"),
    ], ids=["batch-zero", "batch-negative", "epochs-negative"])
    def test_eval_probe_arguments(self, tmp_path, data_csv, capsys, flag, value, named):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:  # refused as the arguments are parsed
            run_cli("eval", "--run-dir", out, "--data", data_csv, flag, value)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "eval.csv"))

    @pytest.mark.parametrize("command, what", [
        ("gen-data", "dataset"), ("eval", "evaluation"), ("check-theory", "bound report"),
    ])
    def test_out_in_missing_directory(self, tmp_path, data_csv, capsys, command, what):
        run, out = str(tmp_path / "run"), str(tmp_path / "absent" / "out")
        assert run_cli(*run_args(data_csv, run, "--theory-probes", "--form", "trace_alignment",
                                 "--clip-radius", "1.0", "--batch-size", "4096")) == 0
        capsys.readouterr()
        args = {"gen-data": ("--per-class", "5"), "eval": ("--run-dir", run, "--data", data_csv),
                "check-theory": ("--run-dir", run)}[command]
        assert run_cli(command, *args, "--out", out) == 2
        assert (f"error: cannot write {what} {out}: No such file or directory"
                in capsys.readouterr().err)
        assert not (tmp_path / "absent").exists()

    def test_resume_from_per_member_checkpoint(self, tmp_path, data_csv, capsys):
        # the layout of earlier versions: a JSON member, then one per tensor
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out), "--stop-after", "1") == 0
        path = os.path.join(out, "checkpoints", "checkpoint.npz")
        meta, arrays = load_arrays(path)
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        assert run_cli(*run_args(data_csv, out), "--resume") == 2
        assert f"{path} is not a packed array file" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [float("nan"), 2.0, -1.0, float("inf")])
    def test_eval_model_file_with_bad_tau(self, tmp_path, data_csv, capsys, tau):
        # a NaN tau would make every target tensor NaN after one EMA update
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        path = os.path.join(out, "models", "client_0", "model.npz")
        rewrite_npz(path, lambda m, a: m.update(tau=tau))
        assert run_cli("eval", "--run-dir", out, "--data", data_csv) == 2
        assert f"{path}: manifest tau {tau!r} is not in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("form, shift, options, named", [
        ("one_minus_cka", "1e308", ("--normalize-loss",),
         "non-finite values in representations: client 0 round 0"),
        ("one_minus_cka", "1e160", ("--normalize-loss",),
         "non-finite values in linear gram: client 0 round 0"),
        ("l2_rep", "1e308", ("--normalize-loss",),
         "non-finite values in representations: client 0 round 0"),
        # finite uploads, but the distance between them overflows in round 1
        ("l2_rep", "1e160", ("--normalize-loss",),
         "non-finite values in representation distance: client 0 round 1"),
        # no penalty, so round 1 trains; the logged row norms overflow
        ("l2_rep", "1e160", ("--rounds", "2", "--epochs", "1", "--partition", "iid",
                             "--batch-size", "32", "--seed", "5", "--mu", "0"),
         "non-finite values in representation norm: client 0 round 1"),
    ], ids=["kernel-representations", "kernel-gram", "l2-representations", "l2-distance",
            "l2-norm"])
    def test_non_finite_bootstrap_upload(self, tmp_path, data_csv, capsys, form, shift,
                                         options, named):
        # RuntimeWarning is an error under the test settings, so a leaked
        # numpy warning would fail this before the exit code is read
        rc = run_cli("run", "--data", data_csv, "--out", str(tmp_path / "run"),
                     "--arch", "8,6", "--clients", "2", "--rad-size", "10",
                     "--rad-shift", shift, "--form", form, *options)
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and "RuntimeWarning" not in err

    def test_encoder_width_differs_from_data(self, tmp_path, data_csv, capsys):
        out = str(tmp_path / "run")
        rc = run_cli(*[a if a != "8,6" else "12,6" for a in run_args(data_csv, out)])
        assert rc == 2
        assert "client 0: encoder input width 12 != dataset width 8" in capsys.readouterr().err
        assert run_cli(*run_args(data_csv, out)) == 0
        wide = str(tmp_path / "wide.csv")
        assert run_cli("gen-data", "--classes", "4", "--dim", "12", "--per-class", "10",
                       "--seed", "3", "--out", wide) == 0
        capsys.readouterr()
        assert run_cli("eval", "--run-dir", out, "--data", wide) == 2
        assert "client 0: encoder input width 8 != dataset width 12" in capsys.readouterr().err

    def test_arch_width_not_an_integer(self, tmp_path, data_csv, capsys):
        rc = run_cli("run", "--data", data_csv, "--out", str(tmp_path / "run"),
                     "--arch", "6,x", "--rad-size", "10")
        assert rc == 2
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("content, named", [
        ({"batch_size": 2.5}, "batch_size must be an integer"),
        ({"rad_size": 8.5}, "rad_size must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"num_clients": "2"}, "num_clients must be an integer"),
        ({"client_specs": [{"layer_widths": [8.7, 6], "activation": "relu"}] * 2},
         "layer width must be an integer, got 8.7"),
    ], ids=["fractional", "fractional-rad", "bool", "string", "fractional-width"])
    def test_config_integer_not_an_integer(self, tmp_path, data_csv, capsys, content, named):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"num_clients": 2, "rad_size": 10, **content}))
        args = ("--arch", "8,6") if "client_specs" not in content else ()
        rc = run_cli("run", "--data", data_csv, "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path), *args)
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_env_seed_not_an_integer(self, tmp_path, data_csv, capsys, monkeypatch):
        monkeypatch.setenv("HSSFL_SEED", "abc")
        args = [a for a in run_args(data_csv, str(tmp_path / "run")) if a not in ("--seed", "5")]
        assert run_cli(*args) == 2
        assert "HSSFL_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("content, named", [
        ([{"num_clients": 2}], "list"),
        ({"client_specs": "8,6"}, "'8,6'"),
        ({"client_specs": [{"layer_widths": [8, 6]}]}, "'activation'"),
    ], ids=["top-level-list", "specs-string", "spec-without-activation"])
    def test_config_file_of_wrong_shape(self, tmp_path, data_csv, capsys, content, named):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(content))
        rc = run_cli("run", "--data", data_csv, "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path), "--rad-size", "10")
        assert rc == 2
        assert named in capsys.readouterr().err
