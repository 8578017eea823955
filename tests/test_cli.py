import json
import os
from pathlib import Path

import pytest

from hssfl.cli import main


def run_cli(*args):
    return main(list(args))


def read_lines(*path):
    return Path(*path).read_text(encoding="utf-8").splitlines()


def read_json(*path):
    return json.loads(Path(*path).read_text(encoding="utf-8"))


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
        # with nothing overridden the manifest records the full-scale values;
        # the run itself then refuses because the toy dataset is too small
        out = str(tmp_path / "pd_full")
        rc = run_cli("run", "--data", data_csv, "--out", out,
                     "--arch", "8,6", "--clients", "2", "--partition", "iid",
                     "--paper-defaults", "--seed", "1")
        assert rc == 2
        cfg = read_json(out, "manifest.json")["config"]
        assert cfg["rounds"] == 200
        assert cfg["rad_size"] == 5000
        assert cfg["eta"] == 0.032

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

    def test_unknown_config_key(self, tmp_path, data_csv, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"num_client": 2}))
        rc = run_cli("run", "--data", data_csv, "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path), "--arch", "8,6", "--rad-size", "10")
        assert rc == 2
        assert "num_client" in capsys.readouterr().err

    def test_eval_without_model_file(self, tmp_path, data_csv, capsys):
        out = str(tmp_path / "run")
        assert run_cli(*run_args(data_csv, out)) == 0
        os.remove(os.path.join(out, "models", "client_1", "model.npz"))
        assert run_cli("eval", "--run-dir", out, "--data", data_csv) == 2
        assert os.path.join("client_1", "model.npz") in capsys.readouterr().err
