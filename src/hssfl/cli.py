"""Command-line entry point: gen-data, run, eval, check-theory.

Every run writes a manifest (resolved configuration, seed, version,
timestamps, output paths) before training starts; the emitted logs,
checkpoints, and reports are reproducible byte-for-byte from that manifest.
A run refused for its flags, its config or its data exits 2 before it
writes anything.
Flag precedence: command line > config file > defaults. HSSFL_SEED serves
as a seed fallback when --seed is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional

from . import __version__, datahub, evaluation, federation, sslnet, theory
from .errors import ConfigError, HssflError, ParseError
from .federation import FedConfig
from .numkit import RngStream, as_int
from .sslnet import MlpSpec

# applied on top of DESK_DEFAULTS, so it holds only what differs
PAPER_DEFAULTS = {
    "rounds": 200,
    "batch_size": 200,
    "rad_size": 5000,
}

DESK_DEFAULTS = {
    "rounds": 50,
    "local_epochs": 5,
    "momentum": 0.9,
    "eta": 0.032,
    "batch_size": 64,
    "mu": 0.5,
    "rad_size": 256,
    "normalize_loss": True,
}


def _env_seed() -> Optional[int]:
    raw = os.environ.get("HSSFL_SEED")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"HSSFL_SEED must be an integer, got {raw!r}") from None


def _parse_arch(text: str) -> MlpSpec:
    """'32,16,8' or '32,16,8:tanh' -> MlpSpec."""
    if ":" in text:
        widths, activation = text.split(":", 1)
    else:
        widths, activation = text, "relu"
    parts = tuple(widths.split(","))
    try:
        parsed = tuple(int(w) for w in parts)
    except ValueError:
        raise ConfigError(f"layer widths must be integers, got {parts!r}") from None
    return MlpSpec(parsed, activation)


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_at_least_zero, _at_least_one = _int_at_least(0), _int_at_least(1)


@contextlib.contextmanager
def _file(verb: str, what: str, path: str):
    """An OSError in the block, a missing directory or file say, is a
    ConfigError: ``cannot <verb> <what> <path>: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {verb} {what} {path}: {exc.strerror}") from None


def _read_json(path: str, what: str, parse=json.loads):
    """The parsed contents of a JSON file (``parse`` reads JSON lines); a
    missing or unreadable file is a ConfigError, bad JSON a ParseError."""
    try:
        with _file("read", what, path), open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from None


def _write_json(path: str, payload) -> None:
    """Write the file whole or not at all: a kill leaves the old file or none."""
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)


def cmd_gen_data(args) -> int:
    seed = args.seed if args.seed is not None else (_env_seed() or 0)
    ds = datahub.synth_mixture(
        args.classes, args.dim, args.per_class, args.separation, args.noise,
        RngStream(seed, purpose="synth"),
    )
    if args.clients and args.partition == "noniid":
        if args.classes % args.clients != 0:
            raise HssflError(
                f"{args.classes} classes do not divide over {args.clients} clients; "
                "pick a divisible pair or use --partition iid"
            )
    with _file("write", "dataset", args.out):
        datahub.save_csv(ds, args.out)
    _write_json(args.out + ".manifest.json", {
        "kind": "dataset",
        "classes": args.classes,
        "dim": args.dim,
        "per_class": args.per_class,
        "separation": args.separation,
        "noise": args.noise,
        "seed": seed,
        "version": __version__,
        "path": args.out,
    })
    print(f"wrote {ds.size} rows x {ds.dim} features, {ds.num_classes} classes -> {args.out}")
    return 0


def _resolve_config(args) -> FedConfig:
    base = dict(DESK_DEFAULTS)
    file_cfg = _read_json(args.config, "config file") if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object, "
                          f"not {type(file_cfg).__name__}")
    if args.paper_defaults:
        base.update(PAPER_DEFAULTS)
    base.update(file_cfg)

    overrides = {
        "num_clients": args.clients,
        "rounds": args.rounds,
        "local_epochs": args.epochs,
        "eta": args.lr,
        "momentum": args.momentum,
        "batch_size": args.batch_size,
        "mu": args.mu,
        "tau": args.tau,
        "rad_size": args.rad_size,
        "sample_size": args.sample_size,
        "partition": args.partition,
        "proximal_form": args.form,
        "noise_std": args.aug_noise,
        "mask_prob": args.aug_mask,
        "clip_radius": args.clip_radius,
        "rad_shift": args.rad_shift,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    if args.normalize_loss:
        base["normalize_loss"] = True
    if args.symmetrize_loss:
        base["symmetrize_loss"] = True
    if args.theory_probes:
        base["theory_probes"] = True

    seed = args.seed if args.seed is not None else _env_seed()
    if seed is not None:
        base["seed"] = seed
    base.setdefault("seed", 0)
    base.setdefault("tau", 0.99)
    base.setdefault("proximal_form", "one_minus_cka")

    if args.arch:
        specs = [_parse_arch(a) for a in args.arch]
        n = as_int(base.get("num_clients") or len(specs), "num_clients")
        base["num_clients"] = n
        base["client_specs"] = [specs[i % len(specs)].to_dict() for i in range(n)]
    if "client_specs" not in base:
        raise HssflError("no client architectures given; use --arch or a config file")
    base.setdefault("num_clients", len(base["client_specs"]))
    return FedConfig.from_dict(base)


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    data = datahub.load_csv(args.data)
    # every refusal of the data comes before anything is written
    federation.prepare_data(cfg, dataclasses.replace(data, reserved=set()))
    log_path = os.path.join(args.out, "log.jsonl")
    checkpoint_dir = os.path.join(args.out, "checkpoints")
    manifest_path = os.path.join(args.out, "manifest.json")
    fresh = not args.resume
    if (args.resume and os.path.exists(manifest_path)
            and not os.path.exists(os.path.join(checkpoint_dir, federation.CHECKPOINT_FILE))):
        # a run of this config killed before its first checkpoint starts afresh
        manifest = _read_json(manifest_path, "run manifest")
        fresh = isinstance(manifest, dict) and manifest.get("config") == cfg.to_dict()
    if fresh:
        # the manifest last: it marks a run of the config as started
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "config.resolved.json"), cfg.to_dict())
        _write_json(manifest_path, {
            "kind": "run",
            "config": cfg.to_dict(),
            "seed": cfg.seed,
            "version": __version__,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "data": os.path.abspath(args.data),
            "log": log_path,
            "checkpoints": checkpoint_dir,
        })

    result = federation.run_training(
        cfg, data,
        workers=args.workers,
        log_path=log_path,
        checkpoint_dir=checkpoint_dir,
        resume=not fresh,
        stop_after_round=args.stop_after,
    )
    for k, model in enumerate(result.models):
        sslnet.save_model(model, os.path.join(args.out, "models", f"client_{k}"),
                          result.server.round)
    _write_json(os.path.join(args.out, "run_summary.json"), {
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rounds_completed": result.server.round,
        "timings_s": {f"{t}/{k}": v for (t, k), v in sorted(result.log.timings.items())},
    })
    print(f"completed round {result.server.round}/{cfg.rounds}; log -> {log_path}")
    return 0


def cmd_eval(args) -> int:
    run_dir = args.run_dir
    cfg = FedConfig.from_dict(
        _read_json(os.path.join(run_dir, "config.resolved.json"), "resolved config"))
    models = [sslnet.load_model(os.path.join(run_dir, "models", f"client_{k}"))
              for k in range(cfg.num_clients)]
    data = datahub.load_csv(args.data)
    federation.check_input_widths([m.spec for m in models], data.dim)
    probe_cfg = evaluation.ProbeConfig(
        epochs=args.probe_epochs, lr=args.probe_lr, batch=args.probe_batch,
        seed=cfg.seed,
    )
    train_idx, test_idx = evaluation.stratified_split(
        data.labels, 0.2, RngStream(cfg.seed, purpose="probe-split")
    )
    rows = []
    for k, model in enumerate(models):
        acc = evaluation.probe_accuracy_for_model(
            model, data.features, data.labels, train_idx, test_idx, probe_cfg
        )
        arch = "x".join(str(w) for w in model.spec.layer_widths)
        rows.append({"client": k, "architecture": f"{arch}-{model.spec.activation}",
                     "accuracy": acc})
    out_csv = args.out or os.path.join(run_dir, "eval.csv")
    with _file("write", "evaluation", out_csv):
        with open(out_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["client", "architecture", "accuracy"])
            writer.writeheader()
            writer.writerows(rows)
        with open(os.path.splitext(out_csv)[0] + ".jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    for row in rows:
        print(f"client {row['client']:>3} {row['architecture']:>20} "
              f"accuracy {row['accuracy']:.4f}")
    return 0


def cmd_check_theory(args) -> int:
    run_dir = args.run_dir
    cfg = FedConfig.from_dict(
        _read_json(os.path.join(run_dir, "config.resolved.json"), "resolved config"))
    log = _read_json(os.path.join(run_dir, "log.jsonl"), "run log",
                     federation.RoundLog.from_jsonl)
    if not any(r.get("probe") for r in log.client_records()):
        raise HssflError(
            "log has no theory probes; rerun training with --theory-probes"
        )
    est = theory.estimate_constants(log)
    reports = theory.check_round_log(
        log, cfg.eta, cfg.mu, cfg.local_epochs, cfg.rad_size, est,
        proximal_form=cfg.proximal_form.value,
    )
    out_path = args.out or os.path.join(run_dir, "bounds.jsonl")
    with _file("write", "bound report", out_path), open(out_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"estimates": est.to_dict()}, sort_keys=True) + "\n")
        for rep in reports:
            fh.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")

    by_kind = {}
    for rep in reports:
        by_kind.setdefault(rep.which, []).append(rep)
    print(f"constants: L1={est.l1.value:.4g} L2={est.l2.value:.4g} "
          f"sigma2={est.sigma2.value:.4g} P={est.p.value:.4g} R={est.r.value:.4g}")
    print(f"{'check':<10} {'events':>7} {'holds':>7} {'worst slack':>14}")
    for kind in ("lemma1", "lemma2", "theorem"):
        reps = by_kind.get(kind, [])
        if not reps:
            continue
        held = sum(r.holds for r in reps)
        worst = min(r.slack for r in reps)
        print(f"{kind:<10} {len(reps):>7} {held:>7} {worst:>14.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hssfl",
        description="Deterministic federated self-supervised learning simulator "
                    "with kernel-alignment coupling and convergence-bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic mixture dataset CSV")
    g.add_argument("--classes", type=int, default=10)
    g.add_argument("--dim", type=int, default=32)
    g.add_argument("--per-class", type=int, default=200)
    g.add_argument("--separation", type=float, default=4.0)
    g.add_argument("--noise", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--clients", type=int, default=None,
                   help="validate divisibility for a later non-IID partition")
    g.add_argument("--partition", choices=["iid", "noniid"], default="noniid")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    r = sub.add_parser("run", help="execute a federated training run")
    r.add_argument("--config", help="JSON config file mirroring the run configuration")
    r.add_argument("--data", required=True, help="dataset CSV from gen-data")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--arch", action="append",
                   help="encoder spec 'w0,w1,...:activation'; repeat to cycle "
                        "over clients")
    r.add_argument("--clients", type=int, default=None)
    r.add_argument("--rounds", type=int, default=None)
    r.add_argument("--epochs", type=int, default=None)
    r.add_argument("--lr", type=float, default=None)
    r.add_argument("--momentum", type=float, default=None)
    r.add_argument("--batch-size", type=int, default=None)
    r.add_argument("--mu", type=float, default=None)
    r.add_argument("--tau", type=float, default=None)
    r.add_argument("--rad-size", type=int, default=None)
    r.add_argument("--sample-size", type=int, default=None)
    r.add_argument("--partition", choices=["iid", "noniid"], default=None)
    r.add_argument("--form", default=None,
                   choices=["one_minus_cka", "raw_cka", "trace_alignment", "l2_rep"])
    r.add_argument("--aug-noise", type=float, default=None)
    r.add_argument("--aug-mask", type=float, default=None)
    r.add_argument("--normalize-loss", action="store_true",
                   help="regress on L2-normalized rows; the shipped defaults "
                        "already do, so this overrides a config file's false")
    r.add_argument("--symmetrize-loss", action="store_true")
    r.add_argument("--clip-radius", type=float, default=None)
    r.add_argument("--rad-shift", type=float, default=None,
                   help="offset added to the alignment rows, probing "
                        "sensitivity to where they come from")
    r.add_argument("--theory-probes", action="store_true")
    r.add_argument("--paper-defaults", action="store_true",
                   help="start from the full-scale defaults instead of desk scale")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--workers", type=_at_least_one, default=1)
    r.add_argument("--resume", action="store_true")
    r.add_argument("--stop-after", type=_at_least_one, default=None,
                   help="stop after this round, at least 1 (testing aid; checkpoint remains)")
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("eval", help="linear-probe accuracy of run checkpoints")
    e.add_argument("--run-dir", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", default=None)
    e.add_argument("--probe-epochs", type=_at_least_zero, default=50)
    e.add_argument("--probe-lr", type=float, default=0.003)
    e.add_argument("--probe-batch", type=_at_least_one, default=128)
    e.set_defaults(func=cmd_eval)

    t = sub.add_parser("check-theory", help="verify the convergence bounds on a run log")
    t.add_argument("--run-dir", required=True)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_check_theory)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HssflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
