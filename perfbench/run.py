"""hssfl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last line of stdout
is a JSON object holding every end-to-end metric, measured with tracing
off. With ``--trace 1`` it holds every per-layer metric, taken from traced
jobs that alternate with untraced ones in the same run. Lines before it are
the same figures for a reader: units, sample counts, n/a where a metric does
not apply, and the environment. The full report is also written to
``.perfbench/results/``. The exit code is 0 only when every correctness
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import covered, has_tail, idle_share, percentile, self_times

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# (name, unit) of the end-to-end metrics the last line carries; the list
# BENCHMARK.json names. The others are printed above it: round_s.p90 and
# resume_s apply to one workload only, failed_share reads 0 when all is
# well, and final_loss and probe_acc differ more between seeds than any
# bound the benchmark may set.
END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("round_s.p50", "s"),
    ("samples_per_s", "rows/s"),
    ("up_bytes_per_round", "B"),
    ("down_bytes_per_round", "B"),
    ("peak_rss_mb", "MB"),
    ("ref_alignment", "cka"),
)

# Per-layer stats per boundary of spans.BOUNDARIES. calls, busy_s, self_s
# and bytes are per job; federation.checkpoint.bytes and .files describe the
# last checkpoint as it lies on disk.
LAYER_STATS = (
    ("numkit.matrix_to_csv", ("calls", "busy_s", "bytes")),
    ("numkit.matrix_from_csv", ("calls", "busy_s", "bytes")),
    ("numkit.save_matrix_csv", ("calls", "busy_s")),
    ("numkit.load_matrix_csv", ("calls", "busy_s")),
    ("numkit.RngStream.generator", ("calls", "busy_s")),
    ("cka.gram_linear", ("calls", "busy_s")),
    ("cka.proximal_value", ("calls", "self_s")),
    ("cka.proximal_grad", ("calls", "self_s")),
    ("cka.aggregate_grams", ("calls", "busy_s")),
    ("sslnet.combined_step", ("calls", "self_s")),
    ("sslnet.ema_update", ("busy_s",)),
    ("sslnet.combined_loss", ("calls", "self_s")),
    ("sslnet.save_model", ("calls", "busy_s")),
    ("sslnet.load_model", ("calls", "busy_s")),
    ("federation.local_training", ("self_s",)),
    ("federation.client_task", ("busy_s",)),
    ("federation.swap_eval", ("busy_s",)),
    ("federation.server_aggregate", ("self_s",)),
    ("federation.checkpoint", ("calls", "busy_s", "bytes", "files")),
    ("federation.load_checkpoint", ("busy_s",)),
    ("datahub.load_csv", ("busy_s",)),
    ("datahub.sample_rad", ("busy_s",)),
    ("datahub.partition", ("busy_s",)),
    ("evaluation.probe_accuracy_for_model", ("calls", "busy_s")),
)
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "bytes": "B", "files": "count"}
# Medians over rounds, and what tracing costs.
ROUND_METRICS = (
    ("federation.round.serial_s", "s"),
    ("federation.round.idle_share", "ratio"),
    ("trace.round_unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
)
PER_LAYER = tuple((f"{prefix}.{stat}", STAT_UNITS[stat])
                  for prefix, stats in LAYER_STATS for stat in stats) + ROUND_METRICS


def _import_program():
    """Import hssfl from this checkout's src/, never from elsewhere."""
    if not (SRC / "hssfl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hssfl sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hssfl
    if Path(hssfl.__file__).resolve().parent != SRC / "hssfl":
        raise SystemExit(f"perfbench: imported hssfl from {hssfl.__file__}, not {SRC}")


def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cache_sizes() -> Dict[str, str]:
    """L2 and last-level cache of cpu0, as the kernel reports them."""
    levels: Dict[int, str] = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(index, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            levels[level] = size
    out = {"l2": levels.get(2, "unknown")}
    out["llc"] = f"L{max(levels)} {levels[max(levels)]}" if levels else "unknown"
    return out


def environment(workers: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        **_cache_sizes(),
        "workers": workers,
    }


def end_to_end(out) -> Dict[str, Tuple[Optional[float], str, str]]:
    """name -> (value or None for n/a, unit, how it was sampled)."""
    jobs = out.jobs
    rounds = [end - start for job in jobs for _, start, end in job.rounds()]
    setups = out.setups + [job.setup_s for job in jobs]
    resumes = [job.resume_s for job in jobs if job.resume_s is not None]
    rates = [job.rows_epochs[t] / (end - start) for job in jobs for t, start, end in job.rounds()]
    return {
        "run_s": (statistics.median(job.run_s for job in jobs), "s",
                  f"median of {len(jobs)} jobs"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "round_s.p50": (percentile(rounds, 50), "s", f"median of {len(rounds)} rounds"),
        "round_s.p90": ((percentile(rounds, 90), "s", f"p90 of {len(rounds)} rounds")
                        if has_tail(len(rounds), 90) else
                        (None, "s", f"n/a: {len(rounds)} rounds, fewer than 10 beyond p90")),
        "samples_per_s": (statistics.median(rates), "rows/s", f"median of {len(rates)} rounds"),
        "resume_s": ((statistics.median(resumes), "s", f"median of {len(resumes)} resumes")
                     if resumes else (None, "s", "n/a: no resume leg")),
        "up_bytes_per_round": (jobs[0].up_bytes_per_round, "B", "rounds >= 1"),
        "down_bytes_per_round": (jobs[0].down_bytes_per_round, "B", "rounds >= 1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "process high-water mark"),
        "final_loss": (jobs[0].final_loss, "loss", "mean over last-round clients"),
        "ref_alignment": (jobs[0].ref_alignment, "cka", "mean over clients"),
        "probe_acc": (jobs[0].probe_acc, "ratio", "mean over clients"),
    }


def per_layer(out, workers: int) -> Dict[str, Tuple[Optional[float], str, str]]:
    per_job = []
    for job in out.traced:
        stats: Dict[str, float] = defaultdict(float)
        selfs = self_times(job.spans)
        for span in job.spans:
            stats[f"{span.name}.calls"] += 1
            stats[f"{span.name}.busy_s"] += span.duration
            stats[f"{span.name}.self_s"] += selfs[span.id]
            stats[f"{span.name}.bytes"] += span.nbytes
        stats["federation.checkpoint.bytes"] = job.checkpoint_bytes
        stats["federation.checkpoint.files"] = job.checkpoint_files
        serial, idle, unaccounted = [], [], []
        for t, start, end in job.rounds():
            clip = [(max(s.start, start), min(s.end, end)) for s in job.spans if s.round == t]
            tasks = [s for s in job.spans if s.round == t and s.name == "federation.client_task"]
            serial.append(end - start - covered((s.start, s.end) for s in tasks))
            idle.append(idle_share(tasks, workers))
            unaccounted.append(end - start - covered(clip))
        stats["federation.round.serial_s"] = statistics.median(serial)
        stats["federation.round.idle_share"] = statistics.median(idle)
        stats["trace.round_unaccounted_s"] = statistics.median(unaccounted)
        per_job.append(stats)

    overhead = (statistics.median(j.run_s for j in out.traced)
                - statistics.median(j.run_s for j in out.jobs))
    m = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            m[name] = (overhead, unit, "traced minus untraced run_s")
            continue
        value = statistics.median(stats.get(name, 0.0) for stats in per_job)
        note = f"median of {len(per_job)} traced jobs"
        if name == "federation.round.idle_share" and workers == 1:
            note = "n/a at workers=1 (reads the gaps between serial tasks)"
        m[name] = (value, unit, note)
    return m


def round_accounting(out) -> List[str]:
    """Self time per module inside the median round of the first traced job,
    and the part of the round no span covers."""
    job = out.traced[0]
    rounds = sorted(job.rounds(), key=lambda r: r[2] - r[1])
    t, start, end = rounds[len(rounds) // 2]
    wall = end - start
    in_round = [s for s in job.spans if s.round == t]
    selfs = self_times(job.spans)
    by_module: Dict[str, float] = defaultdict(float)
    for span in in_round:
        by_module[span.name.split(".")[0]] += selfs[span.id]
    cover = covered((max(s.start, start), min(s.end, end)) for s in in_round)
    threads = len({s.thread for s in in_round})
    lines = [f"  median round {t}: {wall:.4f} s wall; spans cover {cover:.4f} s, "
             f"remainder {wall - cover:.4f} s ({100 * (wall - cover) / wall:.1f}%) outside every span",
             f"  self time by module, summed over {threads} thread(s)"
             + (" (threads overlap, so the sum exceeds the wall time):" if threads > 1 else ":")]
    for module, value in sorted(by_module.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {module:<12} {value:9.4f} s  {100 * value / wall:5.1f}% of wall")
    lines.append(f"    {'total':<12} {sum(by_module.values()):9.4f} s")
    return lines


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from harness import Bench, measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    env = environment(workload.workers)
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        with Bench(workload, args.seed, str(workdir)) as bench:
            out = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in out.errors:
        print("FAILED " + error.rstrip().replace("\n", "\n  "))
    correct = out.failed == 0
    print(f"gate: {'ok' if correct else 'FAILED'}; {out.attempted} attempted "
          f"({len(out.setups)} set-up probes, {len(out.jobs)} untraced jobs, "
          f"{len(out.traced)} traced jobs), {out.failed} failed")

    report: Dict[str, Tuple[Optional[float], str, str]] = {}
    if out.jobs:
        cfg = workload.config(args.seed)
        report = end_to_end(out)
        report["failed_share"] = (out.failed / out.attempted, "ratio",
                                  f"{out.failed} of {out.attempted}")
        print(f"log: sha256 {out.jobs[0].log_sha256[:16]}, {out.jobs[0].records} records "
              f"= 1 + {cfg.rounds} x ({cfg.sample_size} + 1)"
              + (", identical across jobs" if correct else ""))
        print("end-to-end (tracing off):")
        for name, (value, unit, note) in report.items():
            print(f"  {name:<22} {_fmt(value):>12} {unit:<7} {note}")
    if args.trace and out.traced and out.jobs:
        layers = per_layer(out, workload.workers)
        print("per-layer (traced jobs):")
        for name, (value, unit, note) in layers.items():
            print(f"  {name:<45} {_fmt(value):>12} {unit:<6} {note}")
        print("round accounting (traced):")
        print("\n".join(round_accounting(out)))
        report = layers
    elif args.trace:
        correct = False

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report[name][0], "unit": unit}
               for name, unit in names if name in report}
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "errors": out.errors,
                   "samples": {"setup_s": out.setups,
                               "run_s": [j.run_s for j in out.jobs],
                               "traced_run_s": [j.run_s for j in out.traced],
                               "round_s": [[e - s for _, s, e in j.rounds()]
                                           for j in out.jobs]},
                   "report": {k: {"value": v, "unit": u, "note": n}
                              for k, (v, u, n) in report.items()}},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
