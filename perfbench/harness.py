"""Runs one workload's training jobs through hssfl's public entry points, as
``hssfl run`` does (log and checkpoints on), and checks their outputs.

A job is one training run from the dataset CSV to the last round, followed
by a linear probe of the final encoders. A set-up probe runs the same calls
but stops when round 1 selects its clients, which gives more set-up samples
per run without training.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from hssfl import cka, datahub, evaluation, federation
from hssfl.numkit import RngStream

from spans import Leg, RoundClock, Span, StopAtFirstRound, Tracer
from workloads import Workload

# Set-up probes, on top of the set-up of every job: up to four before each
# job, so that they sample the whole run and not just its first second, and
# no more once they have used 10% of the run. The first always runs.
SETUP_PROBES_PER_JOB = 4
SETUP_SHARE = 0.10
# Two jobs at least, so every run compares two logs of the same seed.
MIN_JOBS = 2
# Symmetry tolerance relative to the largest entry; GramMatrix itself
# accepts 1e-12 absolute.
SYMMETRY_RTOL = 1e-12


class GateError(Exception):
    """A correctness-gate violation."""


@dataclass
class Job:
    legs: List[Leg]
    log_sha256: str
    records: int
    up_bytes_per_round: float
    down_bytes_per_round: float
    rows_epochs: Dict[int, int]
    final_loss: float
    ref_alignment: float
    probe_acc: float
    # One checkpoint as it lies on disk after the last round.
    checkpoint_bytes: int
    checkpoint_files: int
    spans: List[Span] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(leg.end - leg.start for leg in self.legs)

    @property
    def setup_s(self) -> float:
        return self.legs[0].first_round - self.legs[0].start

    @property
    def resume_s(self) -> Optional[float]:
        if len(self.legs) < 2:
            return None
        return self.legs[1].first_round - self.legs[1].call

    def rounds(self) -> List[Tuple[int, float, float]]:
        return [r for leg in self.legs for r in leg.rounds()]


class Bench:
    """One workload at one seed, with its own work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config = workload.config(seed)
        self.clock = RoundClock()
        self.data_csv = os.path.join(workdir, "data.csv")
        os.makedirs(workdir, exist_ok=True)
        ds = datahub.synth_mixture(workload.classes, workload.dim, workload.per_class,
                                   4.0, 1.0, RngStream(seed, purpose="synth"))
        datahub.save_csv(ds, self.data_csv)

    def __enter__(self) -> "Bench":
        self.clock.install()
        return self

    def __exit__(self, *exc) -> None:
        self.clock.uninstall()

    def _fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def _leg(self, run_dir: str, resume: bool, stop_after: Optional[int]):
        leg = self.clock.begin_leg()
        data = datahub.load_csv(self.data_csv)
        # sample_rad reserves rows in the Dataset it is given, so a reused
        # Dataset would silently change the RAD and the partition.
        if data.reserved:
            raise GateError(f"dataset has {len(data.reserved)} reserved rows before run_training")
        leg.call = time.perf_counter()
        try:
            result = federation.run_training(
                self.config, data, workers=self.workload.workers,
                log_path=os.path.join(run_dir, "log.jsonl"),
                checkpoint_dir=os.path.join(run_dir, "checkpoints"),
                resume=resume, stop_after_round=stop_after,
            )
        finally:
            self.clock.end_leg(leg)
        return leg, result, data

    def setup_probe(self) -> float:
        """Seconds from the dataset load to round 1 selecting its clients."""
        run_dir = self._fresh_dir("setup")
        self.clock.stop_at_first_round = True
        start = time.perf_counter()
        try:
            self._leg(run_dir, resume=False, stop_after=None)
        except StopAtFirstRound as stop:
            return stop.args[0] - start
        finally:
            self.clock.stop_at_first_round = False
        raise GateError("set-up probe returned without starting round 1")

    def job(self, tracer: Optional[Tracer] = None) -> Job:
        cfg = self.config
        run_dir = self._fresh_dir("job")
        legs, messages = [], []
        if tracer is not None:
            tracer.install()
        try:
            leg, result, data = self._leg(run_dir, resume=False,
                                          stop_after=self.workload.stop_after)
            legs.append(leg)
            messages += result.log.messages
            self._check_registry(result)
            if self.workload.stop_after is not None:
                if result.server.round != self.workload.stop_after:
                    raise GateError(f"first leg ended at round {result.server.round}, "
                                    f"expected {self.workload.stop_after}")
                leg, result, data = self._leg(run_dir, resume=True, stop_after=None)
                legs.append(leg)
                messages += result.log.messages
                self._check_registry(result)
            probe_acc = self._probe(result, data)
        finally:
            if tracer is not None:
                tracer.uninstall()

        if result.server.round != cfg.rounds:
            raise GateError(f"run ended at round {result.server.round} of {cfg.rounds}")
        seen = [t for leg in legs for t, _ in leg.round_starts]
        if seen != list(range(1, cfg.rounds + 1)):
            raise GateError(f"round clock saw rounds {seen}, expected 1..{cfg.rounds}")

        with open(os.path.join(run_dir, "log.jsonl"), "rb") as fh:
            log_bytes = fh.read()
        records = [json.loads(line) for line in log_bytes.decode("utf-8").splitlines()]
        expected = 1 + cfg.rounds * (cfg.sample_size + 1)
        if len(records) != expected:
            raise GateError(f"log holds {len(records)} records, expected {expected}")

        last = [r for r in records if r["type"] == "client" and r["round"] == cfg.rounds]
        shard_rows = [len(idx) for idx in result.plan.client_indices]
        rows_epochs = {
            r["round"]: cfg.local_epochs * sum(shard_rows[k] for k in r["selected"])
            for r in records if r["type"] == "server" and r["round"] >= 1
        }
        checkpoint_bytes = checkpoint_files = 0
        for root, _, names in os.walk(os.path.join(run_dir, "checkpoints")):
            checkpoint_bytes += sum(os.path.getsize(os.path.join(root, n)) for n in names)
            checkpoint_files += len(names)
        reference = result.server.reference
        registry = result.server.registry
        return Job(
            legs=legs,
            log_sha256=hashlib.sha256(log_bytes).hexdigest(),
            records=len(records),
            up_bytes_per_round=_bytes_per_round(messages, "client->server", cfg.rounds),
            down_bytes_per_round=_bytes_per_round(messages, "server->client", cfg.rounds),
            rows_epochs=rows_epochs,
            final_loss=float(np.mean([r["loss_total_end"] for r in last])),
            ref_alignment=float(np.mean([cka.linear_cka(registry[k], reference)
                                         for k in sorted(registry)])),
            probe_acc=probe_acc,
            checkpoint_bytes=checkpoint_bytes,
            checkpoint_files=checkpoint_files,
            spans=list(tracer.spans) if tracer is not None else [],
        )

    def _check_registry(self, result: federation.RunResult) -> None:
        size = self.config.rad_size
        registry = result.server.registry
        if sorted(registry) != list(range(self.config.num_clients)):
            raise GateError(f"registry holds clients {sorted(registry)}")
        for k, payload in registry.items():
            if not isinstance(payload, cka.GramMatrix):
                raise GateError(f"client {k} payload is {type(payload).__name__}, not a Gram matrix")
            entries = payload.entries
            if entries.shape != (size, size):
                raise GateError(f"client {k} payload is {entries.shape}, expected {size}x{size}")
            if not np.all(np.isfinite(entries)):
                raise GateError(f"client {k} payload has non-finite entries")
            scale = max(1.0, float(np.max(np.abs(entries))))
            if float(np.max(np.abs(entries - entries.T))) > SYMMETRY_RTOL * scale:
                raise GateError(f"client {k} payload is not symmetric")

    def _probe(self, result: federation.RunResult, data: datahub.Dataset) -> float:
        """Mean linear-probe accuracy of the final encoders on non-RAD rows."""
        avail = data.available_indices()
        features, labels = data.features[avail], data.labels[avail]
        train_idx, test_idx = evaluation.stratified_split(
            labels, 0.2, RngStream(self.seed, purpose="probe-split"))
        probe_cfg = evaluation.ProbeConfig(epochs=50, seed=self.seed)
        return float(np.mean([
            evaluation.probe_accuracy_for_model(m, features, labels, train_idx, test_idx,
                                                probe_cfg)
            for m in result.models
        ]))


def _bytes_per_round(messages, direction: str, rounds: int) -> float:
    total = sum(m.payload_bytes for m in messages if m.direction == direction and m.round >= 1)
    return total / rounds


@dataclass
class Outcome:
    setups: List[float] = field(default_factory=list)
    jobs: List[Job] = field(default_factory=list)
    traced: List[Job] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def measure(bench: Bench, seconds: float, trace: bool) -> Outcome:
    """Set-up probes and whole jobs until the next job would overrun."""
    out = Outcome()
    deadline = time.perf_counter() + seconds
    durations: List[float] = []
    first = None
    try:
        while True:
            for _ in range(SETUP_PROBES_PER_JOB):
                if out.setups and sum(out.setups) > SETUP_SHARE * seconds:
                    break
                out.attempted += 1
                out.setups.append(bench.setup_probe())
            traced = trace and len(durations) % 2 == 1
            out.attempted += 1
            start = time.perf_counter()
            job = bench.job(Tracer(bench.clock) if traced else None)
            durations.append(time.perf_counter() - start)
            if first is None:
                first = job
            _check_same(first, job)
            if traced:
                if out.traced and _counts(job) != _counts(out.traced[0]):
                    raise GateError("traced jobs made different call counts")
                out.traced.append(job)
            else:
                out.jobs.append(job)
            if (len(durations) >= MIN_JOBS
                    and time.perf_counter() + statistics.median(durations) > deadline):
                break
    except Exception:  # any failure of the program or of a gate fails the run
        out.failed += 1
        out.errors.append(traceback.format_exc())
    return out


def _check_same(first: Job, job: Job) -> None:
    """Every job of one seed must produce the same log and results."""
    if job.log_sha256 != first.log_sha256:
        raise GateError(f"log.jsonl differs between jobs of one seed "
                        f"({first.log_sha256[:12]} vs {job.log_sha256[:12]})")
    for name in ("probe_acc", "final_loss", "ref_alignment",
                 "up_bytes_per_round", "down_bytes_per_round"):
        if getattr(job, name) != getattr(first, name):
            raise GateError(f"{name} differs between jobs of one seed")


def _counts(job: Job) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in job.spans:
        counts[span.name] += 1
    return dict(counts)
