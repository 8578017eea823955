"""Server loop, client workers, simulated transport, and trace logging.

The alignment rows (RAD) are drawn once per run and are client state: the
server sends them to every client once, at bootstrap, and a resumed leg
rebuilds each client's copy from the seed and the data, as it rebuilds the
shards. Each global round: the server sends the current aggregated reference
(kernel matrix by default, representation matrix under the l2_rep form) to
a sampled subset of clients, which run local epochs against that fixed
reference and report their fresh alignment payloads, and the server
aggregates the new reference, which scores the round's clients and is the
next round's reference. Unsampled clients keep their last reported
payload, so the weighted aggregate always covers all clients. The scoring
(the swap evaluation) holds the weights fixed, so it reuses the round's end
regression loss and the uploaded representations and makes no forward pass.

Each reference is aggregated and transmitted once: before round 1, from the
bootstrap uploads or the loaded checkpoint, and at the end of every round.
Kernels travel and are stored as their exact factors (``cka.GramMatrix``):
an upload is L x min(d_k, L) and a reference L x min(D, L) with
D = sum_k d_k, so a round sends O(L d_k) up per client and O(L D) down; the
L x dim alignment rows are sent once per client per run, not per round.
Payloads cross a real serialization boundary even though transport is
in-process: every matrix sent (the alignment rows, the reference, client
uploads) is encoded as npy, counted, decoded and checked for finiteness
once. One atomically replaced ``checkpoint.npz`` holds each round's client
tensors and uploads (``upload_k``, as held); a resume cuts ``log.jsonl``
back to the rounds it holds, so a run killed at any point resumes to the
uninterrupted result. One thread pool runs the clients for every worker
count. All randomness flows through value-like streams keyed by (seed,
client, round, epoch, purpose), so runs are bit-reproducible regardless of
how many workers execute clients in parallel. Wall-clock timings are collected separately
from the round log and never serialized with it, keeping logs byte-comparable
across machines and worker counts. With ``theory_probes`` set, a
``theory.RoundProbe`` watches each client round through the epoch hook and
fills the record's ``probe`` entry.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import sslnet, theory
from .cka import (
    GramMatrix,
    ProximalForm,
    _check_weights,
    aggregate_grams,
    aggregate_representations,
    gram_linear,
    proximal_value,
)
from .datahub import Dataset, PartitionPlan, partition_iid, partition_noniid, sample_rad
from .errors import ConfigError, NumericalFailureError, ParseError, ProtocolError
from .numkit import (
    Matrix,
    RngStream,
    as_int,
    as_matrix,
    check_finite,
    load_arrays,
    save_arrays,
)
from .sslnet import AugmentConfig, ClientModel, MlpSpec

KERNEL = "kernel"
REPRESENTATION = "representation"
CHECKPOINT_FILE = "checkpoint.npz"


# Integral config fields: a bool or a non-integral number is refused, and an
# integral float is stored as an int, so to_dict() round-trips.
_INT_FIELDS = ("num_clients", "rounds", "local_epochs", "batch_size", "rad_size",
               "seed", "sample_size")


@dataclass(frozen=True)
class FedConfig:
    num_clients: int
    rounds: int
    local_epochs: int
    eta: float
    momentum: float
    batch_size: int
    mu: float
    proximal_form: ProximalForm
    tau: float
    client_specs: Tuple[MlpSpec, ...]
    rad_size: int
    seed: int
    client_weights: Optional[Tuple[float, ...]] = None
    sample_size: Optional[int] = None
    partition: str = "noniid"
    noise_std: float = 0.0
    mask_prob: float = 0.0
    normalize_loss: bool = False
    clip_radius: Optional[float] = None
    theory_probes: bool = False
    symmetrize_loss: bool = False
    rad_shift: float = 0.0

    def __post_init__(self):
        for name in _INT_FIELDS:
            if name != "sample_size" or self.sample_size is not None:
                object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.num_clients < 1:
            raise ConfigError("need at least one client")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("eta", "momentum", "mu", "rad_shift"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")
        if self.mu < 0:
            raise ConfigError("mu must be >= 0")
        if self.clip_radius is not None and not 0.0 < self.clip_radius < np.inf:
            raise ConfigError(f"clip_radius must be finite and > 0, got {self.clip_radius!r}")
        self.augment_cfg  # validates noise_std and mask_prob once
        if not (0.0 <= self.tau <= 1.0):
            raise ConfigError("tau must be in [0, 1]")
        if len(self.client_specs) != self.num_clients:
            raise ConfigError(
                f"{len(self.client_specs)} client specs for {self.num_clients} clients"
            )
        object.__setattr__(self, "proximal_form", ProximalForm.parse(self.proximal_form))
        if self.partition not in ("iid", "noniid"):
            raise ConfigError(f"unknown partition mode {self.partition!r}")
        if self.client_weights is None:
            weights = tuple(1.0 / self.num_clients for _ in range(self.num_clients))
        else:
            weights = tuple(float(w) for w in self.client_weights)
        object.__setattr__(self, "client_weights", weights)
        if len(weights) != self.num_clients:
            raise ConfigError("client_weights length must equal num_clients")
        _check_weights(weights)
        sample = self.sample_size
        if sample is None:
            object.__setattr__(self, "sample_size", self.num_clients)
        elif not (1 <= sample <= self.num_clients):
            raise ConfigError(f"sample_size must be in [1, {self.num_clients}]")

    @cached_property
    def augment_cfg(self) -> AugmentConfig:
        return AugmentConfig(self.noise_std, self.mask_prob)

    @property
    def payload_kind(self) -> str:
        """What clients upload: representations under l2_rep, else kernels."""
        return REPRESENTATION if self.proximal_form is ProximalForm.L2_REP else KERNEL

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["proximal_form"] = self.proximal_form.value
        d["client_specs"] = [s.to_dict() for s in self.client_specs]
        d["client_weights"] = list(self.client_weights)
        return d

    @staticmethod
    def from_dict(d: dict) -> "FedConfig":
        known = {f.name for f in fields(FedConfig)}
        required = {f.name for f in fields(FedConfig) if f.default is MISSING}
        unknown, missing = sorted(set(d) - known), sorted(required - set(d))
        if unknown or missing:
            raise ConfigError(f"config has unknown keys {unknown} and lacks keys {missing}")
        d = dict(d)
        if not isinstance(d["client_specs"], (list, tuple)):
            raise ConfigError(f"client_specs must be a list, got {d['client_specs']!r}")
        d["client_specs"] = tuple(MlpSpec.from_dict(s) for s in d["client_specs"])
        d["client_weights"] = tuple(d["client_weights"]) if d.get("client_weights") else None
        d["proximal_form"] = ProximalForm.parse(d["proximal_form"])
        return FedConfig(**d)


Payload = Union[GramMatrix, Matrix]


@dataclass
class RoundMessage:
    direction: str  # "server->client" | "client->server"
    round: int
    client: int
    kind: str
    payload_bytes: int


@dataclass
class RoundLog:
    """Per-round trace. ``timings`` is wall-clock only and is deliberately
    excluded from serialization and equality so logs stay byte-comparable."""

    records: List[dict] = field(default_factory=list)
    messages: List[RoundMessage] = field(default_factory=list)
    timings: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def client_records(self) -> List[dict]:
        return [r for r in self.records if r["type"] == "client"]

    @staticmethod
    def from_jsonl(text: str) -> "RoundLog":
        log = RoundLog()
        for line in text.splitlines():
            if line.strip():
                log.records.append(json.loads(line))
        return log


@dataclass
class ServerState:
    round: int
    registry: Dict[int, Payload]
    reference: Optional[Payload] = None


@dataclass
class RunResult:
    models: List[ClientModel]
    log: RoundLog
    rad: Matrix
    plan: PartitionPlan
    server: ServerState


def select_clients(
    num_clients: int, sample_size: int, round_index: int, rng: RngStream
) -> List[int]:
    """Uniform sample without replacement, ascending, fixed per (seed, round)."""
    if sample_size > num_clients:
        raise ConfigError(f"sample_size {sample_size} > num_clients {num_clients}")
    if sample_size == num_clients:
        return list(range(num_clients))
    gen = rng.child(round=round_index, purpose="select").generator()
    chosen = gen.choice(num_clients, size=sample_size, replace=False)
    return sorted(int(c) for c in chosen)


def server_aggregate(
    reports: Sequence[Tuple[int, Payload]],
    weights: Sequence[float],
    registry: Dict[int, Payload],
) -> Payload:
    """Fold fresh reports into the registry, then aggregate over all clients.

    The registry holds every client's latest known payload; unsampled
    clients contribute their stale entries. The payloads are summed in
    client-id order, so arrival order cannot change the result.
    """
    seen = set()
    for client_id, payload in reports:
        if client_id in seen:
            raise ProtocolError(f"duplicate report from client {client_id}")
        seen.add(client_id)
        registry[client_id] = payload
    missing = [k for k in range(len(weights)) if k not in registry]
    if missing:
        raise ProtocolError(f"no payload known for client {missing[0]}")
    pairs = [(weights[k], registry[k]) for k in sorted(registry)]
    if isinstance(pairs[0][1], GramMatrix):
        return aggregate_grams(pairs)
    return aggregate_representations(pairs)


def _jsonl_line(record: dict) -> str:
    # allow_nan=False: a non-finite value that escaped its check fails here
    # instead of writing a line that is not JSON
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _held(payload: Payload) -> Matrix:
    """The array a payload is sent and stored as: a kernel's factor
    (GramMatrix.data) or a representation matrix."""
    return payload.data if isinstance(payload, GramMatrix) else payload


def _transmit(payload: Payload) -> Tuple[Payload, int]:
    """Encode as npy, count bytes, decode: the receiver's copy and the wire
    size. The received array is checked for finiteness here, so a received
    factor needs no other check."""
    wire = io.BytesIO()
    np.save(wire, _held(payload), allow_pickle=False)
    nbytes = wire.tell()
    wire.seek(0)
    received = as_matrix(np.load(wire, allow_pickle=False), "received payload")
    if isinstance(payload, GramMatrix):
        received = GramMatrix(received)
    return received, nbytes


def _upload(model: ClientModel, rad: Matrix, cfg: FedConfig) -> Tuple[Payload, int, Matrix]:
    """The client's alignment payload as the server receives it, its wire
    size, and the representations it was built from. Run it inside
    ``_client_work``, which names the client of a numerical failure."""
    phi = check_finite(sslnet.representations(model, rad, clip_radius=cfg.clip_radius),
                       "representations")
    received, nbytes = _transmit(gram_linear(phi) if cfg.payload_kind == KERNEL else phi)
    return received, nbytes, phi


def _client_objective(
    cfg: FedConfig, mu: float, rad: Optional[Matrix], reference: Optional[Payload]
) -> sslnet.Objective:
    """The objective of one client round, as every client-side call evaluates it."""
    return sslnet.Objective(mu, cfg.proximal_form, rad, reference, cfg.augment_cfg,
                            cfg.normalize_loss, cfg.clip_radius, cfg.symmetrize_loss)


def _epoch_batches(
    n_rows: int, batch_size: int, order_rng: RngStream
) -> List[np.ndarray]:
    order = order_rng.generator().permutation(n_rows)
    return [order[i:i + batch_size] for i in range(0, n_rows, batch_size)]


def local_training(
    model: ClientModel,
    shard: Matrix,
    obj: sslnet.Objective,
    cfg: FedConfig,
    round_index: int,
    rng: RngStream,
    epoch_hook=None,
) -> dict:
    """E local epochs against a fixed reference: minibatch steps, then one
    EMA update per epoch. Returns the updated model with per-epoch mean
    losses and gradient norms. ``epoch_hook(epoch, model)``, when given, is
    called after each epoch; it must not mutate the model (used for theory
    probes, which draw from their own streams)."""
    epoch_losses: List[float] = []
    epoch_grad_norms: List[float] = []
    for epoch in range(cfg.local_epochs):
        erng = rng.child(round=round_index, epoch=epoch)
        batches = _epoch_batches(shard.shape[0], cfg.batch_size, erng.sub("order"))
        losses, norms = [], []
        for b, idx in enumerate(batches):
            try:
                step = sslnet.combined_step(
                    model, shard[idx], obj, cfg.eta, cfg.momentum, erng.sub(f"step{b}")
                )
            except NumericalFailureError as exc:
                raise exc.within(f"epoch {epoch} batch {b}") from exc
            model = step.model
            losses.append(step.loss_total)
            norms.append(step.grad_norm)
        model = sslnet.ema_update(model)
        epoch_losses.append(float(np.mean(losses)))
        epoch_grad_norms.append(float(np.mean(norms)))
        if epoch_hook is not None:
            epoch_hook(epoch, model)
    return {
        "model": model,
        "epoch_losses": epoch_losses,
        "epoch_grad_norms": epoch_grad_norms,
    }


@contextmanager
def _client_work(client_id: int, round_index: int):
    """Client-side numerics: numpy float warnings are silenced, since the
    finiteness checks raise NumericalFailureError instead, and that error is
    tagged with the client and round."""
    try:
        with np.errstate(all="ignore"):
            yield
    except NumericalFailureError as exc:
        raise exc.within(f"client {client_id} round {round_index}") from exc


def _train_one_client(
    client_id: int,
    model: ClientModel,
    shard: Matrix,
    rad: Matrix,
    reference: Payload,
    cfg: FedConfig,
    round_index: int,
) -> dict:
    """Full client-side work for one round; pure function, safe to run in
    any worker thread. The returned payload is the server's decoded copy of
    the upload, with its wire size; ``phi`` is the representations it was
    built from."""
    crng = RngStream(cfg.seed, client=client_id)
    eval_rng = crng.child(round=round_index, purpose="eval")
    obj = _client_objective(cfg, cfg.mu, rad, reference)
    probe = None
    with _client_work(client_id, round_index):
        # start and end are scored on one view pair
        views = sslnet.objective_views(shard, obj, eval_rng)
        start = sslnet.combined_loss(model, shard, obj, eval_rng, views)
        if cfg.theory_probes:
            rrng = crng.child(round=round_index)
            probe = theory.RoundProbe(model, shard, obj, rrng, _epoch_batches(
                shard.shape[0], cfg.batch_size, rrng.sub("order")))
        result = local_training(model, shard, obj, cfg, round_index, crng,
                                epoch_hook=probe.after_epoch if probe else None)
        model = result["model"]
        end = sslnet.combined_loss(model, shard, obj, eval_rng, views)
        upload, upload_bytes, phi = _upload(model, rad, cfg)
        rep_norm_max = check_finite(float(np.max(np.sqrt(np.sum(phi * phi, axis=1)))),
                                    "representation norm")

    return {
        "client": client_id,
        "model": model,
        "payload": upload,
        "upload_bytes": upload_bytes,
        "phi": phi,
        "record": {
            "type": "client",
            "round": round_index,
            "client": client_id,
            "loss_total_start": start[0],
            "loss_ssl_start": start[1],
            "loss_prox_start": start[2],
            "loss_total_end": end[0],
            "loss_ssl_end": end[1],
            "loss_prox_end": end[2],
            "epoch_losses": result["epoch_losses"],
            "epoch_grad_norms": result["epoch_grad_norms"],
            "rep_norm_max": rep_norm_max,
            "probe": probe.record() if probe else None,
        },
    }


def _reference_norm(reference: Payload, round_index: int) -> float:
    """||Kbar||_F of a kernel reference, ||phibar||_F of a representation
    one; an overflow is a NumericalFailureError naming the round."""
    try:
        with np.errstate(all="ignore"):
            norm = (reference.norm if isinstance(reference, GramMatrix)
                    else float(np.linalg.norm(reference)))
        return check_finite(norm, "reference norm")
    except NumericalFailureError as exc:
        raise exc.within(f"round {round_index}") from exc


def _swap_eval(
    client_id: int,
    phi: Matrix,
    loss_ssl_end: float,
    new_reference: Payload,
    cfg: FedConfig,
    round_index: int,
) -> Tuple[float, float, float]:
    """End-of-round losses against the next round's reference, weights held
    fixed. The regression loss does not depend on the reference, so it is
    the end loss; the penalty is taken on the uploaded representations."""
    with _client_work(client_id, round_index):
        prox = check_finite(proximal_value(phi, new_reference, cfg.proximal_form, cfg.mu),
                            "swap penalty")
        return loss_ssl_end + prox, loss_ssl_end, prox


def init_models(cfg: FedConfig) -> List[ClientModel]:
    models = []
    for k, spec in enumerate(cfg.client_specs):
        rng = RngStream(cfg.seed, client=k, purpose="init")
        models.append(sslnet.init_client_model(spec, cfg.tau, rng))
    return models


def check_input_widths(specs: Sequence[MlpSpec], dim: int) -> None:
    """Every encoder reads rows of width ``dim``; a ConfigError names the
    first client whose encoder does not."""
    for k, spec in enumerate(specs):
        if spec.input_width != dim:
            raise ConfigError(f"client {k}: encoder input width {spec.input_width} "
                              f"!= dataset width {dim}")


def prepare_data(cfg: FedConfig, data: Dataset) -> Tuple[Matrix, PartitionPlan]:
    """The alignment rows and the client shards. The alignment rows are
    reserved in ``data``, so a dataset serves one call only."""
    if data.reserved:
        raise ConfigError(f"the dataset already has {len(data.reserved)} rows reserved "
                          "by an earlier run; load or build it afresh for each run")
    check_input_widths(cfg.client_specs, data.dim)
    root = RngStream(cfg.seed)
    rad = sample_rad(data, cfg.rad_size, root.with_purpose("rad"))
    if cfg.rad_shift != 0.0:
        # constant offset: alignment rows come from a mean-shifted version
        # of the pool distribution, to probe sensitivity to the choice
        rad = rad + cfg.rad_shift
    if cfg.partition == "noniid":
        plan = partition_noniid(data, cfg.num_clients, root.with_purpose("partition"))
    else:
        plan = partition_iid(data, cfg.num_clients, root.with_purpose("partition"))
    return rad, plan


class _LogWriter:
    """Appends records to the log after cutting it to its first ``keep``
    lines; any later line, a torn one included, is of a round run again."""

    def __init__(self, path: Optional[str], keep: int):
        self.path = path
        if not path:
            return
        kept = []
        if keep and os.path.exists(path):
            with open(path, "rb") as fh:
                kept = list(itertools.islice(fh, keep))
        if len(kept) < keep or (kept and not kept[-1].endswith(b"\n")):
            raise ConfigError(f"{path} holds fewer than the {keep} records "
                              "the checkpoint was taken after")
        with open(path, "wb") as fh:
            fh.writelines(kept)

    def write(self, records: Sequence[dict]) -> None:
        if not self.path:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            for r in records:
                fh.write(_jsonl_line(r))


def _save_checkpoint(
    directory: str,
    round_index: int,
    models: Sequence[ClientModel],
    registry: Dict[int, Payload],
    cfg: FedConfig,
) -> None:
    arrays = {f"upload_{k}": _held(p) for k, p in sorted(registry.items())}
    for k, m in enumerate(models):
        arrays.update((f"client_{k}/{name}", a) for name, a in sslnet.model_arrays(m).items())
    os.makedirs(directory, exist_ok=True)
    save_arrays(os.path.join(directory, CHECKPOINT_FILE), arrays,
                {"round": round_index, "config": cfg.to_dict()})


def load_checkpoint(directory: str, cfg: FedConfig) -> Tuple[int, List[ClientModel], Dict[int, Payload]]:
    path = os.path.join(directory, CHECKPOINT_FILE)
    state, arrays = load_arrays(path)
    if state.get("config") != cfg.to_dict():
        raise ConfigError("checkpoint was produced by a different configuration")
    models = [sslnet.model_from_arrays(spec, cfg.tau, {
        name.split("/", 1)[1]: a for name, a in arrays.items() if name.startswith(f"client_{k}/")
    }, source=f"{path}, client {k}") for k, spec in enumerate(cfg.client_specs)]
    registry: Dict[int, Payload] = {}
    for k in range(cfg.num_clients):
        held = arrays.get(f"upload_{k}")
        if held is None or held.ndim != 2 or held.shape[0] != cfg.rad_size:
            raise ParseError(f"{path}: entry 'upload_{k}' is missing or does not have "
                             f"{cfg.rad_size} rows")
        if cfg.payload_kind == KERNEL and held.shape[1] > cfg.rad_size:
            raise ParseError(f"{path}: entry 'upload_{k}' has {held.shape[1]} columns, "
                             f"more than a kernel factor's {cfg.rad_size}")
        registry[k] = GramMatrix(held) if cfg.payload_kind == KERNEL else held
    return as_int(state.get("round"), f"{path} round"), models, registry


def run_training(
    cfg: FedConfig,
    data: Dataset,
    workers: int = 1,
    log_path: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    stop_after_round: Optional[int] = None,
) -> RunResult:
    """Execute the full protocol for cfg.rounds global rounds.

    With ``checkpoint_dir`` set, a resumable checkpoint is written after
    every completed round; ``resume=True`` continues from the last one.
    ``stop_after_round`` ends the loop early (used to exercise resume).
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    rad, plan = prepare_data(cfg, data)
    shards = [data.features[list(idx)] for idx in plan.client_indices]
    for k, shard in enumerate(shards):
        if shard.shape[0] == 0:
            raise ConfigError(f"client {k} received an empty shard")

    log = RoundLog()
    start_round = 0
    if resume:
        if not checkpoint_dir:
            raise ConfigError("resume requires a checkpoint directory")
        start_round, models, registry = load_checkpoint(checkpoint_dir, cfg)
    else:
        models = init_models(cfg)
        registry = {}
    # the bootstrap record, then S client records and a server record a round
    writer = _LogWriter(log_path, keep=1 + start_round * (cfg.sample_size + 1) if resume else 0)

    server = ServerState(round=start_round, registry=registry)
    if cfg.rounds == 0:
        return RunResult(models, log, rad, plan, server)

    # The clients' copy of the alignment rows. It is booked as sent only at
    # bootstrap; a resumed leg rebuilds it from the seed and the data.
    rad_rows, rad_bytes = _transmit(rad)
    weights = list(cfg.client_weights)
    if start_round == 0:
        boot_bytes = []
        for k in range(cfg.num_clients):
            log.messages.append(RoundMessage("server->client", 0, k, "rad", rad_bytes))
            with _client_work(k, 0):
                registry[k], nbytes, _ = _upload(models[k], rad_rows, cfg)
            boot_bytes.append(nbytes)
            log.messages.append(RoundMessage("client->server", 0, k, cfg.payload_kind, nbytes))
        record = {
            "type": "server",
            "round": 0,
            "selected": list(range(cfg.num_clients)),
            "bootstrap_downstream_bytes": [rad_bytes] * cfg.num_clients,
            "bootstrap_payload_bytes": boot_bytes,
        }
        log.records.append(record)
        writer.write([record])
    server.reference = server_aggregate([], weights, registry)
    received_ref, ref_bytes = _transmit(server.reference)

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for t in range(start_round + 1, cfg.rounds + 1):
            selected = select_clients(
                cfg.num_clients, cfg.sample_size, t, RngStream(cfg.seed)
            )
            for k in selected:
                log.messages.append(RoundMessage("server->client", t, k, "reference", ref_bytes))

            def task(k: int) -> dict:
                t0 = time.perf_counter()
                out = _train_one_client(k, models[k], shards[k], rad_rows, received_ref, cfg, t)
                out["wall"] = time.perf_counter() - t0
                return out

            # selected is ascending and map keeps its order, so outs is in
            # client order whatever the worker count.
            outs = list(pool.map(task, selected))
            reports = []
            for out in outs:
                k = out["client"]
                models[k] = out["model"]
                nbytes = out["upload_bytes"]
                reports.append((k, out["payload"]))
                out["record"]["downstream_bytes"] = ref_bytes
                out["record"]["upstream_bytes"] = nbytes
                log.messages.append(
                    RoundMessage("client->server", t, k, cfg.payload_kind, nbytes))
                log.timings[(t, k)] = out["wall"]

            # The new reference scores this round's clients, then serves as
            # the next round's reference.
            reference = server_aggregate(reports, weights, registry)
            received_ref, ref_bytes = _transmit(reference)

            new_records = []
            for out in outs:
                rec = out["record"]
                rec["loss_total_swap"], rec["loss_ssl_swap"], rec["loss_prox_swap"] = _swap_eval(
                    out["client"], out["phi"], rec["loss_ssl_end"], received_ref, cfg, t)
                new_records.append(rec)
            server_record = {
                "type": "server",
                "round": t,
                "selected": selected,
                "reference_norm": _reference_norm(reference, t),
            }
            new_records.append(server_record)
            log.records.extend(new_records)
            writer.write(new_records)

            server.round = t
            server.reference = reference
            if checkpoint_dir:
                _save_checkpoint(checkpoint_dir, t, models, registry, cfg)
            if stop_after_round is not None and t >= stop_after_round:
                break
    finally:
        pool.shutdown(cancel_futures=True)

    return RunResult(models, log, rad, plan, server)


def standalone_training(
    cfg: FedConfig, data: Dataset, client_id: int
) -> ClientModel:
    """Local-only training for one client: same shard, same streams, no
    reference and no proximal branch. With mu == 0 the federated run must
    produce bit-identical weights to this path."""
    _, plan = prepare_data(cfg, data)
    shard = data.features[list(plan.client_indices[client_id])]
    model = init_models(cfg)[client_id]
    crng = RngStream(cfg.seed, client=client_id)
    obj = _client_objective(cfg, 0.0, None, None)
    for t in range(1, cfg.rounds + 1):
        result = local_training(model, shard, obj, cfg, t, crng)
        model = result["model"]
    return model
