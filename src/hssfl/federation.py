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

Each reference is aggregated once: before round 1, from the bootstrap
uploads or the loaded checkpoint, and at the end of every round. Kernels
travel and are stored as exact factors (``cka.GramMatrix``): an upload is the
canonical lower-trapezoidal L x min(d_k, L) factor T_k, the reference the
L x min(D, L) factor [sqrt(w_1) T_1, ...] with D = sum_k min(d_k, L), so a
round sends O(L d_k) up per client and O(L D) down. A client never receives
columns it holds (see ``_send_reference``). A kernel factor travels as the
L w - w (w - 1) / 2 entries on and below its diagonal (``cka.pack_factor``),
unpacked with the width the receiver knows from the config.
Payloads cross a real serialization boundary though transport is
in-process: every array sent (the alignment rows, each client's reference,
client uploads) is encoded as npy, counted, decoded by ``numkit.decode_npy``
and checked for its shape and for finiteness once. One atomically replaced
``checkpoint.npz`` holds each round's client tensors and uploads
(``upload_k``, as held); a resume cuts ``log.jsonl`` back to the rounds it
holds, so a run killed at any point resumes to the uninterrupted result.
The rounds run with OpenBLAS held to one thread
(``numkit.one_blas_thread``), whatever the worker count: that is
process-wide state, given back when ``run_training`` returns or raises. All
randomness flows through value-like streams keyed by (seed, client, round,
epoch, purpose), so runs are bit-reproducible whatever the worker count.
Wall-clock timings never enter the round log, which stays byte-comparable
across machines and worker counts. With ``theory_probes`` set, a
``theory.RoundProbe`` watches each client round through the epoch hook and
fills its ``probe`` entry. A client's local epoch draws all its views and
runs the target branch once, before its steps: the views never depend on
the model, and the target changes only at the EMA update that ends the
epoch (see ``sslnet``). Every view of a client round comes from
``_draw_client_round``.

With one worker the round's clients train in order in the calling process.
Forked children (``_Child``) take part of that work, each on the state it
inherits, and send back pickled messages, so the bits do not change. The
view producer (``_ViewProducer``), forked once per ``run_training`` call
where one worker leaves a second CPU free and the views are not the rows
themselves (``_use_producer``), runs ``_draw_client_round`` one client round
ahead of the training, into two shared slots of 2 (E + 1) rows dim 8 bytes
for the largest shard's rows: about 2.3 MB in all at desk shape and 6 MB at
paper shape. Each client round takes its views as an argument, from the
producer or drawn in the process that trains it. With ``k >= 2`` workers,
``min(k, S) - 1`` client workers, forked each round after the reference is
aggregated (``_train_clients``), and the parent each train a fixed
contiguous share of the S selected clients. A child's failure is raised in
the parent as the in-process path raises it, one that ends without what it
owed is a ProtocolError naming it, and each is killed and reaped before the
call that forked it returns or raises. Where no process can be forked, the
work runs in the calling process.

Inputs are checked once, where they enter: ``FedConfig`` checks every number,
the weights, the form and, under l2_rep, that the clients share one
representation width; ``_transmit`` and ``server_aggregate`` check what
crosses the wire and ``load_checkpoint`` the file. ``select_clients``, the
objective, the aggregates and the proximal terms trust those checks.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import mmap
import os
import pickle
import signal
import time
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import sslnet, theory
from .cka import (
    GramMatrix,
    ProximalForm,
    aggregate_grams,
    aggregate_representations,
    canonical_factor,
    gram_linear,
    pack_factor,
    packed_size,
    proximal_value,
    unpack_factor,
)
from .datahub import Dataset, PartitionPlan, partition_iid, partition_noniid, sample_rad
from .errors import (ConfigError, NumericalFailureError, ParseError, ProtocolError, ShapeError,
                     UnsupportedCombinationError)
from .numkit import (
    Matrix,
    RngStream,
    as_int,
    check_finite,
    decode_npy,
    load_arrays,
    one_blas_thread,
    save_arrays,
)
from .sslnet import AugmentConfig, ClientModel, MlpSpec

KERNEL = "kernel"
REPRESENTATION = "representation"
CHECKPOINT_FILE = "checkpoint.npz"
WEIGHT_SUM_TOL = 1e-9


# Integral config fields: a bool or a non-integral number is refused, and an
# integral float is stored as an int, so to_dict() round-trips.
_INT_FIELDS = ("num_clients", "rounds", "local_epochs", "batch_size", "rad_size",
               "seed", "sample_size")


def _check_weights(weights: Sequence[float]) -> None:
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ConfigError("weights must be finite")
    if np.any(w < 0):
        raise ConfigError("weights must be nonnegative")
    total = float(np.sum(w, initial=0.0))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"weights must sum to 1, got {total!r}")


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
        form = self.proximal_form
        try:
            form = ProximalForm(form.lower() if isinstance(form, str) else form)
        except ValueError:
            valid = ", ".join(f.value for f in ProximalForm)
            raise ConfigError(f"unknown proximal form {form!r}; expected one of {valid}") from None
        object.__setattr__(self, "proximal_form", form)
        widths = sorted({s.output_width for s in self.client_specs})
        if form is ProximalForm.L2_REP and len(widths) > 1:
            raise UnsupportedCombinationError(
                f"proximal form l2_rep needs one representation width, got {widths}; "
                "use a kernel form for encoders of different widths")
        if (self.proximal_form is ProximalForm.TRACE_ALIGNMENT and self.mu > 0
                and self.clip_radius is None):
            raise ConfigError("proximal form trace_alignment with mu > 0 needs a clip "
                              "radius (--clip-radius): its penalty is unbounded and "
                              "training diverges without one")
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

    @cached_property
    def upload_widths(self) -> Tuple[int, ...]:
        """The columns of each client's upload as it is held: its
        representation width, capped at L for a kernel factor (see cka)."""
        widths = tuple(s.output_width for s in self.client_specs)
        if self.payload_kind != KERNEL:
            return widths
        return tuple(min(w, self.rad_size) for w in widths)

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
    timings: Dict[Tuple[int, int], float] = field(default_factory=dict, compare=False)

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
    """Uniform sample without replacement, ascending, fixed per (seed, round);
    FedConfig keeps sample_size in [1, num_clients]. The server calls it
    once a round; the view producer walks the schedule with it."""
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


def _transmit(payload: Payload, shape: Tuple[int, int]) -> Tuple[Payload, int]:
    """Encode as npy, count bytes, decode: the receiver's copy and the wire
    size. A kernel travels as its packed factor; ``shape`` is the shape of
    the held array, which the receiver knows from the config. The received
    array is checked for finiteness here, so a received factor needs no
    other check."""
    kernel = isinstance(payload, GramMatrix)
    wire = io.BytesIO()
    np.save(wire, pack_factor(payload) if kernel else np.ascontiguousarray(payload),
            allow_pickle=False)
    nbytes = wire.tell()
    try:
        data = decode_npy(wire.getbuffer(), (packed_size(*shape),) if kernel else shape)
    except ValueError as exc:
        raise ProtocolError(f"received payload {exc}") from None
    if not np.isfinite(data).all():
        raise ShapeError("received payload contains non-finite entries")
    return (unpack_factor(data, *shape) if kernel else data), nbytes


def _send_reference(
    reference: Payload, registry: Dict[int, Payload], client_id: int, cfg: FedConfig
) -> Tuple[Payload, int]:
    """Client ``client_id``'s copy of the reference and its wire size.

    An uncapped kernel reference of two or more clients does not travel:
    the client receives the canonical factor of the other clients' kernel,
    built from their blocks sqrt(w_j) T_j in the registry, and puts its own
    block sqrt(w_k) T_k, its last upload, after it. The copy is then a
    factor of the server's kernel, equal to it up to roundoff. A capped
    reference, a one-client one (both lower-trapezoidal already) and a
    representation reference travel whole."""
    widths = cfg.upload_widths
    if cfg.payload_kind != KERNEL:
        return _transmit(reference, (cfg.rad_size, widths[0]))
    if cfg.num_clients == 1 or sum(widths) > cfg.rad_size:
        return _transmit(reference, (cfg.rad_size, min(sum(widths), cfg.rad_size)))
    weights = cfg.client_weights
    others = canonical_factor(np.concatenate(
        [np.sqrt(weights[j]) * registry[j].data for j in range(cfg.num_clients)
         if j != client_id], axis=1))
    received, nbytes = _transmit(others, (cfg.rad_size, sum(widths) - widths[client_id]))
    own = np.sqrt(weights[client_id]) * registry[client_id].data
    return GramMatrix(np.concatenate([received.data, own], axis=1)), nbytes


def _upload(
    model: ClientModel, rad: Matrix, cfg: FedConfig, client_id: int
) -> Tuple[Payload, int, Matrix]:
    """The client's alignment payload as the server receives it, its wire
    size, and the representations it was built from. Run it inside
    ``_numerics``, which names the client of a numerical failure."""
    phi = check_finite(sslnet.representations(model, rad, clip_radius=cfg.clip_radius),
                       "representations")
    payload = gram_linear(phi) if cfg.payload_kind == KERNEL else phi
    received, nbytes = _transmit(payload, (cfg.rad_size, cfg.upload_widths[client_id]))
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


ViewPair = Tuple[Matrix, Matrix]


def _epoch_views(shard: Matrix, cfg: FedConfig, rng: RngStream,
                 round_index: int) -> Iterator[ViewPair]:
    """Each local epoch's view pair, drawn as it is iterated: the shard's
    rows in the epoch's batch order, each batch's block from its step's
    stream. ``rng`` is the client's stream."""
    for epoch in range(cfg.local_epochs):
        erng = rng.child(round=round_index, epoch=epoch)
        batches = _epoch_batches(shard.shape[0], cfg.batch_size, erng.sub("order"))
        yield sslnet.objective_views(
            shard[np.concatenate(batches)], cfg.augment_cfg,
            *(erng.sub(f"step{b}") for b in range(len(batches))), block=cfg.batch_size)


def _draw_client_round(shard: Matrix, cfg: FedConfig, client: int,
                       round_index: int) -> Tuple[ViewPair, Iterable[ViewPair]]:
    """Every view one client round scores: the evaluation pair, on which its
    start and end losses are taken, then each epoch's pair. No view depends
    on a model, so they can be drawn anywhere, ahead of training (see
    ``_ViewProducer``); drawn here, the epochs' pairs come as iterated."""
    crng = RngStream(cfg.seed, client=client)
    evals = sslnet.objective_views(shard, cfg.augment_cfg,
                                   crng.child(round=round_index, purpose="eval"))
    return evals, _epoch_views(shard, cfg, crng, round_index)


def local_training(
    model: ClientModel,
    obj: sslnet.Objective,
    cfg: FedConfig,
    epochs: Iterable[ViewPair],
    epoch_hook=None,
) -> dict:
    """E local epochs against a fixed reference: minibatch steps, then one
    EMA update per epoch. Returns the updated model with per-epoch mean
    losses and gradient norms. ``epochs`` are the epochs' view pairs, as
    ``_epoch_views`` draws them. ``epoch_hook(epoch, model)``, when given, is
    called after each epoch; it must not mutate the model (used for theory
    probes, which draw from their own streams). Each epoch runs the target
    branch once; each step takes its batch's rows."""
    epoch_losses: List[float] = []
    epoch_grad_norms: List[float] = []
    size = cfg.batch_size
    for epoch, views in enumerate(epochs):
        losses, norms, b = [], [], 0
        try:  # the epoch's targets are taken before batch 0, so a failure names it
            targets = sslnet.target_rows(model, views, obj)
            for b in range(-(-views[0].shape[0] // size)):
                rows = slice(b * size, (b + 1) * size)
                step = sslnet.combined_step(model, tuple(v[rows] for v in views),
                                            tuple(t[rows] for t in targets), obj,
                                            cfg.eta, cfg.momentum)
                model = step.model
                losses.append(step.loss_total)
                norms.append(step.grad_norm)
        except NumericalFailureError as exc:
            raise exc.within(f"epoch {epoch} batch {b}") from exc
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
def _numerics(where: str):
    """Numerics whose failure is checked: numpy float warnings are silenced,
    since the finiteness checks raise NumericalFailureError instead, and
    that error is tagged with ``where``."""
    try:
        with np.errstate(all="ignore"):
            yield
    except NumericalFailureError as exc:
        raise exc.within(where) from exc


def _train_one_client(
    client_id: int,
    model: ClientModel,
    shard: Matrix,
    rad: Matrix,
    reference: Payload,
    cfg: FedConfig,
    round_index: int,
    draws: Tuple[ViewPair, Iterable[ViewPair]],
) -> dict:
    """Full client-side work for one round; a pure function of what it is
    given, so any process forked with that state can run it. ``draws`` is
    the round's ``_draw_client_round``. The returned payload is the server's
    decoded copy of the upload, with its wire size; ``phi`` is the
    representations it was built from."""
    obj = _client_objective(cfg, cfg.mu, rad, reference)
    views, epochs = draws  # start and end are scored on one view pair
    probe = None
    with _numerics(f"client {client_id} round {round_index}"):
        start = sslnet.combined_loss(model, views, obj)
        if cfg.theory_probes:
            rrng = RngStream(cfg.seed, client=client_id).child(round=round_index)
            probe = theory.RoundProbe(model, shard, obj, rrng, _epoch_batches(
                shard.shape[0], cfg.batch_size, rrng.sub("order")))
        result = local_training(model, obj, cfg, epochs,
                                epoch_hook=probe.after_epoch if probe else None)
        model = result["model"]
        end = sslnet.combined_loss(model, views, obj)
        upload, upload_bytes, phi = _upload(model, rad, cfg, client_id)
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
    with _numerics(f"round {round_index}"):
        norm = (reference.norm if isinstance(reference, GramMatrix)
                else float(np.linalg.norm(reference)))
        return check_finite(norm, "reference norm")


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
    with _numerics(f"client {client_id} round {round_index}"):
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
    reserved in ``data``, so a dataset serves one call only. Every refusal
    of the data, an empty shard included, is raised here."""
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
    for k, idx in enumerate(plan.client_indices):
        if len(idx) == 0:
            raise ConfigError(f"client {k} received an empty shard")
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


def _save_checkpoint(directory: str, round_index: int, models: Sequence[ClientModel],
                     registry: Dict[int, Payload], cfg: FedConfig) -> None:
    arrays = {f"upload_{k}": p.data if isinstance(p, GramMatrix) else p
              for k, p in sorted(registry.items())}
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
    round_index = as_int(state.get("round"), f"{path} round")
    if not 1 <= round_index <= cfg.rounds:
        raise ParseError(f"{path}: round {round_index} is outside 1..{cfg.rounds}")
    models = [sslnet.model_from_arrays(spec, cfg.tau, {
        name.split("/", 1)[1]: a for name, a in arrays.items() if name.startswith(f"client_{k}/")
    }, source=f"{path}, client {k}") for k, spec in enumerate(cfg.client_specs)]
    registry: Dict[int, Payload] = {}
    for k in range(cfg.num_clients):
        held = arrays.get(f"upload_{k}")
        if held is None or held.ndim != 2 or held.shape[0] != cfg.rad_size:
            raise ParseError(f"{path}: entry 'upload_{k}' is missing or does not have "
                             f"{cfg.rad_size} rows")
        # the receivers of the reference unpack it with these widths
        width = cfg.upload_widths[k]
        if held.shape[1] != width:
            raise ParseError(f"{path}: entry 'upload_{k}' has {held.shape[1]} columns, "
                             f"not the {width} of client {k}'s upload")
        if cfg.payload_kind == KERNEL and np.triu(held[:width], 1).any():
            raise ParseError(f"{path}: entry 'upload_{k}' has nonzeros above its diagonal, "
                             "so it is not the lower-trapezoidal factor an upload is")
        registry[k] = GramMatrix(held) if cfg.payload_kind == KERNEL else held
    return round_index, models, registry


def _use_producer(cfg: FedConfig, workers: int) -> bool:
    """Whether a run draws its views in a ``_ViewProducer``: where one
    worker trains, a process can fork, a second CPU is free to draw, and the
    views are not the rows themselves."""
    return (workers == 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and not cfg.augment_cfg.is_identity)


class _Child:
    """A forked child that runs ``work(channel, *args)`` on the state it
    inherits and exits, never returning into the caller's code. This object
    is the channel: ``send`` and ``recv`` carry pickled messages on two
    pipes, one each way. The child sends a failure of ``work`` as its last
    message, and ends when its parent's end of the channel is gone; it
    closes the parent's ends of its live ``siblings``' channels, so that
    each sees its parent go. ``close`` kills and reaps it."""

    def __init__(self, role: str, work, *args, siblings: Sequence["_Child"] = ()):
        self.role = role
        fds: List[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        down_r, down_w, up_r, up_w = fds
        if self.pid == 0:
            self._serve(down_r, up_w, [down_w, up_r], siblings, work, args)
        os.close(down_r)
        os.close(up_w)
        self._in, self._out = open(up_r, "rb"), open(down_w, "wb")
        self._status: Optional[int] = None

    def _serve(self, read: int, write: int, parents: List[int],
               siblings: Sequence["_Child"], work, args) -> None:
        """The child: run ``work``, send its failure, exit; never returns."""
        status = 1
        try:
            gc.freeze()  # the parent's garbage, open files included, is the parent's
            for sibling in siblings:
                parents += (sibling._in.fileno(), sibling._out.fileno())
            for fd in parents:
                os.close(fd)
            self._in, self._out = open(read, "rb"), open(write, "wb")
            try:
                work(self, *args)
            except BaseException as exc:  # sent, not raised: the child never returns
                try:
                    pickle.loads(pickle.dumps(exc))  # one that cannot be rebuilt goes as text
                except Exception:
                    exc = ProtocolError(f"{self.role} (pid {os.getpid()}) failed: "
                                        f"{type(exc).__name__}: {exc}")
                self.send(exc)
            status = 0
        finally:  # a parent that is gone ends the child here, by a broken pipe
            os._exit(status)

    def send(self, message) -> None:
        """Pickle ``message`` to the other end. In the parent, a message to a
        child that has ended is dropped; the next ``recv`` says so."""
        try:
            self._out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            self._out.flush()
        except BrokenPipeError:
            if self.pid == 0:
                raise

    def recv(self, owed: str = "message"):
        """The next message from the other end. In the parent, a failure the
        child sent is raised, and a channel that ends first is a
        ProtocolError naming ``owed``."""
        try:
            message = pickle.load(self._in)
        except (EOFError, pickle.UnpicklingError):
            if self.pid == 0:  # the parent is gone
                raise
            raise ProtocolError(f"{self.role} (pid {self.pid}) ended with exit code "
                                f"{self._reap()} and no {owed}") from None
        if isinstance(message, BaseException):  # the child's failure
            raise message
        return message

    def _reap(self) -> int:
        """The child's exit code, once it has ended."""
        if self._status is None:
            self._status = os.waitpid(self.pid, 0)[1]
        return os.waitstatus_to_exitcode(self._status)

    def close(self) -> None:
        """Close the parent's ends of the channel, then kill and reap the
        child, which may still be running."""
        self._in.close()
        with suppress(BrokenPipeError):  # a message the ended child never read
            self._out.close()
        if self._status is None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()


class _ViewProducer:
    """The view producer, a ``_Child``, and the parent's side of it. The
    child walks the leg's schedule, rounds and then selected clients in
    ascending order, draws client round ``i`` into slot ``i % 2`` of an
    anonymous shared map and sends ``(i, round, client)``; before it fills a
    slot again it reads the parent's release of the client round before.
    The parent takes the client rounds in order (``take``), so taking one
    releases the one before. The child calls no BLAS, and it copies the
    parent's memory, shards and config included, only as the parent writes
    it."""

    _slots = 2

    def __init__(self, shards: Sequence[Matrix], cfg: FedConfig, first_round: int,
                 last_round: int):
        self._shards = shards
        self._pairs = cfg.local_epochs + 1
        self._slot_bytes = 2 * self._pairs * max(s.nbytes for s in shards)
        self._map = mmap.mmap(-1, self._slots * self._slot_bytes)
        self._next = 0
        self._child = _Child("view producer", self._draw, cfg, first_round, last_round)

    def _slot(self, task: int, client: int) -> np.ndarray:
        """Client round ``task``'s slot as (pair, view, row, column)."""
        shape = self._shards[client].shape
        return np.frombuffer(self._map, np.float64, 2 * self._pairs * shape[0] * shape[1],
                             (task % self._slots) * self._slot_bytes
                             ).reshape(self._pairs, 2, *shape)

    def _draw(self, channel: _Child, cfg: FedConfig, first_round: int,
              last_round: int) -> None:
        """The child's work: fill the slots in schedule order."""
        rng = RngStream(cfg.seed)
        schedule = ((t, k) for t in range(first_round, last_round + 1)
                    for k in select_clients(cfg.num_clients, cfg.sample_size, t, rng))
        for task, (t, k) in enumerate(schedule):
            if task >= self._slots:
                channel.recv()  # the release of client round task - 2
            evals, epochs = _draw_client_round(self._shards[k], cfg, k, t)
            slot = self._slot(task, k)
            for pair, views in enumerate(itertools.chain([evals], epochs)):
                slot[pair, 0], slot[pair, 1] = views
            channel.send((task, t, k))

    def take(self, round_index: int, client: int) -> Tuple[ViewPair, List[ViewPair]]:
        """The next client round's draws, once the child has drawn them, as
        read-only views of its slot. The client round before, whose views
        are no longer read, is released."""
        task = self._next
        if task:
            self._child.send(task - 1)
        got = self._child.recv(f"views for client {client} of round {round_index}")
        if got != (task, round_index, client):
            raise ProtocolError(f"{self._child.role} (pid {self._child.pid}) sent client "
                                f"round {got} for {(task, round_index, client)}")
        self._next += 1
        slot = self._slot(task, client)
        slot.flags.writeable = False
        pairs = [tuple(pair) for pair in slot]
        return pairs[0], pairs[1:]

    def close(self) -> None:
        self._child.close()


def _train_share(channel: _Child, task, share: Sequence[int], parent: int) -> None:
    """A client worker's work: train ``share`` with the round's ``task`` and
    send the results, checking before each client round that the parent
    lives."""
    outs = []
    for k in share:
        if os.getppid() != parent:
            return
        outs.append(task(k))
    channel.send(outs)


def _train_clients(task, clients: Sequence[int], workers: int,
                   round_index: int) -> List[dict]:
    """``[task(k) for k in clients]``. With ``n = min(workers, len(clients))
    >= 2`` where a process can fork, the clients are cut into n contiguous
    shares: the caller trains the first while n - 1 client workers
    (``_train_share``) train the rest. The caller then gathers the children's
    shares in order, so the first failure in client order is the one raised,
    as at one worker. The caller trains the shares it could fork no child for
    after the others. Every child is reaped before this returns or raises."""
    n = min(workers, len(clients))
    if n < 2 or not hasattr(os, "fork"):
        return [task(k) for k in clients]
    # ceil(i m / n): the caller's share is the largest (wide_rad rounds ran
    # 5-20% shorter than with the caller's share the smallest)
    bounds = [(i * len(clients) + n - 1) // n for i in range(n + 1)]
    shares = [clients[a:b] for a, b in zip(bounds, bounds[1:])]
    children: List[_Child] = []
    try:
        try:
            for share in shares[1:]:
                children.append(_Child("client worker", _train_share, task, share,
                                       os.getpid(), siblings=children))
        except OSError:  # no process to spare
            pass
        outs = [task(k) for k in shares[0]]
        for child, share in zip(children, shares[1:]):
            outs += child.recv(f"result for clients {share} of round {round_index}")
        return outs + [task(k) for share in shares[1 + len(children):] for k in share]
    finally:
        for child in children:
            child.close()


def run_training(
    cfg: FedConfig,
    data: Dataset,
    workers: int = 1,
    log_path: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    stop_after_round: Optional[int] = None,
) -> RunResult:
    """Execute the full protocol for cfg.rounds global rounds; up to
    ``workers`` processes train each round's clients (``_train_clients``).

    With ``checkpoint_dir`` set, a resumable checkpoint is written after
    every completed round; ``resume=True`` continues from the last one.
    ``stop_after_round`` (at least 1) ends the run after that round; a leg
    resumed at or past it runs no round and returns the loaded state.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    last_round = cfg.rounds
    if stop_after_round is not None:
        if stop_after_round < 1:
            raise ConfigError(f"stop_after_round must be >= 1, got {stop_after_round}")
        last_round = min(last_round, stop_after_round)
    rad, plan = prepare_data(cfg, data)
    shards = [data.features[list(idx)] for idx in plan.client_indices]

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
    rad_rows, rad_bytes = _transmit(rad, (cfg.rad_size, data.dim))
    weights = list(cfg.client_weights)
    if start_round == 0:
        boot_bytes = []
        for k in range(cfg.num_clients):
            log.messages.append(RoundMessage("server->client", 0, k, "rad", rad_bytes))
            with _numerics(f"client {k} round 0"):
                registry[k], nbytes, _ = _upload(models[k], rad_rows, cfg, k)
            boot_bytes.append(nbytes)
            log.messages.append(RoundMessage("client->server", 0, k, cfg.payload_kind, nbytes))
        record = {"type": "server", "round": 0, "selected": list(range(cfg.num_clients)),
                  "bootstrap_downstream_bytes": [rad_bytes] * cfg.num_clients,
                  "bootstrap_payload_bytes": boot_bytes}
        log.records.append(record)
        writer.write([record])
    server.reference = server_aggregate([], weights, registry)

    # The rounds run on one BLAS thread, whatever the worker count, so no
    # bit depends on it: on two threads OpenBLAS splits the inner sums of
    # some products (paper shape's 5,200-row weight gradients). One thread
    # is also what lets a round's processes share the CPUs; where it cannot
    # be held, the clients train in this process. The count is set before
    # any fork, since setting it after one restarts OpenBLAS's thread pool,
    # whose new thread spins for about 0.1 s.
    producer = None
    with one_blas_thread() as held:
        try:
            for t in range(start_round + 1, last_round + 1):
                selected = select_clients(
                    cfg.num_clients, cfg.sample_size, t, RngStream(cfg.seed)
                )
                if t == start_round + 1 and _use_producer(cfg, workers):
                    try:
                        producer = _ViewProducer(shards, cfg, t, last_round)
                    except OSError:  # no process to spare: the views are drawn in the tasks
                        pass

                def task(k: int) -> dict:
                    # the views and the client's copy of the reference are
                    # made in the process that trains it
                    t0 = time.perf_counter()
                    draws = (_draw_client_round(shards[k], cfg, k, t) if producer is None
                             else producer.take(t, k))
                    reference, down = _send_reference(server.reference, registry, k, cfg)
                    out = _train_one_client(k, models[k], shards[k], rad_rows, reference, cfg, t,
                                            draws)
                    out["record"]["downstream_bytes"] = down
                    out["wall"] = time.perf_counter() - t0
                    return out

                # selected is ascending and _train_clients keeps its order,
                # so outs is in client order whatever the worker count. The
                # producer serves this process only.
                outs = _train_clients(task, selected,
                                      workers if held and producer is None else 1, t)
                reports = []
                for out in outs:
                    k = out["client"]
                    models[k] = out["model"]
                    nbytes = out["upload_bytes"]
                    reports.append((k, out["payload"]))
                    out["record"]["upstream_bytes"] = nbytes
                    log.messages.append(RoundMessage("server->client", t, k, "reference",
                                                     out["record"]["downstream_bytes"]))
                    log.messages.append(
                        RoundMessage("client->server", t, k, cfg.payload_kind, nbytes))
                    log.timings[(t, k)] = out["wall"]

                # The new reference scores this round's clients, then serves as
                # the next round's reference. Each client's copy has its bits, so
                # the server scores against its own.
                server.reference = server_aggregate(reports, weights, registry)

                new_records = []
                for out in outs:
                    rec = out["record"]
                    (rec["loss_total_swap"], rec["loss_ssl_swap"],
                     rec["loss_prox_swap"]) = _swap_eval(out["client"], out["phi"],
                                                         rec["loss_ssl_end"], server.reference,
                                                         cfg, t)
                    new_records.append(rec)
                server_record = {
                    "type": "server",
                    "round": t,
                    "selected": selected,
                    "reference_norm": _reference_norm(server.reference, t),
                }
                new_records.append(server_record)
                log.records.extend(new_records)
                writer.write(new_records)

                server.round = t
                if checkpoint_dir:
                    _save_checkpoint(checkpoint_dir, t, models, registry, cfg)
        finally:
            if producer is not None:
                producer.close()

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
    with one_blas_thread():  # as run_training's client rounds
        for t in range(1, cfg.rounds + 1):
            model = local_training(model, obj, cfg, _epoch_views(shard, cfg, crng, t))["model"]
    return model
