"""Per-client non-contrastive self-supervised networks with manual backprop.

Each client owns an online branch (MLP encoder plus a single affine
predictor) and a target branch (encoder of identical shape, updated only by
exponential moving average, never by gradients). Training minimizes the
mean squared error between the online branch's output on one view and the
target branch's output on a second view, optionally plus a mu-weighted
proximal penalty coupling the client's representations of a shared
alignment batch to a fixed reference received from the server.

All models are updated functionally: operations return new ClientModel
values and never write a tensor in place, so models can be shared across
parallel workers safely. A step's tensors are views of the vectors its
momentum update wrote.

An epoch does once what the online weights never touch: the views come only
from fixed random streams, and the target branch changes only at the
``ema_update`` after the epoch. So ``objective_views`` draws all of an
epoch's views at once, each step's block from that step's stream, and
``target_rows`` runs the target branch once on them (and normalizes its rows
once); each ``combined_step`` takes its batch's rows. The bits are those of a
per-step pass, except that the targets of a one-row batch, which numpy
multiplies with another BLAS routine alone, move by roundoff.

Inputs are checked only where they enter the simulator: ``FedConfig`` (with
its ``MlpSpec`` and ``AugmentConfig``), ``Dataset``, the wire
(``federation._transmit``, ``server_aggregate``) and the files
(``load_arrays``, ``model_from_arrays``, ``load_model``,
``load_checkpoint``). ``Objective``, ``init_client_model`` and the step path
check only for numerical failure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cka
from .errors import ConfigError, NumericalFailureError, ParseError, ShapeError
from .numkit import Matrix, RngStream, as_int, load_arrays, save_arrays

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Encoder shape: input width, hidden widths, representation width.

    The named activation applies to hidden layers; the output layer is
    always identity (affine).
    """

    layer_widths: Tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if isinstance(self.layer_widths, str) or not hasattr(self.layer_widths, "__iter__"):
            raise ConfigError(f"layer widths must be a list, got {self.layer_widths!r}")
        widths = tuple(as_int(w, "each layer width") for w in self.layer_widths)
        if len(widths) < 2:
            raise ConfigError("layer_widths needs at least input and output entries")
        if any(w < 1 for w in widths):
            raise ConfigError(f"all layer widths must be >= 1, got {widths}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        object.__setattr__(self, "layer_widths", widths)

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]

    def to_dict(self) -> dict:
        return {"layer_widths": list(self.layer_widths), "activation": self.activation}

    @staticmethod
    def from_dict(d: dict) -> "MlpSpec":
        if not isinstance(d, dict) or set(d) != {"layer_widths", "activation"}:
            raise ConfigError("a client spec must be an object with keys "
                              f"'layer_widths' and 'activation', got {d!r}")
        return MlpSpec(d["layer_widths"], d["activation"])


Params = Tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class ClientModel:
    """Online encoder + predictor, EMA target encoder, momentum buffers.

    ``online`` is ``(W0, b0, ..., W_{n-1}, b_{n-1}, Wp, bp)``: the encoder
    layers, then the predictor. ``target`` is the encoder part of that
    layout, updated only by EMA; ``velocity`` holds one momentum buffer per
    entry of ``online``.
    """

    spec: MlpSpec
    tau: float
    online: Params
    target: Params
    velocity: Params


_PARTS = ("online", "target", "velocity")


def _online_shapes(spec: MlpSpec) -> List[Tuple[int, ...]]:
    """The shapes of ``online``, in order."""
    shapes = []
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    return shapes + [(spec.output_width, spec.output_width), (spec.output_width,)]


def _entry_shapes(spec: MlpSpec) -> Dict[str, Tuple[int, ...]]:
    """The shape of every tensor of a model by its ``model_arrays`` name."""
    online = _online_shapes(spec)
    parts = zip(_PARTS, (online, online[:-2], online))
    return {f"{part}{i}": s for part, shapes in parts for i, s in enumerate(shapes)}


def model_arrays(model: ClientModel) -> Dict[str, np.ndarray]:
    """Every tensor of the model by name (``online0``, ``target1``, ...)."""
    return {f"{part}{i}": a for part in _PARTS for i, a in enumerate(getattr(model, part))}


def model_from_arrays(spec: MlpSpec, tau: float, arrays: Dict[str, np.ndarray],
                      source: str = "model") -> ClientModel:
    """Inverse of ``model_arrays``; the model holds the given arrays. An entry
    missing, unexpected or of the wrong shape for ``spec`` raises ParseError
    naming ``source`` and the entry."""
    expected = _entry_shapes(spec)
    for what, names in (("missing", set(expected) - set(arrays)),
                        ("unexpected", set(arrays) - set(expected))):
        if names:
            raise ParseError(f"{source}: {what} entries {sorted(names)}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ParseError(f"{source}: entry {name!r} has shape {arrays[name].shape}, "
                             f"the spec needs {shape}")
    return ClientModel(spec, tau, *(tuple(arrays[n] for n in expected if n.startswith(part))
                                    for part in _PARTS))


@dataclass(frozen=True)
class AugmentConfig:
    noise_std: float = 0.0
    mask_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.noise_std < np.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not (0.0 <= self.mask_prob < 1.0):
            raise ConfigError(f"mask_prob must be in [0, 1), got {self.mask_prob}")

    @property
    def is_identity(self) -> bool:
        return self.noise_std == 0.0 and self.mask_prob == 0.0


@dataclass
class ActivationTape:
    """Cached forward pass: inputs to each layer plus pre-activations."""

    inputs: List[Matrix]      # h_0 = batch, h_1, ..., h_{depth-1}
    pre_acts: List[Matrix]    # z_i per encoder layer
    enc_out: Matrix


@dataclass
class StepResult:
    model: "ClientModel"
    loss_total: float
    loss_ssl: float
    loss_prox: float
    grad_norm: float


@dataclass(frozen=True, eq=False)
class Objective:
    """What a client minimizes for a round: the regression loss between the
    online branch on one augmented view and the target branch on the other
    (on L2-normalized rows with ``normalize``, in both directions with
    ``symmetrize``), plus ``mu * d(phi, reference)``. ``phi`` is the
    predictor output on the alignment rows ``rad``, radially clipped to
    ``clip_radius`` when set, and the reference is held fixed.
    The fields are trusted: with ``mu > 0`` the caller passes ``rad`` and a
    ``reference`` of the kind ``form`` needs.
    """

    mu: float = 0.0
    form: cka.ProximalForm = cka.ProximalForm.ONE_MINUS_CKA
    rad: Optional[Matrix] = None
    reference: Optional[cka.Reference] = None
    augment: AugmentConfig = AugmentConfig()
    normalize: bool = False
    clip_radius: Optional[float] = None
    symmetrize: bool = False


def init_client_model(spec: MlpSpec, tau: float, rng: RngStream) -> ClientModel:
    """He-scaled Gaussian weights, zero biases; the target starts as the
    online encoder. The predictor maps the representation width to itself,
    so the regression target is well-formed."""
    gen = rng.generator()
    online = []
    for shape in _online_shapes(spec):
        if len(shape) == 2:
            online.append(gen.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape))
        else:
            online.append(np.zeros(shape))
    online = tuple(online)
    return ClientModel(spec, tau, online, online[:-2], tuple(np.zeros_like(p) for p in online))


def _act(z: Matrix, activation: str) -> Matrix:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(z: Matrix, h: Matrix, activation: str) -> Matrix:
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - h * h


def _encoder_forward(
    encoder: Sequence[np.ndarray], activation: str, x: Matrix
) -> Tuple[Matrix, List[Matrix], List[Matrix]]:
    """Run ``(W0, b0, ..., W_{n-1}, b_{n-1})`` on x: the output, the input
    to each layer and each pre-activation."""
    inputs = [x]
    pre_acts = []
    h = x
    last = len(encoder) // 2 - 1
    for i, (w, b) in enumerate(zip(encoder[0::2], encoder[1::2])):
        z = h @ w + b
        pre_acts.append(z)
        h = z if i == last else _act(z, activation)
        if i != last:
            inputs.append(h)
    return h, inputs, pre_acts


def forward_online(model: ClientModel, batch: Matrix) -> Tuple[Matrix, ActivationTape]:
    """Predictor output plus the cached activations needed for backprop."""
    enc_out, inputs, pre_acts = _encoder_forward(model.online[:-2], model.spec.activation, batch)
    pred_w, pred_b = model.online[-2:]
    return enc_out @ pred_w + pred_b, ActivationTape(inputs, pre_acts, enc_out)


def forward_target(model: ClientModel, batch: Matrix) -> Matrix:
    """Target-encoder output; never contributes gradients."""
    return _encoder_forward(model.target, model.spec.activation, batch)[0]


def _row_norms(m: Matrix) -> np.ndarray:
    return np.sqrt((m * m).sum(axis=1))


def _ssl_loss_grad(
    pred: Matrix, target: Matrix, normalize: bool, want_grad: bool = True
) -> Tuple[float, Optional[Matrix]]:
    """Mean over the batch of ||p_b - t_b||^2, optionally on L2-normalized
    prediction rows (a zero row normalizes to zero), and its gradient in pred
    when wanted. With ``normalize`` the target rows come normalized, as
    ``target_rows`` gives them."""
    batch = pred.shape[0]
    if normalize:
        rp = _row_norms(pred)
        positive = bool((rp > 0.0).all())
        p_hat = _divide_rows(pred, rp, positive)
    else:
        p_hat = pred
    diff = p_hat - target
    loss = float((diff * diff).sum()) / batch
    if not want_grad or not normalize:
        return loss, (2.0 / batch) * diff if want_grad else None
    # d/dp ||p_hat - t_hat||^2 = (2/r) (I - p_hat p_hat^T)(p_hat - t_hat);
    # a zero prediction row takes the zero subgradient.
    proj = (p_hat * diff).sum(axis=1)
    return loss, _divide_rows((2.0 / batch) * (diff - p_hat * proj[:, None]), rp, positive)


def _divide_rows(m: Matrix, norms: np.ndarray, positive: bool) -> Matrix:
    """Row p divided by norms[p]; rows with a zero norm become zero.
    ``positive`` says whether every norm is positive."""
    if positive:
        return m / norms[:, None]
    return np.divide(m, norms[:, None], out=np.zeros_like(m), where=norms[:, None] > 0.0)


def representations(
    model: ClientModel, rad: Matrix, clip_radius: Optional[float] = None
) -> Matrix:
    """Deterministic predictor output on the alignment rows, no augmentation.

    With clip_radius set, rows are radially clipped to that norm so the
    representation-norm bound holds by construction.
    """
    pred_out, _ = forward_online(model, rad)
    if clip_radius is None:
        return pred_out
    return _clip_rows(pred_out, clip_radius)[0]


def _clip_rows(m: Matrix, radius: float) -> Tuple[Matrix, np.ndarray, np.ndarray]:
    norms = _row_norms(m)
    over = norms > radius
    if not over.any():
        return m, over, norms
    scale = np.divide(radius, norms, out=np.ones_like(norms), where=over)
    return m * scale[:, None], over, norms


def _clip_rows_backward(
    m_raw: Matrix, grad_clipped: Matrix, over: np.ndarray, norms: np.ndarray, radius: float
) -> Matrix:
    # Jacobian of r -> radius * x / ||x|| on clipped rows, identity elsewhere.
    if not over.any():
        return grad_clipped
    grad = grad_clipped.copy()
    idx = np.where(over)[0]
    x = m_raw[idx]
    g = grad_clipped[idx]
    r = norms[idx][:, None]
    dot = (x * g).sum(axis=1, keepdims=True)
    grad[idx] = (radius / r) * (g - x * (dot / (r * r)))
    return grad


def _backprop(model: ClientModel, tape: ActivationTape, d_pred: Matrix) -> Params:
    """Gradients of a scalar loss in ``online`` order, given dLoss/d(predictor
    output)."""
    grads = [tape.enc_out.T @ d_pred, d_pred.sum(axis=0)]
    dh = d_pred @ model.online[-2].T
    weights = model.online[:-2:2]
    last = len(weights) - 1
    for i in range(last, -1, -1):
        if i == last:
            dz = dh
        else:
            dz = dh * _act_grad(tape.pre_acts[i], tape.inputs[i + 1], model.spec.activation)
        grads[:0] = [tape.inputs[i].T @ dz, dz.sum(axis=0)]
        if i > 0:
            dh = dz @ weights[i].T
    return tuple(grads)


def _stacked(blocks: Sequence[Matrix]) -> Matrix:
    """The blocks' rows as one encoder input; a single block as it is."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def objective_views(
    rows: Matrix, obj: Objective, *streams: RngStream, block: Optional[int] = None
) -> Tuple[Matrix, Matrix]:
    """The view pair (v1, v2) on which the objective scores ``rows``:
    additive Gaussian noise, then independent zero-masking. Block b of
    ``block`` rows (default all; the last may be shorter) draws from
    ``streams[b]``, one stream per block, each view from its own sub-stream,
    normals before uniforms, so a block's pair has the bits it has when
    drawn alone."""
    cfg = obj.augment
    if cfg.is_identity:
        return rows, rows
    block, masked = block or len(rows), cfg.mask_prob > 0.0
    uniform = np.empty_like(rows) if masked else None

    def one_view(tag: str) -> Matrix:
        view = np.empty_like(rows)
        for start, rng in zip(range(0, len(rows), block), streams, strict=True):
            gen, part = rng.sub("aug").sub(tag).generator(), slice(start, start + block)
            gen.standard_normal(out=view[part])
            if masked:
                gen.random(out=uniform[part])
        # numpy's gen.normal(0, s) is 0 + s z of these z, so this is its noise
        # bit for bit (adding 0.0 turns -0.0 into 0.0, as that sum does)
        view *= cfg.noise_std
        view += 0.0
        view += rows
        if masked:
            view[uniform < cfg.mask_prob] = 0.0
        return view

    return one_view("view1"), one_view("view2")


def target_rows(model: ClientModel, views: Tuple[Matrix, Matrix], obj: Objective) -> Params:
    """The regression targets of a view pair, one block per direction: the
    target branch on v2 (and on v1 under ``symmetrize``) in one pass, with
    rows L2-normalized under ``normalize``."""
    v1, v2 = views
    target = forward_target(model, _stacked([v2, v1] if obj.symmetrize else [v2]))
    if not np.isfinite(target).all():
        raise NumericalFailureError("target forward")
    if obj.normalize:
        norms = _row_norms(target)
        target = _divide_rows(target, norms, bool((norms > 0.0).all()))
    return (target[:v2.shape[0]], target[v2.shape[0]:]) if obj.symmetrize else (target,)


def _objective(want_grad: bool, model: ClientModel, views: Tuple[Matrix, Matrix],
               targets: Params, obj: Objective):
    """The combined objective on a view pair and its ``target_rows`` in one
    online pass, with the backward pass optional.

    The online branch runs once on [v1; v2 if symmetrize; rad if mu > 0]
    and the backward pass once on [d_ssl; mu d_phi]. Each regression
    direction is a mean over the batch, so the mean over the stacked
    directions is scaled by their number (1 or 2, an exact scaling).

    Returns (loss_total, loss_ssl, loss_prox, grad, grad_norm): grad is the
    ``flatten_grads`` vector of the gradients and grad_norm its 2-norm, both
    None when want_grad is False.
    """
    online_in = list(views) if obj.symmetrize else [views[0]]
    directions = len(online_in)
    if obj.mu > 0.0:
        online_in.append(obj.rad)
    pred, tape = forward_online(model, _stacked(online_in))
    target = _stacked(targets)
    rows = target.shape[0]
    if not np.isfinite(pred[:rows]).all():
        raise NumericalFailureError("online forward")
    loss_ssl, d_pred = _ssl_loss_grad(pred[:rows], target, obj.normalize, want_grad)
    if directions > 1:
        loss_ssl *= directions
        if want_grad:
            d_pred = directions * d_pred

    loss_prox = 0.0
    if obj.mu > 0.0:
        phi_raw = pred[rows:]
        if not np.isfinite(phi_raw).all():
            raise NumericalFailureError("representations")
        if obj.clip_radius is not None:
            phi, over, norms = _clip_rows(phi_raw, obj.clip_radius)
        else:
            phi = phi_raw
        if want_grad:
            distance, d_phi = cka.proximal_grad(phi, obj.reference, obj.form)
            loss_prox = obj.mu * distance
            if obj.clip_radius is not None:
                d_phi = _clip_rows_backward(phi_raw, d_phi, over, norms, obj.clip_radius)
            d_pred = np.concatenate([d_pred, obj.mu * d_phi])
        else:
            loss_prox = cka.proximal_value(phi, obj.reference, obj.form, obj.mu)

    loss_total = loss_ssl + loss_prox
    if not math.isfinite(loss_total):
        raise NumericalFailureError("loss", f"ssl={loss_ssl} prox={loss_prox}")
    if not want_grad:
        return loss_total, loss_ssl, loss_prox, None, None
    grads = _backprop(model, tape, d_pred)
    flat = flatten_grads(grads)
    grad_norm = math.sqrt(flat.dot(flat))  # np.linalg.norm(flat), bit for bit
    # A non-finite entry makes the norm NaN or inf; an inf norm of finite
    # entries is an overflow of the sum, which is no failure.
    if not math.isfinite(grad_norm):
        for name, arrs in (("encoder gradient", grads[:-2]), ("predictor gradient", grads[-2:])):
            if not all(np.isfinite(a).all() for a in arrs):
                raise NumericalFailureError(name)
    return loss_total, loss_ssl, loss_prox, flat, grad_norm


def combined_loss(
    model: ClientModel, views: Tuple[Matrix, Matrix], obj: Objective
) -> Tuple[float, float, float]:
    """Forward-only evaluation of the combined objective on a view pair from
    ``objective_views``.

    Returns (loss_total, loss_ssl, loss_prox); identical values to
    loss_and_grad with the backward pass skipped.
    """
    return _objective(False, model, views, target_rows(model, views, obj), obj)[:3]


def loss_and_grad(model: ClientModel, local_batch: Matrix, obj: Objective, rng: RngStream):
    """Losses and analytic gradients of the combined objective, no update.

    Returns (loss_total, loss_ssl, loss_prox, grad), grad the gradients as
    one ``flatten_grads`` vector. The proximal branch treats the reference
    as a constant and is skipped entirely when mu == 0 so that path is
    bit-identical to plain SSL.
    """
    views = objective_views(local_batch, obj, rng)
    return _objective(True, model, views, target_rows(model, views, obj), obj)[:4]


def flatten_grads(grads: Params) -> np.ndarray:
    """Tensors in ``online`` order as one vector."""
    return np.concatenate([g.ravel() for g in grads])


def flatten_params(model: ClientModel) -> np.ndarray:
    """Trainable parameters (online encoder + predictor) as one vector, in
    the order of ``flatten_grads``."""
    return flatten_grads(model.online)


class _Views(tuple):
    """``vector`` cut, in order, into views shaped as the tensors of ``like``;
    it stays attached, so the next momentum update reads it without a copy."""

    def __new__(cls, vector: np.ndarray, like: Params):
        views, start = [], 0
        for p in like:
            views.append(vector[start:start + p.size].reshape(p.shape))
            start += p.size
        out = super().__new__(cls, views)
        out.vector = vector
        return out

    def __reduce__(self):
        # a client round trained in a worker process comes back pickled: the
        # views are cut again from the unpickled vector, which stays attached
        return _Views, (self.vector, tuple(self))


def _flat(tensors: Params) -> np.ndarray:
    """The tensors as one vector: the one they were cut from, else a copy."""
    return tensors.vector if isinstance(tensors, _Views) else flatten_grads(tensors)


def set_params(model: ClientModel, vec: np.ndarray) -> ClientModel:
    """Inverse of flatten_params; returns a new model with the given
    trainable parameters (target and buffers unchanged)."""
    size = sum(p.size for p in model.online)
    if vec.size != size:
        raise ShapeError(f"parameter vector length {vec.size} != expected {size}")
    return replace(model, online=_Views(np.array(vec, dtype=np.float64), model.online))


def combined_step(
    model: ClientModel,
    views: Tuple[Matrix, Matrix],
    targets: Params,
    obj: Objective,
    eta: float,
    momentum: float,
) -> StepResult:
    """One SGD-with-momentum step on the online branch, on a view pair and
    its ``target_rows``.

    The target branch is untouched. Reported losses and the gradient norm
    are the pre-step values. The update runs on whole vectors, so it has the
    bits of the update tensor by tensor, and it writes only new ones.
    """
    loss_total, loss_ssl, loss_prox, grad, grad_norm = _objective(
        True, model, views, targets, obj)
    velocity = momentum * _flat(model.velocity)
    velocity += grad
    online = eta * velocity
    np.subtract(_flat(model.online), online, out=online)
    return StepResult(ClientModel(model.spec, model.tau, _Views(online, model.online),
                                  model.target, _Views(velocity, model.velocity)),
                      loss_total, loss_ssl, loss_prox, grad_norm)


def ema_update(model: ClientModel) -> ClientModel:
    """Target <- tau * target + (1 - tau) * online, per encoder tensor."""
    tau = model.tau
    return replace(model, target=tuple(tau * t + (1.0 - tau) * o
                                       for t, o in zip(model.target, model.online)))


def save_model(model: ClientModel, directory: str, round_index: Optional[int] = None) -> None:
    """Checkpoint: every tensor plus a JSON manifest in one ``model.npz``."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"spec": model.spec.to_dict(), "tau": model.tau, "round": round_index}
    save_arrays(os.path.join(directory, "model.npz"), model_arrays(model), manifest)


def load_model(directory: str) -> ClientModel:
    path = os.path.join(directory, "model.npz")
    manifest, arrays = load_arrays(path)
    try:
        spec, tau = MlpSpec.from_dict(manifest["spec"]), float(manifest["tau"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: manifest lacks a valid spec and tau ({exc!r})") from None
    if not 0.0 <= tau <= 1.0:
        raise ParseError(f"{path}: manifest tau {tau!r} is not in [0, 1]")
    return model_from_arrays(spec, tau, arrays, source=path)
