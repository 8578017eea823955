"""Per-client non-contrastive self-supervised networks with manual backprop.

Each client owns an online branch (MLP encoder plus a single affine
predictor) and a target branch (encoder of identical shape, updated only by
exponential moving average, never by gradients). Training minimizes the
mean squared error between the online branch's output on one view and the
target branch's output on a second view, optionally plus a mu-weighted
proximal penalty coupling the client's representations of a shared
alignment batch to a fixed reference received from the server.

All models are updated functionally: operations return new ClientModel
values and never mutate their inputs, so models can be shared across
parallel workers safely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cka
from .errors import ConfigError, NumericalFailureError, ShapeError
from .numkit import (
    Matrix,
    RngStream,
    as_matrix,
    load_arrays,
    save_arrays,
)

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
        widths = tuple(int(w) for w in self.layer_widths)
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
        return MlpSpec(tuple(d["layer_widths"]), d["activation"])


@dataclass
class ClientModel:
    """Online encoder + predictor, EMA target encoder, momentum buffers."""

    spec: MlpSpec
    online_w: List[Matrix]
    online_b: List[np.ndarray]
    pred_w: Matrix
    pred_b: np.ndarray
    target_w: List[Matrix]
    target_b: List[np.ndarray]
    tau: float
    mom_w: List[Matrix] = field(default_factory=list)
    mom_b: List[np.ndarray] = field(default_factory=list)
    mom_pred_w: Optional[Matrix] = None
    mom_pred_b: Optional[np.ndarray] = None

    def copy(self) -> "ClientModel":
        return model_from_arrays(
            self.spec, self.tau, {k: a.copy() for k, a in model_arrays(self).items()}
        )


# The one list of a model's tensors, shared by copying, model files and run
# checkpoints: one entry per encoder layer for these fields ...
_LAYER_TENSORS = ("online_w", "online_b", "target_w", "target_b", "mom_w", "mom_b")
# ... and one entry for each of these.
_HEAD_TENSORS = ("pred_w", "pred_b", "mom_pred_w", "mom_pred_b")


def model_arrays(model: ClientModel) -> Dict[str, np.ndarray]:
    """Every tensor of the model by name (``online_w0``, ``pred_b``, ...)."""
    arrays = {f"{n}{i}": a for n in _LAYER_TENSORS for i, a in enumerate(getattr(model, n))}
    arrays.update((n, getattr(model, n)) for n in _HEAD_TENSORS)
    return arrays


def model_from_arrays(spec: MlpSpec, tau: float, arrays: Dict[str, np.ndarray]) -> ClientModel:
    """Inverse of ``model_arrays``; the model holds the given arrays."""
    layers = range(len(spec.layer_widths) - 1)
    return ClientModel(spec=spec, tau=tau,
                       **{n: [arrays[f"{n}{i}"] for i in layers] for n in _LAYER_TENSORS},
                       **{n: arrays[n] for n in _HEAD_TENSORS})


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
    pred_out: Matrix


@dataclass
class StepResult:
    model: "ClientModel"
    loss_total: float
    loss_ssl: float
    loss_prox: float
    grad_norm: float


def init_client_model(
    spec: MlpSpec, predictor_width: int, tau: float, rng: RngStream
) -> ClientModel:
    """He-scaled Gaussian weights, zero biases; target starts as an exact copy
    of the online encoder. The predictor output width must equal the encoder
    output width so the regression target is well-formed."""
    if not (0.0 <= tau <= 1.0):
        raise ConfigError(f"tau must be in [0, 1], got {tau}")
    if predictor_width != spec.output_width:
        raise ConfigError(
            f"predictor width {predictor_width} must equal encoder output width "
            f"{spec.output_width}"
        )
    gen = rng.generator()
    online_w, online_b = [], []
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        std = np.sqrt(2.0 / fan_in)
        online_w.append(gen.normal(0.0, std, size=(fan_in, fan_out)))
        online_b.append(np.zeros(fan_out))
    pred_w = gen.normal(0.0, np.sqrt(2.0 / spec.output_width),
                        size=(spec.output_width, predictor_width))
    pred_b = np.zeros(predictor_width)
    return ClientModel(
        spec=spec,
        online_w=online_w,
        online_b=online_b,
        pred_w=pred_w,
        pred_b=pred_b,
        target_w=[w.copy() for w in online_w],
        target_b=[b.copy() for b in online_b],
        tau=tau,
        mom_w=[np.zeros_like(w) for w in online_w],
        mom_b=[np.zeros_like(b) for b in online_b],
        mom_pred_w=np.zeros_like(pred_w),
        mom_pred_b=np.zeros_like(pred_b),
    )


def augment(batch: Matrix, cfg: AugmentConfig, rng: RngStream) -> Tuple[Matrix, Matrix]:
    """Two views (v', v''): additive Gaussian noise then independent zero-masking.

    The views draw from independent sub-streams so repeated calls with the
    same stream reproduce the same pair.
    """
    batch = as_matrix(batch, "batch")

    def one_view(tag: str) -> Matrix:
        gen = rng.sub(tag).generator()
        view = batch + gen.normal(0.0, cfg.noise_std, size=batch.shape)
        if cfg.mask_prob > 0.0:
            view = np.where(gen.random(batch.shape) < cfg.mask_prob, 0.0, view)
        return view

    if cfg.is_identity:
        return batch.copy(), batch.copy()
    return one_view("view1"), one_view("view2")


def _act(z: Matrix, activation: str) -> Matrix:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(z: Matrix, h: Matrix, activation: str) -> Matrix:
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - h * h


def _encoder_forward(
    weights: Sequence[Matrix],
    biases: Sequence[np.ndarray],
    activation: str,
    x: Matrix,
) -> Tuple[Matrix, List[Matrix], List[Matrix]]:
    inputs = [x]
    pre_acts = []
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre_acts.append(z)
        h = z if i == last else _act(z, activation)
        if i != last:
            inputs.append(h)
    return h, inputs, pre_acts


def _encoder_input(model: ClientModel, batch: Matrix) -> Matrix:
    batch = as_matrix(batch, "batch")
    if batch.shape[1] != model.spec.input_width:
        raise ShapeError(
            f"batch width {batch.shape[1]} != encoder input {model.spec.input_width}"
        )
    return batch


def forward_online(model: ClientModel, batch: Matrix) -> Tuple[Matrix, ActivationTape]:
    """Predictor output plus the cached activations needed for backprop."""
    enc_out, inputs, pre_acts = _encoder_forward(
        model.online_w, model.online_b, model.spec.activation, _encoder_input(model, batch)
    )
    pred_out = enc_out @ model.pred_w + model.pred_b
    return pred_out, ActivationTape(inputs, pre_acts, enc_out, pred_out)


def forward_target(model: ClientModel, batch: Matrix) -> Matrix:
    """Target-encoder output; never contributes gradients."""
    out, _, _ = _encoder_forward(
        model.target_w, model.target_b, model.spec.activation, _encoder_input(model, batch)
    )
    return out


def _row_norms(m: Matrix) -> np.ndarray:
    return np.sqrt(np.sum(m * m, axis=1))


def _ssl_loss_grad(
    pred: Matrix, target: Matrix, normalize: bool, want_grad: bool = True
) -> Tuple[float, Optional[Matrix]]:
    """Mean over the batch of ||p_b - t_b||^2, optionally on L2-normalized rows
    (a zero row normalizes to zero), and its gradient in pred when wanted."""
    pred = as_matrix(pred, "pred")
    target = as_matrix(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"shapes differ: {pred.shape} vs {target.shape}")
    batch = pred.shape[0]
    if not normalize:
        diff = pred - target
        loss = float(np.sum(diff * diff)) / batch
        grad = (2.0 / batch) * diff if want_grad else None
        return loss, grad
    rp = _row_norms(pred)
    p_hat = _divide_rows(pred, rp)
    t_hat = _divide_rows(target, _row_norms(target))
    diff = p_hat - t_hat
    loss = float(np.sum(diff * diff)) / batch
    if not want_grad:
        return loss, None
    # d/dp ||p_hat - t_hat||^2 = (2/r) (I - p_hat p_hat^T)(p_hat - t_hat);
    # a zero prediction row takes the zero subgradient.
    proj = np.sum(p_hat * diff, axis=1)
    return loss, _divide_rows((2.0 / batch) * (diff - p_hat * proj[:, None]), rp)


def _divide_rows(m: Matrix, norms: np.ndarray) -> Matrix:
    """Row p divided by norms[p]; rows with a zero norm become zero."""
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
    if radius <= 0:
        raise ConfigError(f"clip radius must be > 0, got {radius}")
    norms = _row_norms(m)
    over = norms > radius
    if not np.any(over):
        return m, over, norms
    scale = np.ones_like(norms)
    scale[over] = radius / norms[over]
    return m * scale[:, None], over, norms


def _clip_rows_backward(
    m_raw: Matrix, grad_clipped: Matrix, over: np.ndarray, norms: np.ndarray, radius: float
) -> Matrix:
    # Jacobian of r -> radius * x / ||x|| on clipped rows, identity elsewhere.
    if not np.any(over):
        return grad_clipped
    grad = grad_clipped.copy()
    idx = np.where(over)[0]
    x = m_raw[idx]
    g = grad_clipped[idx]
    r = norms[idx][:, None]
    dot = np.sum(x * g, axis=1, keepdims=True)
    grad[idx] = (radius / r) * (g - x * (dot / (r * r)))
    return grad


def _check_forward(pred: Matrix, target: Matrix) -> None:
    if not np.all(np.isfinite(pred)):
        raise NumericalFailureError("online forward")
    if not np.all(np.isfinite(target)):
        raise NumericalFailureError("target forward")


def _backprop(
    model: ClientModel, tape: ActivationTape, d_pred: Matrix
):
    """Gradients of a scalar loss through predictor and encoder, given
    dLoss/d(predictor output)."""
    g_pred_w = tape.enc_out.T @ d_pred
    g_pred_b = d_pred.sum(axis=0)
    dh = d_pred @ model.pred_w.T
    g_w = [None] * len(model.online_w)
    g_b = [None] * len(model.online_b)
    last = len(model.online_w) - 1
    for i in range(last, -1, -1):
        if i == last:
            dz = dh
        else:
            h_i = tape.inputs[i + 1]
            dz = dh * _act_grad(tape.pre_acts[i], h_i, model.spec.activation)
        g_w[i] = tape.inputs[i].T @ dz
        g_b[i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ model.online_w[i].T
    return g_w, g_b, g_pred_w, g_pred_b


def _objective(want_grad: bool, model, local_batch, rad, reference, mu, form, rng,
               augment_cfg, normalize, clip_radius, symmetrize):
    """The combined objective with the backward pass optional; the arguments
    are those of loss_and_grad.

    Returns (loss_total, loss_ssl, loss_prox, grads); grads is
    (g_w, g_b, g_pred_w, g_pred_b), or None when want_grad is False.
    """
    v1, v2 = augment(local_batch, augment_cfg, rng.sub("aug"))
    directions = [(v1, v2)]
    if symmetrize:
        directions.append((v2, v1))
    loss_ssl = None
    grads = None
    for online_in, target_in in directions:
        pred, tape = forward_online(model, online_in)
        target = forward_target(model, target_in)
        _check_forward(pred, target)
        loss, d_pred = _ssl_loss_grad(pred, target, normalize, want_grad)
        loss_ssl = loss if loss_ssl is None else loss_ssl + loss
        if want_grad:
            grads = _add_grads(grads, _backprop(model, tape, d_pred))

    loss_prox = 0.0
    if mu > 0.0:
        if rad is None or reference is None:
            raise ConfigError("mu > 0 requires an alignment batch and a reference")
        phi_raw, rad_tape = forward_online(model, rad)
        if not np.all(np.isfinite(phi_raw)):
            raise NumericalFailureError("representations")
        if clip_radius is not None:
            phi, over, norms = _clip_rows(phi_raw, clip_radius)
        else:
            phi = phi_raw
        loss_prox = cka.proximal_value(phi, reference, form, mu)
        d_phi = cka.proximal_grad(phi, reference, form) if want_grad else None
        if want_grad:
            if clip_radius is not None:
                d_phi = _clip_rows_backward(phi_raw, d_phi, over, norms, clip_radius)
            grads = _add_grads(grads, _backprop(model, rad_tape, d_phi), mu)

    loss_total = loss_ssl + loss_prox
    if not np.isfinite(loss_total):
        raise NumericalFailureError("loss", f"ssl={loss_ssl} prox={loss_prox}")
    if want_grad:
        g_w, g_b, g_pw, g_pb = grads
        for name, arrs in (("encoder gradient", g_w + g_b),
                           ("predictor gradient", [g_pw, g_pb])):
            if not all(np.all(np.isfinite(a)) for a in arrs):
                raise NumericalFailureError(name)
    return loss_total, loss_ssl, loss_prox, grads


def _add_grads(grads, extra, scale: float = 1.0):
    """grads + scale * extra, tensor by tensor; extra itself when grads is None."""
    if grads is None:
        return extra
    g_w, g_b, g_pw, g_pb = grads
    e_w, e_b, e_pw, e_pb = extra
    return ([g + scale * e for g, e in zip(g_w, e_w)],
            [g + scale * e for g, e in zip(g_b, e_b)],
            g_pw + scale * e_pw, g_pb + scale * e_pb)


def combined_loss(
    model: ClientModel,
    local_batch: Matrix,
    rad: Optional[Matrix],
    reference,
    mu: float,
    form,
    rng: RngStream,
    augment_cfg: AugmentConfig = AugmentConfig(),
    normalize: bool = False,
    clip_radius: Optional[float] = None,
    symmetrize: bool = False,
) -> Tuple[float, float, float]:
    """Forward-only evaluation of the combined objective.

    Returns (loss_total, loss_ssl, loss_prox); identical values to
    loss_and_grad with the backward pass skipped.
    """
    return _objective(False, model, local_batch, rad, reference, mu, form, rng,
                      augment_cfg, normalize, clip_radius, symmetrize)[:3]


def loss_and_grad(
    model: ClientModel,
    local_batch: Matrix,
    rad: Optional[Matrix],
    reference,
    mu: float,
    form,
    rng: RngStream,
    augment_cfg: AugmentConfig = AugmentConfig(),
    normalize: bool = False,
    clip_radius: Optional[float] = None,
    symmetrize: bool = False,
):
    """Losses and analytic gradients of the combined objective, no update.

    Returns (loss_total, loss_ssl, loss_prox, (g_w, g_b, g_pred_w, g_pred_b)).
    The proximal branch treats the reference as a constant and is skipped
    entirely when mu == 0 so that path is bit-identical to plain SSL. The
    one-directional regression loss is the default; ``symmetrize`` adds the
    view-swapped direction.
    """
    return _objective(True, model, local_batch, rad, reference, mu, form, rng,
                      augment_cfg, normalize, clip_radius, symmetrize)


def flatten_grads(grads) -> np.ndarray:
    g_w, g_b, g_pw, g_pb = grads
    parts = []
    for w, b in zip(g_w, g_b):
        parts.append(w.ravel())
        parts.append(b.ravel())
    parts.append(g_pw.ravel())
    parts.append(g_pb.ravel())
    return np.concatenate(parts)


def flatten_params(model: ClientModel) -> np.ndarray:
    """Trainable parameters (online encoder + predictor) as one vector, in
    the order of ``flatten_grads``."""
    return flatten_grads((model.online_w, model.online_b, model.pred_w, model.pred_b))


def set_params(model: ClientModel, vec: np.ndarray) -> ClientModel:
    """Inverse of flatten_params; returns a new model with the given
    trainable parameters (target and buffers unchanged)."""
    out = model.copy()
    pos = 0

    def take(a: np.ndarray) -> np.ndarray:
        nonlocal pos
        pos += a.size
        return vec[pos - a.size:pos].reshape(a.shape).copy()

    for i in range(len(out.online_w)):
        out.online_w[i] = take(out.online_w[i])
        out.online_b[i] = take(out.online_b[i])
    out.pred_w, out.pred_b = take(out.pred_w), take(out.pred_b)
    if pos != vec.size:
        raise ShapeError(f"parameter vector length {vec.size} != expected {pos}")
    return out


def combined_step(
    model: ClientModel,
    local_batch: Matrix,
    rad: Optional[Matrix],
    reference,
    mu: float,
    form,
    eta: float,
    momentum: float,
    rng: RngStream,
    augment_cfg: AugmentConfig = AugmentConfig(),
    normalize: bool = False,
    clip_radius: Optional[float] = None,
    symmetrize: bool = False,
) -> StepResult:
    """One SGD-with-momentum step on the online branch.

    The target branch is untouched. Reported losses and the gradient norm
    are the pre-step values.
    """
    if mu < 0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    if eta < 0:
        raise ConfigError(f"eta must be >= 0, got {eta}")
    loss_total, loss_ssl, loss_prox, grads = loss_and_grad(
        model, local_batch, rad, reference, mu, form, rng,
        augment_cfg=augment_cfg, normalize=normalize, clip_radius=clip_radius,
        symmetrize=symmetrize,
    )
    g_w, g_b, g_pw, g_pb = grads
    grad_norm = float(np.linalg.norm(flatten_grads(grads)))

    out = model.copy()
    for i in range(len(out.online_w)):
        out.mom_w[i] = momentum * out.mom_w[i] + g_w[i]
        out.mom_b[i] = momentum * out.mom_b[i] + g_b[i]
        out.online_w[i] = out.online_w[i] - eta * out.mom_w[i]
        out.online_b[i] = out.online_b[i] - eta * out.mom_b[i]
    out.mom_pred_w = momentum * out.mom_pred_w + g_pw
    out.mom_pred_b = momentum * out.mom_pred_b + g_pb
    out.pred_w = out.pred_w - eta * out.mom_pred_w
    out.pred_b = out.pred_b - eta * out.mom_pred_b
    return StepResult(out, loss_total, loss_ssl, loss_prox, grad_norm)


def ema_update(model: ClientModel, tau: Optional[float] = None) -> ClientModel:
    """Target <- tau * target + (1 - tau) * online, per weight tensor."""
    tau = model.tau if tau is None else tau
    if not (0.0 <= tau <= 1.0):
        raise ConfigError(f"tau must be in [0, 1], got {tau}")
    out = model.copy()
    out.target_w = [tau * t + (1.0 - tau) * o for t, o in zip(out.target_w, out.online_w)]
    out.target_b = [tau * t + (1.0 - tau) * o for t, o in zip(out.target_b, out.online_b)]
    return out


def save_model(model: ClientModel, directory: str, round_index: Optional[int] = None) -> None:
    """Checkpoint: every tensor plus a JSON manifest in one ``model.npz``."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"spec": model.spec.to_dict(), "tau": model.tau, "round": round_index}
    save_arrays(os.path.join(directory, "model.npz"), model_arrays(model), manifest)


def load_model(directory: str) -> ClientModel:
    manifest, arrays = load_arrays(os.path.join(directory, "model.npz"))
    return model_from_arrays(MlpSpec.from_dict(manifest["spec"]), float(manifest["tau"]), arrays)
