"""Per-client non-contrastive self-supervised networks with manual backprop.

Each client owns an online branch (MLP encoder plus a single affine
predictor) and a target branch (encoder of identical shape, updated only by
exponential moving average, never by gradients). Training minimizes the
mean squared error between the online branch's output on one view and the
target branch's output on a second view, optionally plus a mu-weighted
proximal penalty coupling the client's representations of a shared
alignment batch to a fixed reference received from the server.

A model is three float64 vectors, and ``tensors`` cuts one into views of
its weights and biases. All models are updated functionally: operations
return new ClientModel values and never write a vector in place, so models
can be shared across parallel workers safely.

A layer's bias follows its weights in the vector, so its ``(fan_in + 1) x
fan_out`` stretch is the block ``[W; b]`` (``_blocks``, a view), and every
pass, forward-only ones included, runs a layer as one product: each layer
input carries a trailing ones column, and ``[h, 1] @ [W; b] = h @ W + b``
with no bias add. Backprop writes each layer's ``[dW; db]`` with one
product, ``[h, 1]^T @ dz``, with no bias-gradient reduction. The bits are
those of ``h @ W + b`` and of a row-by-row bias-gradient sum, except where a
product sums thousands of rows, whose inner sum OpenBLAS then splits
(a few 1e-15 relative; the benchmark's desk and ``wide_rad`` steps, of at
most 640 rows, keep every bit). A client round's steps write one set of
``StepBuffers``: the online input with its alignment rows and ones written
once, each layer's outputs and gradients, and ``d_pred``; no buffer is ever
part of a value a step returns.

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

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cka
from .errors import ConfigError, NumericalFailureError, ParseError, ShapeError
from .numkit import Matrix, RngStream, all_finite, as_int, load_arrays, save_arrays

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
    """Online encoder + predictor, EMA target encoder, momentum buffer.

    ``online`` is one vector of ``(W0, b0, ..., W_{n-1}, b_{n-1}, Wp, bp)``,
    each tensor raveled in turn: the encoder layers, then the predictor,
    each layer a ``[W; b]`` block.
    ``target`` is the encoder prefix of that layout, updated only by EMA;
    ``velocity`` is the momentum buffer of ``online``. ``tensors`` cuts any
    of them into its tensors.
    """

    spec: MlpSpec
    tau: float
    online: np.ndarray
    target: np.ndarray
    velocity: np.ndarray


_PARTS = ("online", "target", "velocity")


@functools.lru_cache(maxsize=None)
def _layout(spec: MlpSpec) -> Tuple[Tuple[int, int, int], ...]:
    """(start, fan_in, fan_out) of each layer of ``online`` in its vector, in
    order: each encoder layer, then the predictor, one more layer of the
    representation width. A layer is its weights W (fan_in x fan_out) and
    then its bias b (fan_out), so the ``(fan_in + 1) * fan_out`` entries
    from ``start`` are the matrix ``[W; b]``, the layer as one block."""
    widths, start, layers = spec.layer_widths + (spec.output_width,), 0, []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        layers.append((start, fan_in, fan_out))
        start += (fan_in + 1) * fan_out
    return tuple(layers)


def _blocks(vector: np.ndarray, spec: MlpSpec) -> Tuple[Matrix, ...]:
    """The ``[W; b]`` block of each layer of an ``online`` or ``velocity``
    vector, or of a ``target`` (the encoder layers): views of it. A layer
    is then one product, ``[h, 1] @ [W; b] = h @ W + b``."""
    return tuple([vector[start:start + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out)
                  for start, fan_in, fan_out in _layout(spec) if start < vector.size])


def tensors(vector: np.ndarray, spec: MlpSpec) -> Tuple[np.ndarray, ...]:
    """An ``online`` or ``velocity`` vector, or a ``target`` (the encoder
    prefix), cut into its tensors in order, W then b of each layer: views
    of it, to be read only (the rows of each layer's ``[W; b]`` block)."""
    return tuple([t for block in _blocks(vector, spec) for t in (block[:-1], block[-1])])


def _entry_shapes(spec: MlpSpec) -> Dict[str, Tuple[int, ...]]:
    """The shape of every tensor of a model by its ``model_arrays`` name."""
    online = [s for _, fan_in, fan_out in _layout(spec) for s in ((fan_in, fan_out), (fan_out,))]
    parts = zip(_PARTS, (online, online[:-2], online))
    return {f"{part}{i}": s for part, shapes in parts for i, s in enumerate(shapes)}


def model_arrays(model: ClientModel) -> Dict[str, np.ndarray]:
    """Every tensor of the model by name (``online0``, ``target1``, ...)."""
    return {f"{part}{i}": a for part in _PARTS
            for i, a in enumerate(tensors(getattr(model, part), model.spec))}


def model_from_arrays(spec: MlpSpec, tau: float, arrays: Dict[str, np.ndarray],
                      source: str = "model") -> ClientModel:
    """Inverse of ``model_arrays``; the model holds copies of the given
    arrays. An entry missing, unexpected or of the wrong shape for ``spec``
    raises ParseError naming ``source`` and the entry."""
    expected = _entry_shapes(spec)
    for what, names in (("missing", set(expected) - set(arrays)),
                        ("unexpected", set(arrays) - set(expected))):
        if names:
            raise ParseError(f"{source}: {what} entries {sorted(names)}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ParseError(f"{source}: entry {name!r} has shape {arrays[name].shape}, "
                             f"the spec needs {shape}")
    return ClientModel(spec, tau, *(np.concatenate([arrays[n].ravel() for n in expected
                                                    if n.startswith(part)])
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
    """The arrays of one pass through folded layers over a fixed set of
    rows, written anew by each pass: layer i is ``inputs[i] @ block_i``.

    ``inputs[i]`` is layer i's input with a trailing ones column: the rows,
    then each hidden layer's activation, then (on the online branch) the
    encoder output, the predictor's input. ``pre_acts`` holds z_i per
    encoder layer; the last is the encoder output (identity activation), a
    view of its place in ``inputs`` or ``out``. ``acts`` holds each hidden
    layer's activation: under relu a view of its place in ``inputs``, under
    tanh an array of its own, copied there, since the tanh derivative reads
    it whole (a backward pass overwrites it). ``out`` is the last layer's
    output.
    """

    inputs: List[Matrix]
    pre_acts: List[Matrix]
    acts: List[Matrix]
    out: Matrix

    @property
    def enc_out(self) -> Matrix:
        return self.pre_acts[-1]

    def tail(self, rows: int) -> "ActivationTape":
        """The tape of its last ``rows`` rows: views of it."""
        return ActivationTape(*([a[-rows:] for a in part]
                                for part in (self.inputs, self.pre_acts, self.acts)),
                              self.out[-rows:])


def _new_tape(spec: MlpSpec, rows: int, layers: int) -> ActivationTape:
    """An unwritten tape for the first ``layers`` layers of ``online`` (the
    encoder's, or those and the predictor) over ``rows`` rows; only the
    ones columns are written."""
    widths = (spec.layer_widths + (spec.output_width,))[:layers + 1]
    inputs = [np.empty((rows, w + 1)) for w in widths[:-1]]
    for h in inputs:
        h[:, -1] = 1.0
    out = np.empty((rows, widths[-1]))
    encoder = len(spec.layer_widths) - 1
    pre_acts = [np.empty((rows, w)) for w in widths[1:encoder]]
    acts = [h[:, :-1] if spec.activation == "relu" else np.empty_like(z)
            for h, z in zip(inputs[1:], pre_acts)]
    pre_acts.append(inputs[encoder][:, :-1] if layers > encoder else out)
    return ActivationTape(inputs, pre_acts, acts, out)


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
    online = np.concatenate([part for _, fan_in, fan_out in _layout(spec) for part in (
        gen.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)).ravel(), np.zeros(fan_out))])
    predictor = spec.output_width * (spec.output_width + 1)
    return ClientModel(spec, tau, online, online[:-predictor], np.zeros_like(online))


def _forward(blocks: Sequence[Matrix], activation: str, tape: ActivationTape) -> Matrix:
    """Run the folded layers ``blocks`` on the rows of ``tape.inputs[0]``,
    one product per layer and no bias add, writing each layer's output
    (and each hidden layer's activation) into the tape; returns ``tape.out``."""
    for i, block in enumerate(blocks):
        z = tape.pre_acts[i] if i < len(tape.pre_acts) else tape.out
        np.matmul(tape.inputs[i], block, out=z)
        if i < len(tape.acts):
            h = tape.acts[i]
            if activation == "relu":
                np.maximum(z, 0.0, out=h)
            else:
                np.tanh(z, out=h)
                tape.inputs[i + 1][:, :-1] = h
    return tape.out


def _times_act_grad(dh: Matrix, z: Matrix, h: Matrix, activation: str) -> None:
    """dh times the activation's derivative at pre-activation z (output h),
    in place. Under tanh it overwrites h, which the backward pass reads no
    more."""
    if activation == "relu":
        np.multiply(dh, z > 0.0, out=dh)
    else:
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
        np.multiply(dh, h, out=dh)


def _pass(model: ClientModel, vector: np.ndarray, rows: Sequence[Matrix]) -> ActivationTape:
    """The folded layers of ``vector`` (``online`` or ``target``) run on a
    new tape of the blocks ``rows``, stacked."""
    blocks = _blocks(vector, model.spec)
    tape = _new_tape(model.spec, sum(r.shape[0] for r in rows), len(blocks))
    np.concatenate(rows, out=tape.inputs[0][:, :-1])
    _forward(blocks, model.spec.activation, tape)
    return tape


def forward_online(model: ClientModel, batch: Matrix) -> Tuple[Matrix, ActivationTape]:
    """Predictor output plus the cached activations needed for backprop."""
    tape = _pass(model, model.online, [batch])
    return tape.out, tape


def forward_target(model: ClientModel, *batches: Matrix) -> Matrix:
    """Target-encoder output on the batches' rows, stacked, in one pass;
    never contributes gradients."""
    return _pass(model, model.target, batches).out


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


@dataclass(frozen=True)
class _StepArrays:
    """The arrays of one step of a fixed row count (see ``StepBuffers``)."""

    tape: ActivationTape      # the online pass over [v1; v2; rad]
    d_pred: Matrix            # dLoss/d(predictor output) on those rows
    back: List[Matrix]        # dLoss/d(output) of each encoder layer
    targets: Matrix           # the batch's targets of both directions
    grad: np.ndarray          # the gradient, in the layout of ``online``
    grad_blocks: Tuple[Matrix, ...]


class StepBuffers:
    """The arrays a client round's steps write, allocated once per round.

    The online pass of a step runs on ``[v1; v2 under symmetrize; rad when
    mu > 0]``, each row with a trailing ones column; the alignment rows and
    the ones are written here, once, and a step writes its views' rows. A
    step of ``batch`` or fewer rows uses the last rows of every array, so
    the alignment rows stay the last. Each array is overwritten by the next
    step and is never part of a value a step returns.
    """

    def __init__(self, spec: MlpSpec, obj: "Objective", batch: int):
        self._directions = 2 if obj.symmetrize else 1
        self._align = obj.rad.shape[0] if obj.mu > 0.0 else 0
        rows = self._directions * batch + self._align
        self._tape = _new_tape(spec, rows, len(spec.layer_widths))
        if self._align:
            self._tape.inputs[0][-self._align:, :-1] = obj.rad
        self._d_pred = np.empty((rows, spec.output_width))
        self._back = [np.empty((rows, w)) for w in spec.layer_widths[1:]]
        self._targets = np.empty((self._directions * batch, spec.output_width))
        start, fan_in, fan_out = _layout(spec)[-1]
        self._grad = np.empty(start + (fan_in + 1) * fan_out)
        self._grad_blocks = _blocks(self._grad, spec)
        self._cuts: Dict[int, _StepArrays] = {}

    def cut(self, batch: int) -> _StepArrays:
        """The arrays of a step of ``batch`` rows: views of the last rows."""
        arrays = self._cuts.get(batch)
        if arrays is None:
            rows = self._directions * batch
            arrays = self._cuts[batch] = _StepArrays(
                self._tape.tail(rows + self._align), self._d_pred[-(rows + self._align):],
                [a[-(rows + self._align):] for a in self._back], self._targets[-rows:],
                self._grad, self._grad_blocks)
        return arrays


def _backprop(model: ClientModel, blocks: Sequence[Matrix], arrays: _StepArrays) -> np.ndarray:
    """The gradient of a scalar loss, given dLoss/d(predictor output) in
    ``arrays.d_pred``, written into ``arrays.grad`` (a vector in the layout
    of ``online``) and returned. ``blocks`` are the online layers; each
    layer's ``[dW; db]`` is one product, ``[h, 1]^T @ dz``."""
    tape, dz = arrays.tape, arrays.d_pred
    for i in range(len(blocks) - 1, -1, -1):
        np.matmul(tape.inputs[i].T, dz, out=arrays.grad_blocks[i])
        if i == 0:
            break
        dz = np.matmul(dz, blocks[i][:-1].T, out=arrays.back[i - 1])
        if i - 1 < len(tape.acts):
            _times_act_grad(dz, tape.pre_acts[i - 1], tape.acts[i - 1], model.spec.activation)
    return arrays.grad


def objective_views(
    rows: Matrix, augment: AugmentConfig, *streams: RngStream, block: Optional[int] = None
) -> Tuple[Matrix, Matrix]:
    """The view pair (v1, v2) on which the objective scores ``rows``:
    additive Gaussian noise, then independent zero-masking. Block b of
    ``block`` rows (default all; the last may be shorter) draws from
    ``streams[b]``, one stream per block, each view from its own sub-stream,
    normals before uniforms, so a block's pair has the bits it has when
    drawn alone."""
    if augment.is_identity:
        return rows, rows
    block, masked = block or len(rows), augment.mask_prob > 0.0
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
        view *= augment.noise_std
        view += 0.0
        view += rows
        if masked:
            view[uniform < augment.mask_prob] = 0.0
        return view

    return one_view("view1"), one_view("view2")


def target_rows(model: ClientModel, views: Tuple[Matrix, Matrix], obj: Objective) -> Params:
    """The regression targets of a view pair, one block per direction: the
    target branch on v2 (and on v1 under ``symmetrize``) in one pass, with
    rows L2-normalized under ``normalize``."""
    v1, v2 = views
    target = forward_target(model, *([v2, v1] if obj.symmetrize else [v2]))
    if not all_finite(target):
        raise NumericalFailureError("target forward")
    if obj.normalize:
        norms = _row_norms(target)
        target = _divide_rows(target, norms, bool((norms > 0.0).all()))
    return (target[:v2.shape[0]], target[v2.shape[0]:]) if obj.symmetrize else (target,)


def _objective(want_grad: bool, model: ClientModel, views: Tuple[Matrix, Matrix],
               targets: Params, obj: Objective, buffers: Optional[StepBuffers] = None):
    """The combined objective on a view pair and its ``target_rows`` in one
    online pass, with the backward pass optional.

    The online branch runs once on [v1; v2 if symmetrize; rad if mu > 0]
    and the backward pass once on [d_ssl; mu d_phi], in ``buffers`` (new
    ones when not given); without the backward pass the online branch runs
    on a tape of its own. Each regression direction is a mean over the
    batch, so the mean over the stacked directions is scaled by their
    number (1 or 2, an exact scaling).

    Returns (loss_total, loss_ssl, loss_prox, grad, grad_norm): grad is the
    gradient, a vector in the layout of ``online`` (the buffers' own), and
    grad_norm its 2-norm, both None when want_grad is False.
    """
    batch, directions = views[0].shape[0], len(targets)
    if want_grad:
        arrays = (buffers or StepBuffers(model.spec, obj, batch)).cut(batch)
        np.concatenate(views[:directions], out=arrays.tape.inputs[0][:directions * batch, :-1])
        blocks = _blocks(model.online, model.spec)
        pred = _forward(blocks, model.spec.activation, arrays.tape)
    else:  # an evaluation needs only the online pass
        pred = _pass(model, model.online,
                     [*views[:directions]] + ([obj.rad] if obj.mu > 0.0 else [])).out
    target = (targets[0] if directions == 1 else
              np.concatenate(targets, out=arrays.targets if want_grad else None))
    rows = target.shape[0]
    if not all_finite(pred):  # one scan of both row sets, then the one to name
        raise NumericalFailureError("representations" if all_finite(pred[:rows])
                                    else "online forward")
    loss_ssl, d_ssl = _ssl_loss_grad(pred[:rows], target, obj.normalize, want_grad)
    if directions > 1:
        loss_ssl *= directions
    if want_grad:
        np.multiply(d_ssl, directions, out=arrays.d_pred[:rows])

    loss_prox = 0.0
    if obj.mu > 0.0:
        phi_raw = pred[rows:]
        if obj.clip_radius is not None:
            phi, over, norms = _clip_rows(phi_raw, obj.clip_radius)
        else:
            phi = phi_raw
        if want_grad:
            distance, d_phi = cka.proximal_grad(phi, obj.reference, obj.form)
            loss_prox = obj.mu * distance
            if obj.clip_radius is not None:
                d_phi = _clip_rows_backward(phi_raw, d_phi, over, norms, obj.clip_radius)
            np.multiply(d_phi, obj.mu, out=arrays.d_pred[rows:])
        else:
            loss_prox = cka.proximal_value(phi, obj.reference, obj.form, obj.mu)

    loss_total = loss_ssl + loss_prox
    if not math.isfinite(loss_total):
        raise NumericalFailureError("loss", f"ssl={loss_ssl} prox={loss_prox}")
    if not want_grad:
        return loss_total, loss_ssl, loss_prox, None, None
    grad = _backprop(model, blocks, arrays)
    grad_norm = math.sqrt(grad.dot(grad))  # np.linalg.norm(grad), bit for bit
    # A non-finite entry makes the norm NaN or inf; an inf norm of finite
    # entries is an overflow of the sum, which is no failure.
    if not math.isfinite(grad_norm):
        encoder = model.target.size
        for name, part in (("encoder gradient", grad[:encoder]),
                           ("predictor gradient", grad[encoder:])):
            if not np.isfinite(part).all():
                raise NumericalFailureError(name)
    return loss_total, loss_ssl, loss_prox, grad, grad_norm


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

    Returns (loss_total, loss_ssl, loss_prox, grad), grad the gradient as
    one vector in the layout of ``online``. The proximal branch treats the
    reference as a constant and is skipped entirely when mu == 0 so that
    path is bit-identical to plain SSL.
    """
    views = objective_views(local_batch, obj.augment, rng)
    return _objective(True, model, views, target_rows(model, views, obj), obj)[:4]


def set_params(model: ClientModel, vec: np.ndarray) -> ClientModel:
    """A new model whose ``online`` vector is a copy of ``vec`` (target and
    buffer unchanged)."""
    if vec.shape != model.online.shape:
        raise ShapeError(f"parameter vector shape {vec.shape} != expected {model.online.shape}")
    return replace(model, online=np.array(vec, dtype=np.float64))


def combined_step(
    model: ClientModel,
    views: Tuple[Matrix, Matrix],
    targets: Params,
    obj: Objective,
    eta: float,
    momentum: float,
    buffers: Optional[StepBuffers] = None,
) -> StepResult:
    """One SGD-with-momentum step on the online branch, on a view pair and
    its ``target_rows``, in a client round's ``buffers`` (new ones when not
    given).

    The target branch is untouched. Reported losses and the gradient norm
    are the pre-step values. The update writes only new vectors.
    """
    loss_total, loss_ssl, loss_prox, grad, grad_norm = _objective(
        True, model, views, targets, obj, buffers)
    velocity = momentum * model.velocity
    velocity += grad
    online = eta * velocity
    np.subtract(model.online, online, out=online)
    return StepResult(ClientModel(model.spec, model.tau, online, model.target, velocity),
                      loss_total, loss_ssl, loss_prox, grad_norm)


def ema_update(model: ClientModel) -> ClientModel:
    """Target <- tau * target + (1 - tau) * online, on the encoder prefix."""
    tau = model.tau
    return replace(model, target=tau * model.target
                   + (1.0 - tau) * model.online[:model.target.size])


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
