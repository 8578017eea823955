"""Gram-matrix construction, linear kernel-alignment similarity, kernel and
representation aggregation, and the proximal penalty forms with analytic
gradients with respect to the activation matrix.

The similarity score between two L x L Gram matrices is

    score(Ki, Kj) = trace(Ki @ Kj) / (||Ki||_F * ||Kj||_F)

which for linear Grams K = A @ A.T equals ||Aj.T @ Ai||_F^2 divided by
||Ai.T @ Ai||_F * ||Aj.T @ Aj||_F. Gram matrices are uncentered.

Sign convention of the proximal penalty: the prose intent is a *distance*
penalty, so the default training form is ONE_MINUS_CKA (penalize
dissimilarity). The literal ``+ mu * CKA`` reading is kept available as
RAW_CKA, and TRACE_ALIGNMENT (the unnormalized trace(K @ Kbar) quantity that
the bound checks manipulate) is used by the theory monitor. L2_REP penalizes
the Frobenius distance between representation matrices directly and is only
legal when all clients share a representation width.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    ShapeError,
    UnsupportedCombinationError,
)
from .numkit import Matrix, as_matrix, check_finite

SYMMETRY_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9

# Near Phi == Phibar the L2 distance is non-differentiable; below this
# distance the zero subgradient is returned.
EPS_GRAD = 1e-12


@dataclass(frozen=True)
class GramMatrix:
    """L x L symmetric kernel matrix over the alignment rows."""

    entries: Matrix

    def __post_init__(self):
        m = as_matrix(self.entries, "gram entries")
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"gram matrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_TOL:
            raise ShapeError("gram matrix is not symmetric")
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


class ProximalForm(enum.Enum):
    ONE_MINUS_CKA = "one_minus_cka"
    RAW_CKA = "raw_cka"
    TRACE_ALIGNMENT = "trace_alignment"
    L2_REP = "l2_rep"

    @staticmethod
    def parse(name: Union[str, "ProximalForm"]) -> "ProximalForm":
        if isinstance(name, ProximalForm):
            return name
        try:
            return ProximalForm(name.lower())
        except ValueError:
            valid = ", ".join(f.value for f in ProximalForm)
            raise ConfigError(f"unknown proximal form {name!r}; expected one of {valid}") from None


def gram_linear(a: Matrix) -> GramMatrix:
    """K = A @ A.T, symmetrized exactly against roundoff."""
    a = as_matrix(a, "activations")
    k = a @ a.T
    k = (k + k.T) / 2.0
    return GramMatrix(check_finite(k, "linear gram"))


def _same_size(ki: GramMatrix, kj: GramMatrix) -> None:
    if ki.size != kj.size:
        raise ShapeError(f"gram sizes differ: {ki.size} vs {kj.size}")


def linear_cka(ki: GramMatrix, kj: GramMatrix) -> float:
    """trace(Ki @ Kj) / (||Ki||_F ||Kj||_F), in [0, 1] for PSD inputs."""
    _same_size(ki, kj)
    ni = float(np.linalg.norm(ki.entries))
    nj = float(np.linalg.norm(kj.entries))
    if ni == 0.0 or nj == 0.0:
        raise DegenerateInputError("similarity undefined for a zero-norm gram matrix")
    return float(np.sum(ki.entries * kj.entries)) / (ni * nj)


def trace_alignment(ki: GramMatrix, kbar: GramMatrix) -> float:
    """sum_pq Ki[p,q] * Kbar[p,q]; trace of the product for symmetric inputs."""
    _same_size(ki, kbar)
    return float(np.sum(ki.entries * kbar.entries))


def _check_weights(weights: Sequence[float]) -> None:
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ConfigError("weights must be finite")
    if np.any(w < 0):
        raise ConfigError("weights must be nonnegative")
    total = float(np.sum(w, initial=0.0))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"weights must sum to 1, got {total!r}")


def _order_invariant_sum(stack: np.ndarray) -> np.ndarray:
    # Entrywise ascending-sorted fold: permuting the inputs cannot change
    # the float summation order, so the reduction is bit-stable.
    return np.add.reduce(np.sort(stack, axis=0), axis=0)


def aggregate_grams(pairs: Iterable[Tuple[float, GramMatrix]]) -> GramMatrix:
    """Entrywise weighted sum of Gram matrices; weights must sum to 1."""
    pairs = list(pairs)
    if not pairs:
        raise ConfigError("nothing to aggregate")
    weights = [w for w, _ in pairs]
    _check_weights(weights)
    size = pairs[0][1].size
    for _, k in pairs:
        if k.size != size:
            raise ShapeError(f"gram sizes differ: {k.size} vs {size}")
    stack = np.stack([w * k.entries for w, k in pairs], axis=0)
    return GramMatrix(check_finite(_order_invariant_sum(stack), "aggregated gram"))


def aggregate_representations(pairs: Iterable[Tuple[float, Matrix]]) -> Matrix:
    """Entrywise weighted sum of representation matrices of equal shape."""
    pairs = [(w, as_matrix(p, "representations")) for w, p in pairs]
    if not pairs:
        raise ConfigError("nothing to aggregate")
    _check_weights([w for w, _ in pairs])
    shape = pairs[0][1].shape
    for _, p in pairs:
        if p.shape != shape:
            raise UnsupportedCombinationError(
                f"representation widths differ ({p.shape} vs {shape}); "
                "aggregate kernel matrices instead"
            )
    stack = np.stack([w * p for w, p in pairs], axis=0)
    return check_finite(_order_invariant_sum(stack), "aggregated representations")


Reference = Union[GramMatrix, Matrix]


def _expect_gram(reference: Reference, form: ProximalForm) -> GramMatrix:
    if not isinstance(reference, GramMatrix):
        raise ConfigError(f"form {form.value} needs a GramMatrix reference")
    return reference


def _expect_matrix(reference: Reference, form: ProximalForm, phi: Matrix) -> Matrix:
    if isinstance(reference, GramMatrix):
        raise ConfigError(f"form {form.value} needs a representation-matrix reference")
    phibar = as_matrix(reference, "reference representations")
    if phibar.shape != phi.shape:
        raise ShapeError(f"shapes differ: {phi.shape} vs {phibar.shape}")
    return phibar


def proximal_value(
    phi: Matrix, reference: Reference, form: ProximalForm, mu: float
) -> float:
    """mu-weighted penalty d(phi, reference) under the chosen form."""
    form = ProximalForm.parse(form)
    if mu < 0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    phi = as_matrix(phi, "phi")
    if form is ProximalForm.L2_REP:
        phibar = _expect_matrix(reference, form, phi)
        return mu * float(np.linalg.norm(phi - phibar))
    kbar = _expect_gram(reference, form)
    k = gram_linear(phi)
    if form is ProximalForm.TRACE_ALIGNMENT:
        return mu * trace_alignment(k, kbar)
    score = linear_cka(k, kbar)
    if form is ProximalForm.RAW_CKA:
        return mu * score
    return mu * (1.0 - score)


def proximal_grad(phi: Matrix, reference: Reference, form: ProximalForm) -> Matrix:
    """Gradient of the distance term d(phi, reference) with respect to phi.

    The mu factor is applied by the caller. With K = phi @ phi.T,
    T = trace(K @ Kbar), N = ||K||_F, M = ||Kbar||_F:

        TRACE_ALIGNMENT:  2 Kbar phi
        RAW_CKA:          (2/(N M)) (Kbar phi - (T/N^2) K phi)
        ONE_MINUS_CKA:    negation of the RAW_CKA gradient
        L2_REP:           (phi - phibar)/||phi - phibar||_F, zero subgradient
                          when the distance is <= EPS_GRAD
    """
    form = ProximalForm.parse(form)
    phi = as_matrix(phi, "phi")
    if form is ProximalForm.L2_REP:
        diff = phi - _expect_matrix(reference, form, phi)
        dist = float(np.linalg.norm(diff))
        if dist <= EPS_GRAD:
            return np.zeros_like(phi)
        return diff / dist
    kbar = _expect_gram(reference, form)
    if kbar.size != phi.shape[0]:
        raise ShapeError(f"reference size {kbar.size} != phi rows {phi.shape[0]}")
    if form is ProximalForm.TRACE_ALIGNMENT:
        return check_finite(2.0 * (kbar.entries @ phi), "trace-alignment gradient")
    k = gram_linear(phi)
    n = float(np.linalg.norm(k.entries))
    m = float(np.linalg.norm(kbar.entries))
    if n == 0.0 or m == 0.0:
        raise DegenerateInputError("similarity gradient undefined for a zero-norm gram")
    t = trace_alignment(k, kbar)
    grad = (2.0 / (n * m)) * (kbar.entries @ phi - (t / (n * n)) * (k.entries @ phi))
    if form is ProximalForm.ONE_MINUS_CKA:
        grad = -grad
    return check_finite(grad, "similarity gradient")
