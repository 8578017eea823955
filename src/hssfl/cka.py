"""Gram-matrix construction, linear kernel-alignment similarity, kernel and
representation aggregation, and the proximal penalty forms with analytic
gradients with respect to the activation matrix.

Every kernel is held, sent and stored as an exact factor when that is
smaller: a client's linear Gram K = phi @ phi.T (phi is L x d) is held as the
L x d factor U = phi @ V, with V the eigenvectors of the d x d matrix
phi.T @ phi, so U @ U.T = K, and the sign of each column of U is fixed so that
its largest-magnitude entry is positive. U is then fixed by K alone (for
distinct eigenvalues): the factor carries the kernel and nothing more. The
weighted aggregate sum_k w_k K_k is the factor F = [sqrt(w_1) U_1, ...,
sqrt(w_N) U_N] with D = sum_k d_k columns, in the order given. The rank rule
is automatic: a kernel is held densely, as its L x L entries, when its
factor would have at least L columns, and an aggregate is dense when any
input is.

The similarity score between two L x L Gram matrices is

    score(Ki, Kj) = trace(Ki @ Kj) / (||Ki||_F * ||Kj||_F)

which for factors is ||Fi.T @ Fj||_F^2 / (||Fi.T @ Fi||_F ||Fj.T @ Fj||_F),
the feature-space form of linear CKA. Gram matrices are uncentered.

The proximal term never builds an L x L matrix. With the reference Kbar and
phi (L x d) it uses

    Kbar @ phi      = F @ (F.T @ phi)      (Kbar @ phi when Kbar is dense)
    trace(K @ Kbar) = sum(phi * (Kbar @ phi))
    ||K||_F         = ||phi.T @ phi||_F
    K @ phi         = phi @ (phi.T @ phi)

so a step costs 2 L D d flops for Kbar @ phi (L^2 d for a dense Kbar) plus
O(L d^2), and ||Kbar||_F = ||F.T @ F||_F is computed once per GramMatrix
object.

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
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple, Union

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
    """Symmetric PSD L x L kernel over the alignment rows, held as it is sent
    and stored: an L x D factor F with K = F @ F.T when D < L, else the
    L x L entries. The column count tells the two apart."""

    data: Matrix

    def __post_init__(self):
        m = np.asarray(self.data, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] > m.shape[0]:
            raise ShapeError("gram data must be L x L entries or an L x D factor "
                             f"with D < L, got shape {m.shape}")
        if m.shape[1] == m.shape[0]:
            m = as_matrix(m, "gram entries")
            if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_TOL:
                raise ShapeError("gram matrix is not symmetric")
        object.__setattr__(self, "data", m)

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def factor(self) -> Optional[Matrix]:
        """The L x D factor, or None when the kernel is held densely."""
        return self.data if self.data.shape[1] < self.data.shape[0] else None

    @cached_property
    def entries(self) -> Matrix:
        """The L x L entries; for a factor, built on first use."""
        f = self.factor
        return self.data if f is None else _outer(f)

    @cached_property
    def norm(self) -> float:
        """||K||_F (= ||F.T @ F||_F for a factor), computed on first use and
        kept with the object."""
        f = self.factor
        return float(np.linalg.norm(self.data if f is None else f.T @ f))

    def times(self, x: Matrix) -> Matrix:
        """K @ x, as F @ (F.T @ x) for a factor."""
        f = self.factor
        return self.data @ x if f is None else f @ (f.T @ x)


def _outer(f: Matrix) -> Matrix:
    """F @ F.T, symmetrized exactly against roundoff."""
    k = f @ f.T
    return (k + k.T) / 2.0


def _kernel(f: Matrix, name: str) -> GramMatrix:
    """The kernel F @ F.T, held as F unless F has at least as many columns
    as rows (the rank rule)."""
    if f.shape[1] < f.shape[0]:
        return GramMatrix(f)
    return GramMatrix(check_finite(_outer(f), name))


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
    """K = A @ A.T, held as the canonical factor U = A @ V when A has fewer
    columns than rows (see the module docstring), else densely."""
    a = as_matrix(a, "activations")
    if a.shape[1] < a.shape[0]:
        _, v = np.linalg.eigh(check_finite(a.T @ a, "linear gram"))
        a = a @ v
        peak = a[np.argmax(np.abs(a), axis=0), np.arange(a.shape[1])]
        a = a * np.where(peak < 0.0, -1.0, 1.0)
    return _kernel(a, "linear gram")


def _same_size(ki: GramMatrix, kj: GramMatrix) -> None:
    if ki.size != kj.size:
        raise ShapeError(f"gram sizes differ: {ki.size} vs {kj.size}")


def linear_cka(ki: GramMatrix, kj: GramMatrix) -> float:
    """trace(Ki @ Kj) / (||Ki||_F ||Kj||_F), in [0, 1] for PSD inputs."""
    t = trace_alignment(ki, kj)
    if ki.norm == 0.0 or kj.norm == 0.0:
        raise DegenerateInputError("similarity undefined for a zero-norm gram matrix")
    return t / (ki.norm * kj.norm)


def trace_alignment(ki: GramMatrix, kbar: GramMatrix) -> float:
    """sum_pq Ki[p,q] * Kbar[p,q], the trace of the product: ||Fi.T @ Fbar||_F^2
    for two factors, sum(F * (K @ F)) when one is dense."""
    _same_size(ki, kbar)
    fi, fbar = ki.factor, kbar.factor
    if fi is not None and fbar is not None:
        c = fi.T @ fbar
        return float(np.sum(c * c))
    if fi is not None:
        return float(np.sum(fi * kbar.times(fi)))
    if fbar is not None:
        return float(np.sum(fbar * ki.times(fbar)))
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


def _weighted_sum(pairs: Sequence[Tuple[float, Matrix]]) -> Matrix:
    """sum_k w_k M_k as one running sum, folded in the order given."""
    total = pairs[0][0] * pairs[0][1]
    for w, m in pairs[1:]:
        total += w * m
    return total


def aggregate_grams(pairs: Iterable[Tuple[float, GramMatrix]]) -> GramMatrix:
    """sum_k w_k K_k; weights must sum to 1. For factors it is the factor
    [sqrt(w_1) F_1, ..., sqrt(w_N) F_N], held densely under the rank rule;
    with any dense input it is the entrywise sum, folded in the order given.
    Either way equal inputs in equal order give equal bits."""
    pairs = list(pairs)
    if not pairs:
        raise ConfigError("nothing to aggregate")
    weights = [w for w, _ in pairs]
    _check_weights(weights)
    size = pairs[0][1].size
    for _, k in pairs:
        if k.size != size:
            raise ShapeError(f"gram sizes differ: {k.size} vs {size}")
    if all(k.factor is not None for _, k in pairs):
        return _kernel(np.concatenate([np.sqrt(w) * k.factor for w, k in pairs], axis=1),
                       "aggregated gram")
    total = _weighted_sum([(w, k.entries) for w, k in pairs])
    return GramMatrix(check_finite(total, "aggregated gram"))


def aggregate_representations(pairs: Iterable[Tuple[float, Matrix]]) -> Matrix:
    """Entrywise weighted sum of representation matrices of equal shape,
    folded in the order given."""
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
    return check_finite(_weighted_sum(pairs), "aggregated representations")


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


def _kernel_distance(
    phi: Matrix, kbar: GramMatrix, form: ProximalForm, want_grad: bool
) -> Tuple[float, Optional[Matrix]]:
    """d(phi, Kbar) for a kernel form, and its gradient when wanted, from one
    Kbar @ phi product; see the module docstring."""
    if kbar.size != phi.shape[0]:
        raise ShapeError(f"reference size {kbar.size} != phi rows {phi.shape[0]}")
    kphi = check_finite(kbar.times(phi), "reference kernel product")
    t = check_finite(float((phi * kphi).sum()), "trace alignment")
    if form is ProximalForm.TRACE_ALIGNMENT:
        return t, check_finite(2.0 * kphi, "trace-alignment gradient") if want_grad else None
    g = check_finite(phi.T @ phi, "feature gram")
    n = check_finite(float(np.linalg.norm(g)), "gram norm")
    m = kbar.norm
    if n == 0.0 or m == 0.0:
        raise DegenerateInputError("similarity undefined for a zero-norm gram matrix")
    nm = check_finite(n * m, "gram norm product")
    raw = form is ProximalForm.RAW_CKA
    distance = t / nm if raw else 1.0 - t / nm
    if not want_grad:
        return distance, None
    n2 = check_finite(n * n, "gram norm square")
    grad = (2.0 / nm) * (kphi - (t / n2) * (phi @ g))
    return distance, check_finite(grad if raw else -grad, "similarity gradient")


def _distance(
    phi: Matrix, reference: Reference, form: ProximalForm, want_grad: bool
) -> Tuple[float, Optional[Matrix]]:
    """The distance term and, when wanted, its gradient with respect to phi."""
    phi = as_matrix(phi, "phi")
    if form is not ProximalForm.L2_REP:
        return _kernel_distance(phi, _expect_gram(reference, form), form, want_grad)
    diff = phi - _expect_matrix(reference, form, phi)
    dist = float(np.linalg.norm(diff))
    if not want_grad:
        return dist, None
    if dist <= EPS_GRAD:
        return dist, np.zeros_like(phi)
    return dist, diff / dist


def proximal_value(
    phi: Matrix, reference: Reference, form: ProximalForm, mu: float
) -> float:
    """mu-weighted penalty mu * d(phi, reference) under the chosen form."""
    form = ProximalForm.parse(form)
    if mu < 0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    return mu * _distance(phi, reference, form, want_grad=False)[0]


def proximal_grad(
    phi: Matrix, reference: Reference, form: ProximalForm
) -> Tuple[float, Matrix]:
    """The distance term d(phi, reference) and its gradient with respect to
    phi, as (distance, grad).

    The mu factor is applied by the caller: mu * distance is the float
    proximal_value returns. With Kbar phi = Kbar @ phi, t = sum(phi * Kbar phi)
    (= trace(K @ Kbar) for K = phi @ phi.T), G = phi.T @ phi, N = ||G||_F
    (= ||K||_F) and M = ||Kbar||_F:

        TRACE_ALIGNMENT:  distance t,           gradient 2 Kbar phi
        RAW_CKA:          distance t/(N M),     gradient (2/(N M)) (Kbar phi - (t/N^2) phi G)
        ONE_MINUS_CKA:    distance 1 - t/(N M), gradient the negated RAW_CKA one
        L2_REP:           distance ||phi - phibar||_F, gradient
                          (phi - phibar)/||phi - phibar||_F, zero subgradient
                          when the distance is <= EPS_GRAD

    A kernel form costs one Kbar @ phi product (2 L D d flops for a factored
    reference, L^2 d for a dense one) and O(L d^2) more, with no L x L
    allocation; M is cached on the reference. A non-finite Kbar phi, t, G,
    N or normalizer raises NumericalFailureError.
    """
    return _distance(phi, reference, ProximalForm.parse(form), want_grad=True)
