"""Gram-matrix construction, linear kernel-alignment similarity, kernel and
representation aggregation, and the proximal penalty forms with analytic
gradients with respect to the activation matrix.

Every kernel is held, sent and stored in one form: an exact L x D factor F
with D <= L and K = F @ F.T. A client's linear Gram K = phi @ phi.T (phi is
L x d) is held as its canonical factor T, the L x min(d, L) factor of K whose
entries above the diagonal are exactly zero and whose diagonal is
nonnegative. For d <= L, with the QR decomposition phi[:d].T = Q R of the
top d x d block, T = phi @ Q with each column signed so that its diagonal
entry is nonnegative: the top block of phi @ Q is R.T. T is fixed by K alone
whenever that top block is nonsingular, so the factor carries the kernel and
nothing more. The weighted aggregate sum_k w_k K_k is the factor
[sqrt(w_1) F_1, ..., sqrt(w_N) F_N], in the order given. A factor with more
columns than rows is capped: with F.T = Q R it is replaced by R.T, each row
of R signed so that its diagonal entry is nonnegative, which is the L x L
Cholesky factor of K and again lower triangular. A lower-trapezoidal factor
of width w carries L w - w (w - 1) / 2 numbers, the entries on and below its
diagonal, and travels as just those (pack_factor, unpack_factor).

The similarity score between two L x L Gram matrices is

    score(Ki, Kj) = trace(Ki @ Kj) / (||Ki||_F * ||Kj||_F)

which for factors is ||Fi.T @ Fj||_F^2 / (||Fi.T @ Fi||_F ||Fj.T @ Fj||_F),
the feature-space form of linear CKA. Gram matrices are uncentered.

The proximal term never builds an L x L matrix. With the reference Kbar and
phi (L x d) it uses

    Kbar @ phi      = F @ (F.T @ phi)
    trace(K @ Kbar) = sum(phi * (Kbar @ phi))
    ||K||_F         = ||phi.T @ phi||_F
    K @ phi         = phi @ (phi.T @ phi)

so a step costs 2 L D d flops for Kbar @ phi plus O(L d^2), and
||Kbar||_F = ||F.T @ F||_F is computed once per GramMatrix object.

Sign convention of the proximal penalty: the prose intent is a *distance*
penalty, so the default training form is ONE_MINUS_CKA (penalize
dissimilarity). The literal ``+ mu * CKA`` reading is kept available as
RAW_CKA, and TRACE_ALIGNMENT (the unnormalized trace(K @ Kbar) quantity that
the bound checks manipulate) is used by the theory monitor. L2_REP penalizes
the Frobenius distance between representation matrices directly and is only
legal when all clients share a representation width; FedConfig refuses
l2_rep with unequal widths.

The aggregate and proximal functions trust what FedConfig and the wire
(federation._transmit) have checked, and check only for numerical failure:
proximal_value and proximal_grad take a ProximalForm, mu >= 0 and a
reference of the kind the form needs, and the aggregates take weights that
sum to 1 and payloads of one size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .numkit import Matrix, check_finite

# Near Phi == Phibar the L2 distance is non-differentiable; at a distance of
# at most EPS_GRAD times the largest entry magnitude of Phi and Phibar (they
# coincide up to roundoff, at any scale) the zero subgradient is returned.
EPS_GRAD = 1e-12


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD L x L kernel over the alignment rows, held as it is sent
    and stored: an L x D factor F with D <= L and K = F @ F.T."""

    data: Matrix

    def __post_init__(self):
        m = np.asarray(self.data, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] > m.shape[0]:
            raise ShapeError("gram data must be an L x D factor with D <= L, "
                             f"got shape {m.shape}")
        object.__setattr__(self, "data", m)

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def entries(self) -> Matrix:
        """The L x L entries F @ F.T, symmetrized exactly against roundoff;
        built on each request and never kept with the object."""
        k = self.data @ self.data.T
        return (k + k.T) / 2.0

    @cached_property
    def norm(self) -> float:
        """||K||_F = ||F.T @ F||_F, computed on first use and kept with the
        object."""
        return float(np.linalg.norm(self.data.T @ self.data))

    def times(self, x: Matrix) -> Matrix:
        """K @ x as F @ (F.T @ x)."""
        return self.data @ (self.data.T @ x)


def _kernel(f: Matrix) -> GramMatrix:
    """The kernel F @ F.T, held as F when F has at most as many columns as
    rows, else as the sign-fixed R.T of F.T = Q R (see the module
    docstring)."""
    if f.shape[1] > f.shape[0]:
        r = np.linalg.qr(f.T, mode="r")
        f = np.tril((r * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)[:, None]).T)
    return GramMatrix(f)


def canonical_factor(f: Matrix) -> GramMatrix:
    """The kernel F @ F.T, held as its canonical lower-trapezoidal factor of
    min(D, L) columns (see the module docstring). The entries above the
    diagonal are +0.0, so the factor survives pack_factor and unpack_factor
    bit for bit."""
    width = f.shape[1]
    if width > f.shape[0]:
        return _kernel(f)
    q, r = np.linalg.qr(f[:width].T)
    sign = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    t = f @ (q * sign)
    t[:width] = np.tril(r.T * sign)
    return GramMatrix(t)


def packed_size(rows: int, width: int) -> int:
    """The number of entries on and below the diagonal of a rows x width
    factor, width <= rows."""
    return rows * width - width * (width - 1) // 2


def pack_factor(k: GramMatrix) -> np.ndarray:
    """The entries on and below the diagonal of k's factor, row by row, as
    one vector of packed_size entries. A factor with a nonzero entry above
    its diagonal is refused, so no entry is dropped silently."""
    t = k.data
    width = t.shape[1]
    if np.triu(t[:width], 1).any():
        raise ShapeError("only a lower-trapezoidal factor can be packed")
    return np.concatenate([t[:width][np.tri(width, dtype=bool)], t[width:].ravel()])


def unpack_factor(v: np.ndarray, rows: int, width: int) -> GramMatrix:
    """The rows x width lower-trapezoidal factor that pack_factor made v
    from; a vector of any other length is refused."""
    if v.shape != (packed_size(rows, width),):
        raise ShapeError(f"a packed {rows} x {width} factor has "
                         f"{packed_size(rows, width)} entries, got shape {v.shape}")
    t = np.zeros((rows, width))
    head = width * (width + 1) // 2
    t[:width][np.tri(width, dtype=bool)] = v[:head]
    t[width:] = v[head:].reshape(rows - width, width)
    return GramMatrix(t)


class ProximalForm(enum.Enum):
    ONE_MINUS_CKA = "one_minus_cka"
    RAW_CKA = "raw_cka"
    TRACE_ALIGNMENT = "trace_alignment"
    L2_REP = "l2_rep"


def gram_linear(a: Matrix) -> GramMatrix:
    """K = A @ A.T, held as its canonical factor T (see the module
    docstring). A kernel whose trace ||T||_F^2, which bounds every entry,
    overflows raises NumericalFailureError."""
    k = canonical_factor(a)
    check_finite(float(np.vdot(k.data, k.data)), "linear gram")
    return k


def _unit_scaled(f: Matrix) -> Matrix:
    """f times the power of two that brings its largest magnitude into
    [0.5, 1). The scaling is exact, and the similarity score's sums of
    fourth powers of such entries neither overflow nor underflow."""
    return np.ldexp(f, -np.frexp(np.max(np.abs(f), initial=0.0))[1])


def linear_cka(ki: GramMatrix, kj: GramMatrix) -> float:
    """trace(Ki @ Kj) / (||Ki||_F ||Kj||_F), in [0, 1] for PSD inputs. The
    score does not depend on the scale of either kernel, so it is taken on
    unit-scaled factors: the powers of two cancel exactly, and a score whose
    terms stay inside float64 unscaled keeps its bits."""
    ki, kj = GramMatrix(_unit_scaled(ki.data)), GramMatrix(_unit_scaled(kj.data))
    t = trace_alignment(ki, kj)
    if ki.norm == 0.0 or kj.norm == 0.0:
        raise DegenerateInputError("similarity undefined for a zero-norm gram matrix")
    return t / (ki.norm * kj.norm)


def trace_alignment(ki: GramMatrix, kbar: GramMatrix) -> float:
    """sum_pq Ki[p,q] * Kbar[p,q], the trace of the product, as
    ||Fi.T @ Fbar||_F^2."""
    c = ki.data.T @ kbar.data
    return float(np.sum(c * c))


def aggregate_grams(pairs: Iterable[Tuple[float, GramMatrix]]) -> GramMatrix:
    """sum_k w_k K_k for weights that sum to 1. It is the factor
    [sqrt(w_1) F_1, ..., sqrt(w_N) F_N], capped at L columns, so equal inputs
    in equal order give equal bits."""
    return _kernel(np.concatenate([np.sqrt(w) * k.data for w, k in pairs], axis=1))


def aggregate_representations(pairs: Iterable[Tuple[float, Matrix]]) -> Matrix:
    """Entrywise weighted sum of representation matrices of equal shape,
    folded in the order given."""
    (w, p), *rest = pairs
    total = w * p
    for w, p in rest:
        total += w * p
    return check_finite(total, "aggregated representations")


Reference = Union[GramMatrix, Matrix]


def _kernel_distance(
    phi: Matrix, kbar: GramMatrix, form: ProximalForm, want_grad: bool
) -> Tuple[float, Optional[Matrix]]:
    """d(phi, Kbar) for a kernel form, and its gradient when wanted, from one
    Kbar @ phi product; see the module docstring."""
    kphi = check_finite(kbar.times(phi), "reference kernel product")
    t = check_finite(float((phi * kphi).sum()), "trace alignment")
    if form is ProximalForm.TRACE_ALIGNMENT:
        return t, check_finite(2.0 * kphi, "trace-alignment gradient") if want_grad else None
    g = check_finite(phi.T @ phi, "feature gram")
    gf = g.ravel()
    n = check_finite(math.sqrt(gf.dot(gf)), "gram norm")  # np.linalg.norm(g), bit for bit
    m = kbar.norm
    if n == 0.0 or m == 0.0:
        raise DegenerateInputError("similarity undefined for a zero-norm gram matrix")
    nm = check_finite(n * m, "gram norm product")
    raw = form is ProximalForm.RAW_CKA
    distance = t / nm if raw else 1.0 - t / nm
    if not want_grad:
        return distance, None
    n2 = check_finite(n * n, "gram norm square")
    # ONE_MINUS_CKA's sign rides on the scalar: IEEE negation is exact
    grad = ((2.0 if raw else -2.0) / nm) * (kphi - (t / n2) * (phi @ g))
    return distance, check_finite(grad, "similarity gradient")


def _distance(
    phi: Matrix, reference: Reference, form: ProximalForm, want_grad: bool
) -> Tuple[float, Optional[Matrix]]:
    """The distance term and, when wanted, its gradient with respect to phi.
    phi and the reference were checked where they entered: the
    representations by the objective or the upload, the reference by its
    transmission. Finite rows can still overflow the l2_rep distance, so it
    is checked before it is returned or divided by."""
    if form is not ProximalForm.L2_REP:
        return _kernel_distance(phi, reference, form, want_grad)
    diff = phi - reference
    dist = check_finite(float(np.linalg.norm(diff)), "representation distance")
    if not want_grad:
        return dist, None
    # entry magnitudes, not norms, set the scale: a norm of finite entries
    # can overflow, which would zero every gradient
    if dist <= EPS_GRAD * max(np.max(np.abs(phi)), np.max(np.abs(reference))):
        return dist, np.zeros_like(phi)
    return dist, diff / dist


def proximal_value(
    phi: Matrix, reference: Reference, form: ProximalForm, mu: float
) -> float:
    """mu-weighted penalty mu * d(phi, reference) under the chosen form."""
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
                          when the distance is <= EPS_GRAD times the largest
                          entry magnitude of phi and phibar

    A kernel form costs one Kbar @ phi product (2 L D d flops) and O(L d^2)
    more, with no L x L allocation; M is cached on the reference. A
    non-finite Kbar phi, t, G, N or normalizer raises NumericalFailureError.
    """
    return _distance(phi, reference, form, want_grad=True)
