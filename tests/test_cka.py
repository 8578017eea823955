import numpy as np
import pytest

from hssfl.cka import (
    GramMatrix,
    ProximalForm,
    aggregate_grams,
    aggregate_representations,
    gram_linear,
    linear_cka,
    proximal_grad,
    proximal_value,
    trace_alignment,
)
from hssfl.errors import (
    ConfigError,
    DegenerateInputError,
    NumericalFailureError,
    ShapeError,
    UnsupportedCombinationError,
)
from hssfl.numkit import RngStream


def random_activations(seed, rows=4, cols=3):
    return RngStream(seed, purpose="act").generator().normal(size=(rows, cols))


def random_psd_gram(seed, size=4):
    b = RngStream(seed, purpose="psd").generator().normal(size=(size, size + 1))
    return gram_linear(b)


def fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / scale


class TestGramLinear:
    def test_orthonormal_rows(self):
        assert np.array_equal(gram_linear(np.eye(2)).entries, np.eye(2))

    def test_dot_product_oracle(self):
        assert gram_linear(np.array([[1.0, 2.0]])).entries[0, 0] == pytest.approx(5.0)

    def test_overflow_is_numerical_failure(self):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailureError, match="non-finite values in linear gram"):
                gram_linear(np.full((2, 2), 1e200))

    def test_right_orthogonal_invariance(self):
        a = random_activations(0, 5, 4)
        q, _ = np.linalg.qr(random_activations(1, 4, 4))
        assert np.allclose(gram_linear(a).entries, gram_linear(a @ q).entries)

    def test_psd_by_brute_eigenvalues(self):
        for seed in range(10):
            k = gram_linear(random_activations(seed, 5, 3))
            eigs = np.linalg.eigvalsh(k.entries)
            assert eigs.min() >= -1e-9 * np.linalg.norm(k.entries)

    def test_symmetric(self):
        k = gram_linear(random_activations(2, 6, 2))
        assert np.array_equal(k.entries, k.entries.T)


class TestLinearCka:
    def test_self_similarity(self):
        k = random_psd_gram(4)
        assert linear_cka(k, k) == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm_oracle(self):
        ki = GramMatrix(np.eye(2))
        kj = GramMatrix(np.ones((2, 2)))
        assert linear_cka(ki, kj) == pytest.approx(2.0 / (np.sqrt(2.0) * 2.0))

    def test_scaling_invariance(self):
        a = random_activations(5, 6, 3)
        for c in (0.3, -2.0, 17.0):
            assert linear_cka(gram_linear(a), gram_linear(c * a)) == pytest.approx(1.0)

    def test_matches_activation_form(self):
        # the Gram-space ratio equals the cross-covariance formulation
        ai = random_activations(6, 5, 3)
        aj = random_activations(7, 5, 4)
        direct = (
            np.linalg.norm(aj.T @ ai) ** 2
            / (np.linalg.norm(ai.T @ ai) * np.linalg.norm(aj.T @ aj))
        )
        assert linear_cka(gram_linear(ai), gram_linear(aj)) == pytest.approx(direct)

    def test_range_and_proportionality(self):
        # Cauchy-Schwarz oracle: score <= 1 with equality iff proportional
        for seed in range(20):
            ki = random_psd_gram(seed, 4)
            kj = random_psd_gram(seed + 100, 4)
            s = linear_cka(ki, kj)
            assert 0.0 <= s <= 1.0 + 1e-12
            prop = linear_cka(ki, GramMatrix(3.0 * ki.entries))
            assert prop == pytest.approx(1.0, abs=1e-12)
            if not np.allclose(
                ki.entries / np.linalg.norm(ki.entries),
                kj.entries / np.linalg.norm(kj.entries),
            ):
                assert s < 1.0

    def test_zero_gram_degenerate(self):
        with pytest.raises(DegenerateInputError):
            linear_cka(GramMatrix(np.zeros((2, 2))), GramMatrix(np.eye(2)))


class TestTraceAlignment:
    def test_zero(self):
        k = random_psd_gram(10)
        assert trace_alignment(k, GramMatrix(np.zeros_like(k.entries))) == 0.0

    def test_direct_sum_oracle(self):
        assert trace_alignment(GramMatrix(np.eye(2)), GramMatrix(np.eye(2))) == 2.0

    def test_equals_frobenius_inner(self):
        ki = random_psd_gram(11)
        kj = random_psd_gram(12)
        assert trace_alignment(ki, kj) == pytest.approx(
            np.trace(ki.entries @ kj.entries)
        )


class TestAggregation:
    def test_single_client(self):
        k = random_psd_gram(13)
        assert np.array_equal(aggregate_grams([(1.0, k)]).entries, k.entries)

    def test_weighted_mean_oracle(self):
        k1 = GramMatrix(np.eye(3))
        k2 = GramMatrix(3.0 * np.eye(3))
        agg = aggregate_grams([(0.5, k1), (0.5, k2)])
        assert np.array_equal(agg.entries, 2.0 * np.eye(3))

    def test_permutation_bit_identical(self):
        pairs = [(0.2, random_psd_gram(s)) for s in range(14, 19)]
        pairs[0] = (0.2, pairs[0][1])
        a = aggregate_grams(pairs).entries
        b = aggregate_grams(list(reversed(pairs))).entries
        assert a.tobytes() == b.tobytes()

    def test_weight_sum_enforced(self):
        with pytest.raises(ConfigError):
            aggregate_grams([(0.7, random_psd_gram(20))])

    def test_non_finite_weight_rejected(self):
        k = random_psd_gram(20)
        with pytest.raises(ConfigError, match="finite"):
            aggregate_grams([(0.5, k), (0.5, k), (float("nan"), k)])

    def test_preserves_symmetry_and_psd(self):
        pairs = [(0.25, random_psd_gram(s, 5)) for s in range(4)]
        agg = aggregate_grams(pairs)
        assert np.array_equal(agg.entries, agg.entries.T)
        assert np.linalg.eigvalsh(agg.entries).min() >= -1e-9 * np.linalg.norm(agg.entries)

    def test_representations_single(self):
        phi = random_activations(21, 4, 3)
        assert np.array_equal(aggregate_representations([(1.0, phi)]), phi)

    def test_representations_mean(self):
        phi = random_activations(22, 4, 3)
        agg = aggregate_representations([(0.5, np.zeros_like(phi)), (0.5, phi)])
        assert np.allclose(agg, phi / 2.0)

    def test_mixed_widths_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            aggregate_representations(
                [(0.5, np.ones((4, 4))), (0.5, np.ones((4, 8)))]
            )


class TestProximalValue:
    def test_mu_zero_all_forms(self):
        phi = random_activations(23, 4, 3)
        kbar = random_psd_gram(24)
        for form in (ProximalForm.ONE_MINUS_CKA, ProximalForm.RAW_CKA,
                     ProximalForm.TRACE_ALIGNMENT):
            assert proximal_value(phi, kbar, form, 0.0) == 0.0
        assert proximal_value(phi, phi.copy(), ProximalForm.L2_REP, 0.0) == 0.0

    def test_l2_at_reference(self):
        phi = random_activations(25, 4, 3)
        assert proximal_value(phi, phi.copy(), ProximalForm.L2_REP, 2.0) == 0.0

    def test_one_minus_cka_at_match(self):
        phi = random_activations(26, 4, 3)
        val = proximal_value(phi, gram_linear(phi), ProximalForm.ONE_MINUS_CKA, 1.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_form_reference_mismatch(self):
        phi = random_activations(27, 4, 3)
        with pytest.raises(ConfigError):
            proximal_value(phi, phi, ProximalForm.RAW_CKA, 1.0)
        with pytest.raises(ConfigError):
            proximal_value(phi, gram_linear(phi), ProximalForm.L2_REP, 1.0)


class TestProximalGrad:
    def test_trace_alignment_zero_reference(self):
        phi = random_activations(28, 3, 2)
        g = proximal_grad(phi, GramMatrix(np.zeros((3, 3))), ProximalForm.TRACE_ALIGNMENT)
        assert np.array_equal(g, np.zeros_like(phi))

    @pytest.mark.parametrize("form", [
        ProximalForm.TRACE_ALIGNMENT,
        ProximalForm.RAW_CKA,
        ProximalForm.ONE_MINUS_CKA,
    ])
    def test_finite_difference_oracle_kernel_forms(self, form):
        for seed in range(20):
            phi = random_activations(100 + seed, 3, 2)
            kbar = random_psd_gram(300 + seed, 3)
            analytic = proximal_grad(phi, kbar, form)
            numeric = fd_grad(lambda p: proximal_value(p, kbar, form, 1.0), phi)
            assert rel_err(analytic, numeric) < 1e-6

    def test_finite_difference_oracle_l2(self):
        for seed in range(20):
            phi = random_activations(500 + seed, 3, 2)
            phibar = random_activations(700 + seed, 3, 2)
            analytic = proximal_grad(phi, phibar, ProximalForm.L2_REP)
            numeric = fd_grad(
                lambda p: proximal_value(p, phibar, ProximalForm.L2_REP, 1.0), phi
            )
            assert rel_err(analytic, numeric) < 1e-6

    def test_l2_subgradient_at_zero(self):
        phi = random_activations(29, 3, 2)
        g = proximal_grad(phi, phi.copy(), ProximalForm.L2_REP)
        assert np.array_equal(g, np.zeros_like(phi))

    def test_scale_direction_orthogonality(self):
        # the score is scale-invariant, so at gram(phi) = c * kbar the
        # gradient has no component along phi
        for seed in range(10):
            phi = random_activations(900 + seed, 4, 3)
            kbar = GramMatrix(0.5 * gram_linear(phi).entries)
            g = proximal_grad(phi, kbar, ProximalForm.RAW_CKA)
            assert abs(np.sum(g * phi)) < 1e-8


class TestGramMatrixType:
    def test_symmetry_enforced(self):
        with pytest.raises(ShapeError):
            GramMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_square_enforced(self):
        with pytest.raises(ShapeError):
            GramMatrix(np.ones((2, 3)))
