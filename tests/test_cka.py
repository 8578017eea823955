import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hssfl.cka import (
    GramMatrix,
    ProximalForm,
    _kernel,
    aggregate_grams,
    aggregate_representations,
    gram_linear,
    linear_cka,
    pack_factor,
    packed_size,
    proximal_grad,
    proximal_value,
    trace_alignment,
    unpack_factor,
)
from hssfl.errors import (
    ConfigError,
    DegenerateInputError,
    NumericalFailureError,
    ShapeError,
    UnsupportedCombinationError,
)
from hssfl.federation import FedConfig
from hssfl.numkit import RngStream
from hssfl.sslnet import MlpSpec


def random_activations(seed, rows=4, cols=3):
    return RngStream(seed, purpose="act").generator().normal(size=(rows, cols))


def random_psd_gram(seed, size=4):
    b = RngStream(seed, purpose="psd").generator().normal(size=(size, size + 1))
    return gram_linear(b)


def fed_cfg(widths, **overrides):
    """A config of one client per output width: the source of the weights
    and widths that the aggregates take on trust."""
    base = dict(num_clients=len(widths), rounds=1, local_epochs=1, eta=0.01,
                momentum=0.0, batch_size=8, mu=0.5, proximal_form="one_minus_cka",
                tau=0.99, client_specs=tuple(MlpSpec((4, w), "relu") for w in widths),
                rad_size=4, seed=0)
    base.update(overrides)
    return FedConfig(**base)


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
        kj = GramMatrix(np.ones((2, 1)))
        assert linear_cka(ki, kj) == pytest.approx(2.0 / (np.sqrt(2.0) * 2.0))

    def test_scaling_invariance(self):
        a = random_activations(5, 6, 3)
        for c in (0.3, -2.0, 17.0):
            assert linear_cka(gram_linear(a), gram_linear(c * a)) == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1e-100, 1e-80, 1e80, 1e100])
    def test_score_at_extreme_scales(self, scale):
        # the fourth powers of the entries leave float64 at these scales
        x, y = random_activations(7, 10, 4), random_activations(8, 10, 3)
        want = linear_cka(gram_linear(x), gram_linear(y))
        got = linear_cka(gram_linear(scale * x), gram_linear(scale * y))
        assert got == pytest.approx(want, rel=1e-12)

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
            prop = linear_cka(ki, GramMatrix(np.sqrt(3.0) * ki.data))
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
        assert trace_alignment(k, GramMatrix(np.zeros_like(k.data))) == 0.0

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
        k2 = GramMatrix(np.sqrt(3.0) * np.eye(3))
        agg = aggregate_grams([(0.5, k1), (0.5, k2)])
        assert rel_err(agg.entries, 2.0 * np.eye(3)) <= 1e-15

    def test_folds_in_the_order_given(self):
        pairs = [(w, gram_linear(random_activations(s, 8, 2)))
                 for w, s in zip((0.1, 0.2, 0.3, 0.4), range(14, 18))]
        expected = np.concatenate([np.sqrt(w) * k.data for w, k in pairs], axis=1)
        assert aggregate_grams(pairs).data.tobytes() == expected.tobytes()
        phis = [(w, random_activations(s)) for w, s in zip((0.5, 0.25, 0.25), range(3))]
        expected = (0.5 * phis[0][1] + 0.25 * phis[1][1]) + 0.25 * phis[2][1]
        assert aggregate_representations(phis).tobytes() == expected.tobytes()

    # The aggregates trust their weights and widths; FedConfig, which
    # supplies both, refuses bad ones before a round starts.
    def test_weight_sum_enforced(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            fed_cfg([4], client_weights=(0.7,))

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            fed_cfg([4, 4, 4], client_weights=(0.5, 0.5, float("nan")))

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
        with pytest.raises(UnsupportedCombinationError, match=r"\[4, 8\]"):
            fed_cfg([4, 8], proximal_form="l2_rep")
        fed_cfg([4, 8])  # a kernel form takes mixed widths


KERNEL_FORMS = [
    ProximalForm.TRACE_ALIGNMENT,
    ProximalForm.RAW_CKA,
    ProximalForm.ONE_MINUS_CKA,
]

# A diverged phi: Kbar phi and t overflow (1e200 against the identity), or,
# for the normalized forms, only ||phi.T phi||_F does (1e100 against a tiny
# reference), which without a check would make the similarity silently 0.
OVERFLOW_CASES = [
    pytest.param(form, np.full((2, 2), 1e200), GramMatrix(np.eye(2)),
                 id=f"{form.value}-product")
    for form in KERNEL_FORMS
] + [
    pytest.param(form, np.full((2, 2), 1e100), GramMatrix(1e-125 * np.eye(2)),
                 id=f"{form.value}-norm")
    for form in (ProximalForm.RAW_CKA, ProximalForm.ONE_MINUS_CKA)
]


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

    @pytest.mark.parametrize("form, phi, kbar", OVERFLOW_CASES)
    def test_overflow_is_numerical_failure(self, form, phi, kbar):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailureError, match="non-finite values in"):
                proximal_value(phi, kbar, form, 1.0)


class TestProximalGrad:
    def test_trace_alignment_zero_reference(self):
        phi = random_activations(28, 3, 2)
        _, g = proximal_grad(phi, GramMatrix(np.zeros((3, 3))), ProximalForm.TRACE_ALIGNMENT)
        assert np.array_equal(g, np.zeros_like(phi))

    @pytest.mark.parametrize("form", KERNEL_FORMS)
    def test_finite_difference_oracle_kernel_forms(self, form):
        for seed in range(20):
            phi = random_activations(100 + seed, 3, 2)
            kbar = random_psd_gram(300 + seed, 3)
            _, analytic = proximal_grad(phi, kbar, form)
            numeric = fd_grad(lambda p: proximal_value(p, kbar, form, 1.0), phi)
            assert rel_err(analytic, numeric) < 1e-6

    def test_finite_difference_oracle_l2(self):
        for seed in range(20):
            phi = random_activations(500 + seed, 3, 2)
            phibar = random_activations(700 + seed, 3, 2)
            _, analytic = proximal_grad(phi, phibar, ProximalForm.L2_REP)
            numeric = fd_grad(
                lambda p: proximal_value(p, phibar, ProximalForm.L2_REP, 1.0), phi
            )
            assert rel_err(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("form, phi, kbar", OVERFLOW_CASES)
    def test_overflow_is_numerical_failure(self, form, phi, kbar):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailureError, match="non-finite values in"):
                proximal_grad(phi, kbar, form)

    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("form", KERNEL_FORMS)
    def test_explicit_gram_oracle(self, form, d):
        phi = random_activations(40 + d, 300, d)
        kbar = random_psd_gram(60 + d, 300)
        k = phi @ phi.T
        t = np.sum(k * kbar.entries)
        nm = np.linalg.norm(k) * np.linalg.norm(kbar.entries)
        if form is ProximalForm.TRACE_ALIGNMENT:
            want_value, want_grad = t, 2.0 * kbar.entries @ phi
        else:
            want_value = t / nm
            want_grad = (2.0 / nm) * (kbar.entries @ phi
                                      - (t / np.linalg.norm(k) ** 2) * (k @ phi))
            if form is ProximalForm.ONE_MINUS_CKA:
                want_value, want_grad = 1.0 - want_value, -want_grad
        distance, grad = proximal_grad(phi, kbar, form)
        assert abs(distance - want_value) <= 1e-12 * abs(want_value)
        assert rel_err(grad, want_grad) <= 1e-12
        if form is ProximalForm.ONE_MINUS_CKA:  # the raw gradient negated, bit for bit
            assert grad.tobytes() == (-proximal_grad(phi, kbar, ProximalForm.RAW_CKA)[1]).tobytes()
        for mu in (0.5, 1.0, 3.7):
            assert proximal_value(phi, kbar, form, mu) == mu * distance

    def test_l2_subgradient_at_zero(self):
        phi = random_activations(29, 3, 2)
        _, g = proximal_grad(phi, phi.copy(), ProximalForm.L2_REP)
        assert np.array_equal(g, np.zeros_like(phi))

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_l2_subgradient_threshold_is_scale_free(self, scale):
        # the zero subgradient is kept at coincidence, at every scale, and
        # only there: a pair apart by far more than roundoff has unit slope
        phi = scale * random_activations(29, 3, 2)
        _, g = proximal_grad(phi, phi.copy(), ProximalForm.L2_REP)
        assert np.array_equal(g, np.zeros_like(phi))
        _, g = proximal_grad(phi, phi * (1.0 + 1e-9), ProximalForm.L2_REP)
        assert np.linalg.norm(g) == pytest.approx(1.0)

    def test_scale_direction_orthogonality(self):
        # the score is scale-invariant, so at gram(phi) = c * kbar the
        # gradient has no component along phi
        for seed in range(10):
            phi = random_activations(900 + seed, 4, 3)
            kbar = GramMatrix(np.sqrt(0.5) * gram_linear(phi).data)
            _, g = proximal_grad(phi, kbar, ProximalForm.RAW_CKA)
            assert abs(np.sum(g * phi)) < 1e-8


class TestGramMatrixType:
    def test_norm_cached_once(self, monkeypatch):
        k = random_psd_gram(31, 5)
        other = random_psd_gram(32, 5)
        phi = random_activations(33, 5, 3)
        gram = k.data.T @ k.data
        seen = []
        real_norm = np.linalg.norm

        def counted(x, *args, **kwargs):
            seen.append(x.shape == gram.shape and np.array_equal(x, gram))
            return real_norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        assert k.norm == real_norm(gram)
        linear_cka(k, other)
        for form in KERNEL_FORMS:
            proximal_grad(phi, k, form)
            proximal_value(phi, k, form, 1.0)
        assert k.norm == real_norm(gram)
        assert sum(seen) == 1

    def test_entries_built_on_each_request_and_never_kept(self):
        k = random_psd_gram(34, 40)
        entries = k.entries
        assert "entries" not in vars(k)
        kk = k.data @ k.data.T
        assert entries.tobytes() == ((kk + kk.T) / 2.0).tobytes()
        assert k.entries is not entries
        assert k.entries.tobytes() == entries.tobytes()

    def test_square_enforced(self):
        with pytest.raises(ShapeError):
            GramMatrix(np.ones((2, 3)))

    def test_factor_of_at_most_l_columns(self):
        for shape in ((3, 1), (3, 2), (3, 3)):
            k = GramMatrix(np.ones(shape))
            assert k.data.shape == shape
            assert np.array_equal(k.entries, np.full((3, 3), float(shape[1])))
        for bad in (np.ones(3), np.ones((3, 4)), np.ones((3, 2, 1))):
            with pytest.raises(ShapeError, match="L x D factor with D <= L"):
                GramMatrix(bad)


def rel_close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


class TestFactoredOracle:
    """Factored kernels against their explicit L x L entries, or against
    another factor of the same kernel, at L = 300, to 1e-12 relative."""

    L = 300

    def factored(self, seed, d):
        k = gram_linear(random_activations(seed, self.L, d))
        assert k.data.shape == (self.L, d)
        return k

    def test_entries_equal_the_explicit_gram(self):
        phi = random_activations(1, self.L, 8)
        k = gram_linear(phi)
        assert k.data.shape == (self.L, 8)
        assert rel_err(k.entries, phi @ phi.T) <= 1e-12
        assert np.array_equal(k.entries, k.entries.T)
        assert rel_close(k.norm, np.linalg.norm(phi @ phi.T))

    def test_similarity_and_alignment(self):
        ki, kj = self.factored(2, 8), self.factored(3, 16)
        t = np.sum(ki.entries * kj.entries)
        assert rel_close(trace_alignment(ki, kj), t)
        assert rel_close(linear_cka(ki, kj),
                         t / (np.linalg.norm(ki.entries) * np.linalg.norm(kj.entries)))

    @pytest.mark.parametrize("form", KERNEL_FORMS)
    def test_proximal_value_and_grad(self, form):
        phi = random_activations(4, self.L, 16)
        kbar = aggregate_grams([(0.5, self.factored(5, 8)), (0.5, self.factored(6, 16))])
        assert kbar.data.shape == (self.L, 24)
        # the same kernel through another factor
        q, _ = np.linalg.qr(random_activations(7, 24, 24))
        rotated = GramMatrix(kbar.data @ q)
        distance, grad = proximal_grad(phi, kbar, form)
        want_distance, want_grad = proximal_grad(phi, rotated, form)
        assert rel_close(distance, want_distance)
        assert rel_err(grad, want_grad) <= 1e-12
        assert rel_close(proximal_value(phi, kbar, form, 0.5),
                         proximal_value(phi, rotated, form, 0.5))

    def test_aggregate_is_the_weighted_sum(self):
        weights = (0.1, 0.2, 0.3, 0.4)
        ks = [self.factored(10 + i, d) for i, d in enumerate((8, 8, 16, 4))]
        agg = aggregate_grams(list(zip(weights, ks)))
        assert agg.data.shape == (self.L, 36)
        want = sum(w * k.entries for w, k in zip(weights, ks))
        assert rel_err(agg.entries, want) <= 1e-12


class TestRankRule:
    """A kernel has rank at most L, and so does its factor: one with more
    than L columns is capped to the L x L triangular factor of the kernel."""

    def test_factor_depends_on_the_kernel_only(self):
        a = random_activations(20, 300, 8)
        q, _ = np.linalg.qr(random_activations(21, 8, 8))
        u, v = gram_linear(a).data, gram_linear(a @ q).data
        assert rel_err(u, v) <= 1e-12

    def test_sign_rule(self):
        # lower trapezoidal, each column signed so its diagonal entry is >= 0
        t = gram_linear(random_activations(22, 50, 6)).data
        assert np.array_equal(t, np.tril(t))
        assert np.all(np.diagonal(t) > 0)
        r = np.linalg.qr(random_activations(22, 50, 6).T, mode="r")
        assert rel_err(t, (r * np.sign(np.diagonal(r))[:, None]).T) <= 1e-12

    @pytest.mark.parametrize("rows, cols", [(5, 5), (5, 7)])
    def test_upload_capped_when_d_at_least_l(self, rows, cols):
        a = random_activations(23, rows, cols)
        k = gram_linear(a)
        assert k.data.shape == (rows, rows)
        assert rel_err(k.entries, a @ a.T) <= 1e-12

    def test_capped_factor_has_l_columns(self):
        f = random_activations(24, 6, 10)
        k = _kernel(f)
        assert k.data.shape == (6, 6)
        assert np.array_equal(k.data, np.tril(k.data))
        assert np.all(np.diagonal(k.data) >= 0.0)
        assert rel_err(k.entries, f @ f.T) <= 1e-12
        assert rel_err(k.data, np.linalg.cholesky(f @ f.T)) <= 1e-12

    def test_cap_depends_on_the_kernel_only(self):
        f = random_activations(25, 6, 10)
        q, _ = np.linalg.qr(random_activations(26, 10, 10))
        assert rel_err(_kernel(f @ q).data, _kernel(f).data) <= 1e-12

    def test_aggregate_capped_when_d_sum_above_l(self):
        # 20 clients with d = 6 at L = 24 (D = 120), as in the fleet workload
        ks = [gram_linear(random_activations(30 + i, 24, 6)) for i in range(20)]
        assert all(k.data.shape == (24, 6) for k in ks)
        agg = aggregate_grams([(0.05, k) for k in ks])
        assert agg.data.shape == (24, 24)
        assert rel_err(agg.entries, sum(0.05 * k.entries for k in ks)) <= 1e-12
        # D = L is held as it is: the factor fits
        four = aggregate_grams([(0.25, k) for k in ks[:4]])
        assert np.array_equal(four.data, np.concatenate([0.5 * k.data for k in ks[:4]], axis=1))

    def test_aggregate_factored_below_l(self):
        ks = [gram_linear(random_activations(60 + i, 24, 6)) for i in range(3)]
        weights = (0.5, 0.25, 0.25)
        agg = aggregate_grams(list(zip(weights, ks)))
        assert agg.data.shape == (24, 18)
        want = np.concatenate([np.sqrt(w) * k.data for w, k in zip(weights, ks)], axis=1)
        assert agg.data.tobytes() == want.tobytes()

    def test_aggregate_capped_when_any_input_capped(self):
        factored = gram_linear(random_activations(70, 24, 6))
        capped = gram_linear(random_activations(71, 24, 30))
        assert capped.data.shape == (24, 24)
        agg = aggregate_grams([(0.5, factored), (0.5, capped)])
        assert agg.data.shape == (24, 24)
        assert rel_err(agg.entries, 0.5 * factored.entries + 0.5 * capped.entries) <= 1e-12

    def test_factor_overflow_is_numerical_failure(self):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailureError, match="non-finite values in linear gram"):
                gram_linear(np.full((3, 2), 1e200))


# Property tests of the factor algebra. Draws are derandomized, so every run
# checks the same examples.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# Entrywise error of a kernel built from factors, relative to sum_k w_k
# ||phi_k||_F^2 (the largest a kernel entry can be): eigh and QR move an entry
# by about d eps of that, d <= 60.
KERNEL_RTOL = 1e-12
# Absolute roundoff allowed on a linear CKA score, which lies in [0, 1].
CKA_ATOL = 1e-12


@st.composite
def activations(draw, rows, min_exp=-100, max_exp=100):
    """A rows x d matrix, d in 1..60 (so d > L reaches the cap), at a scale
    10^e, with up to half its columns zero."""
    d = draw(st.integers(1, 60))
    gen = RngStream(draw(st.integers(0, 2**32 - 1)), purpose="prop").generator()
    phi = gen.normal(size=(rows, d)) * 10.0 ** draw(st.integers(min_exp, max_exp))
    phi[:, draw(st.lists(st.integers(0, d - 1), max_size=d // 2))] = 0.0
    return phi


def sq_norm(phi):
    return float(np.sum(phi * phi))


class TestFactorProperties:
    @PROPERTY
    @given(st.data(), st.integers(1, 40))
    def test_gram_entries_are_the_dot_products(self, data, rows):
        phi = data.draw(activations(rows))
        k = gram_linear(phi)
        assert k.data.shape == (rows, min(phi.shape[1], rows))
        err = np.max(np.abs(k.entries - phi @ phi.T))
        assert err <= KERNEL_RTOL * sq_norm(phi)

    @PROPERTY
    @given(st.data(), st.integers(1, 40),
           st.lists(st.integers(0, 10), min_size=1, max_size=4).filter(any))
    def test_aggregate_is_the_weighted_sum(self, data, rows, counts):
        phis = [data.draw(activations(rows)) for _ in counts]
        weights = [c / sum(counts) for c in counts]
        agg = aggregate_grams([(w, gram_linear(phi)) for w, phi in zip(weights, phis)])
        assert agg.data.shape == (rows, min(rows, sum(min(p.shape[1], rows) for p in phis)))
        want = sum(w * (phi @ phi.T) for w, phi in zip(weights, phis))
        scale = sum(w * sq_norm(phi) for w, phi in zip(weights, phis))
        assert np.max(np.abs(agg.entries - want)) <= KERNEL_RTOL * scale

    # The score sums fourth powers of phi's entries, which leave float64
    # beyond a scale of about 1e+-76 unless the factors are rescaled; the
    # oracle takes unit-scale inputs, since CKA does not depend on scale.
    @PROPERTY
    @given(st.data(), st.integers(1, 40))
    def test_cka_is_the_feature_space_form(self, data, rows):
        x = data.draw(activations(rows))
        y = data.draw(activations(rows))
        score = linear_cka(gram_linear(x), gram_linear(y))
        assert -CKA_ATOL <= score <= 1.0 + CKA_ATOL
        x, y = x / np.max(np.abs(x)), y / np.max(np.abs(y))
        feature = (np.linalg.norm(x.T @ y) ** 2
                   / (np.linalg.norm(x.T @ x) * np.linalg.norm(y.T @ y)))
        assert abs(score - feature) <= CKA_ATOL


# A factor moves under a rotation of phi by about cond * eps * ||phi||_F,
# with cond the condition number of phi's top d x d block (of phi itself
# when capped); draws above this are discarded.
MAX_COND = 1e3


@st.composite
def rotated_pair(draw, rows):
    """A full-rank rows x d matrix at a scale 10^e, e in -100..100, with its
    top block (all of it, for d > rows) well conditioned, and a d x d
    orthogonal matrix."""
    d = draw(st.integers(1, 60))
    gen = RngStream(draw(st.integers(0, 2**32 - 1)), purpose="canon").generator()
    phi = gen.normal(size=(rows, d))
    assume(np.linalg.cond(phi[:d] if d <= rows else phi) < MAX_COND)
    q, _ = np.linalg.qr(gen.normal(size=(d, d)))
    return phi * 10.0 ** draw(st.integers(-100, 100)), q


class TestCanonicalFactor:
    """The upload factor T: lower trapezoidal with a nonnegative diagonal,
    fixed by the kernel, and packed to its lower entries without loss."""

    @PROPERTY
    @given(st.data(), st.integers(1, 40))
    def test_lower_trapezoidal_with_nonnegative_diagonal(self, data, rows):
        phi = data.draw(activations(rows))
        t = gram_linear(phi).data
        assert not np.triu(t, 1).any()
        assert np.all(np.diagonal(t) >= 0.0)
        # the +0.0 above the diagonal that unpacking puts back
        assert not np.signbit(t[np.triu_indices(*t.shape[::-1], 1)]).any()
        assert np.max(np.abs(t @ t.T - phi @ phi.T)) <= KERNEL_RTOL * sq_norm(phi)

    @PROPERTY
    @given(st.data(), st.integers(1, 40))
    def test_fixed_by_the_kernel(self, data, rows):
        phi, q = data.draw(rotated_pair(rows))
        t = gram_linear(phi).data
        assert np.max(np.abs(gram_linear(phi @ q).data - t)) <= 1e-12 * np.linalg.norm(phi)

    @PROPERTY
    @given(st.data(), st.integers(1, 40))
    def test_pack_round_trip_is_exact(self, data, rows):
        k = gram_linear(data.draw(activations(rows)))
        v = pack_factor(k)
        assert v.shape == (packed_size(*k.data.shape),)
        assert unpack_factor(v, *k.data.shape).data.tobytes() == k.data.tobytes()

    @PROPERTY
    @given(st.data(), st.integers(1, 40))
    def test_pack_refuses_what_it_would_lose(self, data, rows):
        k = gram_linear(data.draw(activations(rows)))
        shape = k.data.shape
        v = pack_factor(k)
        for bad in (v[:-1], np.append(v, 0.0), v.reshape(1, -1)):
            with pytest.raises(ShapeError, match="packed"):
                unpack_factor(bad, *shape)
        if shape[1] > 1:
            t = k.data.copy()
            t[0, -1] = 5e-324  # the smallest number above the diagonal
            with pytest.raises(ShapeError, match="lower-trapezoidal"):
                pack_factor(GramMatrix(t))

    def test_packed_sizes(self):
        assert [packed_size(128, w) for w in (48, 40, 8, 16)] == [5016, 4340, 996, 1928]
        assert packed_size(5, 5) == 15 and packed_size(5, 1) == 5


# Central differences with a step h = FD_STEP * max|phi| are off by O(h^2)
# from truncation and O(eps / h) from roundoff, each relative to the
# gradient's largest entry; FD_RTOL leaves room for both.
FD_STEP = 1e-5
FD_RTOL = 1e-6


@st.composite
def gradient_case(draw, form):
    """phi, L x d at a scale 10^e with e in -20..20, and a reference: for a
    kernel form the kernel of an L x D factor at a scale of its own, for
    l2_rep an L x d matrix at phi's scale, since central differences cannot
    resolve a gradient against a reference far larger than phi. The l2_rep
    zero subgradient is relative to that scale (see
    test_l2_subgradient_threshold_is_scale_free), so every draw has the true
    gradient."""
    rows, d = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    gen = RngStream(draw(st.integers(0, 2**32 - 1)), purpose="fd").generator()
    scale = 10.0 ** draw(st.integers(-20, 20))
    phi = gen.normal(size=(rows, d)) * scale
    if form is ProximalForm.L2_REP:
        return phi, gen.normal(size=(rows, d)) * scale
    factor = gen.normal(size=(rows, draw(st.integers(1, 8))))
    return phi, gram_linear(factor * 10.0 ** draw(st.integers(-20, 20)))


class TestGradientProperties:
    """proximal_grad is the gradient of proximal_value, for every form, over
    drawn shapes and scales."""

    @pytest.mark.parametrize("form", KERNEL_FORMS + [ProximalForm.L2_REP])
    @PROPERTY
    @given(data=st.data())
    def test_central_differences(self, form, data):
        phi, reference = data.draw(gradient_case(form))
        distance, analytic = proximal_grad(phi, reference, form)
        assert proximal_value(phi, reference, form, 1.0) == distance
        numeric = fd_grad(lambda p: proximal_value(p, reference, form, 1.0), phi,
                          h=FD_STEP * np.max(np.abs(phi)))
        assert np.max(np.abs(analytic - numeric)) <= FD_RTOL * np.max(np.abs(analytic))
