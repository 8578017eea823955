import numpy as np
import pytest

from hssfl.cka import ProximalForm, gram_linear
from hssfl.errors import ConfigError, ShapeError
from hssfl.numkit import RngStream
from hssfl.sslnet import (
    AugmentConfig,
    _ssl_loss_grad,
    combined_loss,
    MlpSpec,
    augment,
    combined_step,
    ema_update,
    flatten_grads,
    flatten_params,
    forward_online,
    forward_target,
    init_client_model,
    load_model,
    loss_and_grad,
    representations,
    save_model,
    set_params,
)

RELU = MlpSpec((4, 5, 3), "relu")
TANH = MlpSpec((4, 5, 3), "tanh")


def make_model(spec=RELU, seed=0, tau=0.99):
    return init_client_model(spec, spec.output_width, tau, RngStream(seed, purpose="init"))


def batch_for(spec, seed=1, rows=6):
    return RngStream(seed, purpose="batch").generator().normal(size=(rows, spec.input_width))


class TestInit:
    def test_target_copies_online(self):
        m = make_model()
        x = batch_for(RELU)
        enc_out, _, = forward_online(m, x)[1].enc_out, None
        assert np.array_equal(forward_target(m, x), forward_online(m, x)[1].enc_out)

    def test_same_seed_identical(self):
        a, b = make_model(seed=3), make_model(seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.online_w, b.online_w))
        assert np.array_equal(a.pred_w, b.pred_w)

    def test_he_scaling(self):
        spec = MlpSpec((256, 256), "relu")
        m = init_client_model(spec, 256, 0.99, RngStream(5, purpose="init"))
        expected = np.sqrt(2.0 / 256)
        assert abs(m.online_w[0].std() - expected) < 0.1 * expected

    def test_zero_biases_and_buffers(self):
        m = make_model()
        assert all(np.all(b == 0) for b in m.online_b)
        assert all(np.all(b == 0) for b in m.mom_w)
        assert np.all(m.mom_pred_w == 0)

    def test_predictor_width_must_match(self):
        with pytest.raises(ConfigError):
            init_client_model(RELU, 7, 0.99, RngStream(0))

    def test_tau_range(self):
        with pytest.raises(ConfigError):
            init_client_model(RELU, 3, 1.5, RngStream(0))


class TestAugment:
    def test_identity_config(self):
        x = batch_for(RELU)
        v1, v2 = augment(x, AugmentConfig(0.0, 0.0), RngStream(0, purpose="aug"))
        assert np.array_equal(v1, x)
        assert np.array_equal(v2, x)

    def test_mask_fraction(self):
        x = np.ones((200, 100))
        v1, _ = augment(x, AugmentConfig(0.0, 0.5), RngStream(1, purpose="aug"))
        frac = np.mean(v1 == 0.0)
        assert abs(frac - 0.5) < 0.02

    def test_deterministic_per_stream(self):
        x = batch_for(RELU)
        s = RngStream(2, client=1, round=4, purpose="aug")
        p1 = augment(x, AugmentConfig(0.3, 0.1), s)
        p2 = augment(x, AugmentConfig(0.3, 0.1), s)
        assert np.array_equal(p1[0], p2[0])
        assert np.array_equal(p1[1], p2[1])

    def test_views_differ(self):
        x = batch_for(RELU)
        v1, v2 = augment(x, AugmentConfig(0.3, 0.0), RngStream(3, purpose="aug"))
        assert not np.array_equal(v1, v2)

    def test_invalid_cfg(self):
        with pytest.raises(ConfigError):
            AugmentConfig(-0.1, 0.0)
        with pytest.raises(ConfigError):
            AugmentConfig(0.0, 1.0)
        with pytest.raises(ConfigError):
            AugmentConfig(float("nan"), 0.0)


class TestForward:
    def test_zero_weights_zero_output(self):
        m = make_model()
        for i in range(len(m.online_w)):
            m.online_w[i][:] = 0.0
        m.pred_w[:] = 0.0
        out, _ = forward_online(m, batch_for(RELU))
        assert np.array_equal(out, np.zeros_like(out))

    def test_hand_computed_affine(self):
        spec = MlpSpec((2, 2), "relu")
        m = init_client_model(spec, 2, 0.5, RngStream(7, purpose="init"))
        m.online_w[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
        m.online_b[0] = np.array([0.5, -0.5])
        m.pred_w = np.eye(2)
        m.pred_b = np.zeros(2)
        out, tape = forward_online(m, np.array([[1.0, 1.0]]))
        # single encoder layer is the output layer: identity activation
        assert np.allclose(out, [[4.5, 5.5]])
        assert np.allclose(tape.enc_out, [[4.5, 5.5]])

    def test_target_hand_computed(self):
        spec = MlpSpec((2, 2), "tanh")
        m = init_client_model(spec, 2, 0.5, RngStream(8, purpose="init"))
        m.target_w[0] = np.array([[2.0, 0.0], [0.0, 2.0]])
        m.target_b[0] = np.array([1.0, 1.0])
        assert np.allclose(forward_target(m, np.array([[1.0, 2.0]])), [[3.0, 5.0]])

    def test_target_isolated_from_steps(self):
        m = make_model()
        x = batch_for(RELU)
        before = forward_target(m, x)
        step = combined_step(m, x, None, None, 0.0, ProximalForm.ONE_MINUS_CKA,
                             0.05, 0.9, RngStream(9))
        assert np.array_equal(forward_target(step.model, x), before)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward_online(make_model(), np.ones((2, 7)))

    def test_tape_replay(self):
        m = make_model()
        x = batch_for(RELU)
        out1, tape = forward_online(m, x)
        out2, _ = forward_online(m, x)
        assert np.array_equal(out1, out2)
        assert np.array_equal(tape.pred_out, out1)


class TestSslLoss:
    def test_equal_inputs(self):
        p = batch_for(RELU)
        assert _ssl_loss_grad(p, p.copy(), False, want_grad=False)[0] == 0.0

    def test_unit_arithmetic(self):
        pred, target = np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])
        assert _ssl_loss_grad(pred, target, False, want_grad=False)[0] == 1.0

    def test_normalized_scale_removal(self):
        p = batch_for(RELU) + 3.0
        loss = _ssl_loss_grad(p, 2.0 * p, True, want_grad=False)[0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_normalized_zero_row(self):
        # a zero row normalizes to zero and a zero prediction row takes the
        # zero subgradient; the other rows keep their exact values
        pred = np.array([[0.0, 0.0], [3.0, 4.0]])
        target = np.array([[1.0, 1.0], [0.0, 0.0]])
        loss, grad = _ssl_loss_grad(pred, target, normalize=True)
        assert loss == pytest.approx((1.0 + 1.0) / 2.0)
        assert np.array_equal(grad[0], np.zeros(2))
        _, row_grad = _ssl_loss_grad(pred[1:], target[1:], normalize=True)
        assert np.array_equal(grad[1], row_grad[0] / 2.0)
        assert np.all(np.isfinite(grad))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            _ssl_loss_grad(np.ones((2, 2)), np.ones((2, 3)), False, want_grad=False)

    def test_normalized_zero_predictions_give_zero_gradient(self):
        m = make_model()
        m.pred_w[:] = 0.0
        x = batch_for(RELU)
        _, _, _, grads = loss_and_grad(m, x, None, None, 0.0, ProximalForm.ONE_MINUS_CKA,
                                       RngStream(3, purpose="step"), normalize=True)
        assert not np.any(flatten_grads(grads))


class TestRepresentations:
    def test_zero_predictor(self):
        m = make_model()
        m.pred_w[:] = 0.0
        rad = batch_for(RELU, rows=5)
        assert np.array_equal(representations(m, rad), np.zeros((5, 3)))

    def test_row_count(self):
        m = make_model()
        assert representations(m, batch_for(RELU, rows=9)).shape == (9, 3)

    def test_hand_computed(self):
        spec = MlpSpec((1, 1), "relu")
        m = init_client_model(spec, 1, 0.5, RngStream(10, purpose="init"))
        m.online_w[0] = np.array([[2.0]])
        m.online_b[0] = np.array([1.0])
        m.pred_w = np.array([[3.0]])
        m.pred_b = np.array([-1.0])
        assert representations(m, np.array([[2.0]]))[0, 0] == pytest.approx(14.0)

    def test_clipping_bounds_rows(self):
        m = make_model()
        rad = 10.0 * batch_for(RELU, rows=8)
        phi = representations(m, rad, clip_radius=1.0)
        assert np.all(np.sqrt(np.sum(phi * phi, axis=1)) <= 1.0 + 1e-12)


def total_loss_fn(model, batch, rad, ref, mu, form, rng, aug, normalize, clip):
    loss, _, _ = combined_loss(model, batch, rad, ref, mu, form, rng,
                               augment_cfg=aug, normalize=normalize,
                               clip_radius=clip)
    return loss


def fd_param_grad(model, vec_fn, h=1e-5):
    x0 = flatten_params(model)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        g[i] = (vec_fn(xp) - vec_fn(xm)) / (2.0 * h)
    return g


class TestCombinedStep:
    def test_mu_zero_matches_reference_free_path(self):
        m = make_model()
        x = batch_for(RELU)
        rad = batch_for(RELU, seed=4, rows=5)
        kbar = gram_linear(np.ones((5, 3)))
        rng = RngStream(11, client=2, round=3, epoch=1)
        with_ref = combined_step(m, x, rad, kbar, 0.0, ProximalForm.ONE_MINUS_CKA,
                                 0.05, 0.9, rng, augment_cfg=AugmentConfig(0.2, 0.1))
        without = combined_step(m, x, None, None, 0.0, ProximalForm.ONE_MINUS_CKA,
                                0.05, 0.9, rng, augment_cfg=AugmentConfig(0.2, 0.1))
        for a, b in zip(with_ref.model.online_w, without.model.online_w):
            assert a.tobytes() == b.tobytes()
        assert with_ref.model.pred_w.tobytes() == without.model.pred_w.tobytes()
        assert with_ref.loss_prox == 0.0

    def test_eta_zero_keeps_weights(self):
        m = make_model()
        x = batch_for(RELU)
        step = combined_step(m, x, None, None, 0.0, ProximalForm.ONE_MINUS_CKA,
                             0.0, 0.9, RngStream(12))
        for a, b in zip(step.model.online_w, m.online_w):
            assert np.array_equal(a, b)
        assert np.array_equal(step.model.pred_w, m.pred_w)
        assert step.loss_total > 0.0
        assert step.grad_norm > 0.0

    def test_gradient_norm_matches_flattened(self):
        m = make_model()
        x = batch_for(RELU)
        _, _, _, grads = loss_and_grad(m, x, None, None, 0.0,
                                       ProximalForm.ONE_MINUS_CKA, RngStream(13))
        step = combined_step(m, x, None, None, 0.0, ProximalForm.ONE_MINUS_CKA,
                             0.01, 0.0, RngStream(13))
        assert step.grad_norm == pytest.approx(np.linalg.norm(flatten_grads(grads)))

    @pytest.mark.parametrize("form,normalize", [
        (ProximalForm.ONE_MINUS_CKA, False),
        (ProximalForm.RAW_CKA, True),
        (ProximalForm.TRACE_ALIGNMENT, False),
        (ProximalForm.L2_REP, True),
    ])
    def test_combined_gradient_finite_differences(self, form, normalize):
        spec = MlpSpec((3, 4, 2), "tanh")
        m = make_model(spec, seed=21)
        x = batch_for(spec, seed=22, rows=4)
        rad = batch_for(spec, seed=23, rows=5)
        if form is ProximalForm.L2_REP:
            ref = RngStream(24, purpose="ref").generator().normal(size=(5, 2))
        else:
            ref = gram_linear(RngStream(24, purpose="ref").generator().normal(size=(5, 2)))
        rng = RngStream(25)
        aug = AugmentConfig(0.0, 0.0)

        def value(vec):
            return total_loss_fn(set_params(m, vec), x, rad, ref, 0.7, form, rng,
                                 aug, normalize, None)

        _, _, _, grads = loss_and_grad(m, x, rad, ref, 0.7, form, rng,
                                       augment_cfg=aug, normalize=normalize)
        analytic = flatten_grads(grads)
        numeric = fd_param_grad(m, value)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_gradient_through_clipping(self):
        spec = MlpSpec((3, 2), "relu")
        m = make_model(spec, seed=31)
        x = batch_for(spec, seed=32, rows=4)
        rad = 3.0 * batch_for(spec, seed=33, rows=5)
        ref = gram_linear(RngStream(34, purpose="ref").generator().normal(size=(5, 2)))
        rng = RngStream(35)
        aug = AugmentConfig(0.0, 0.0)
        clip = 0.8

        def value(vec):
            return total_loss_fn(set_params(m, vec), x, rad, ref, 0.5,
                                 ProximalForm.TRACE_ALIGNMENT, rng, aug, False, clip)

        _, _, _, grads = loss_and_grad(m, x, rad, ref, 0.5,
                                       ProximalForm.TRACE_ALIGNMENT, rng,
                                       augment_cfg=aug, clip_radius=clip)
        analytic = flatten_grads(grads)
        numeric = fd_param_grad(m, value)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_small_step_decreases_loss(self):
        # deterministic full-batch mode: one tiny step must descend
        aug = AugmentConfig(0.0, 0.0)
        failures = 0
        for seed in range(50):
            spec = MlpSpec((3, 4, 2), "tanh" if seed % 2 else "relu")
            m = make_model(spec, seed=seed)
            x = batch_for(spec, seed=seed + 1000, rows=6)
            rng = RngStream(seed + 2000)
            before = total_loss_fn(m, x, None, None, 0.0,
                                   ProximalForm.ONE_MINUS_CKA, rng, aug, False, None)
            step = combined_step(m, x, None, None, 0.0, ProximalForm.ONE_MINUS_CKA,
                                 1e-4, 0.0, rng, augment_cfg=aug)
            after = total_loss_fn(step.model, x, None, None, 0.0,
                                  ProximalForm.ONE_MINUS_CKA, rng, aug, False, None)
            if after >= before:
                failures += 1
        assert failures == 0


class TestSymmetrized:
    def test_doubles_loss_on_identical_views(self):
        m = make_model()
        x = batch_for(RELU)
        aug = AugmentConfig(0.0, 0.0)
        rng = RngStream(60)
        one, _, _ = combined_loss(m, x, None, None, 0.0,
                                  ProximalForm.ONE_MINUS_CKA, rng, augment_cfg=aug)
        both, _, _ = combined_loss(m, x, None, None, 0.0,
                                   ProximalForm.ONE_MINUS_CKA, rng,
                                   augment_cfg=aug, symmetrize=True)
        assert both == pytest.approx(2.0 * one)

    def test_gradient_finite_differences(self):
        spec = MlpSpec((3, 4, 2), "tanh")
        m = make_model(spec, seed=61)
        x = batch_for(spec, seed=62, rows=4)
        rad = batch_for(spec, seed=63, rows=5)
        ref = gram_linear(RngStream(64, purpose="ref").generator().normal(size=(5, 2)))
        rng = RngStream(65)
        aug = AugmentConfig(0.1, 0.0)

        def value(vec):
            loss, _, _ = combined_loss(set_params(m, vec), x, rad, ref, 0.5,
                                       ProximalForm.ONE_MINUS_CKA, rng,
                                       augment_cfg=aug, symmetrize=True)
            return loss

        _, _, _, grads = loss_and_grad(m, x, rad, ref, 0.5,
                                       ProximalForm.ONE_MINUS_CKA, rng,
                                       augment_cfg=aug, symmetrize=True)
        analytic = flatten_grads(grads)
        numeric = fd_param_grad(m, value)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5


class TestEma:
    def test_tau_one_freezes_target(self):
        m = make_model()
        out = ema_update(m, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(out.target_w, m.target_w))

    def test_tau_zero_copies_online(self):
        m = make_model()
        m.online_w[0][:] += 1.0
        out = ema_update(m, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(out.target_w, m.online_w))

    def test_scalar_average(self):
        spec = MlpSpec((1, 1), "relu")
        m = init_client_model(spec, 1, 0.5, RngStream(40, purpose="init"))
        m.target_w[0] = np.array([[2.0]])
        m.online_w[0] = np.array([[4.0]])
        assert ema_update(m, 0.5).target_w[0][0, 0] == 3.0

    def test_drift_decreases_when_online_frozen(self):
        m = make_model(seed=41)
        m.online_w[0][:] += 0.5
        dists = []
        for _ in range(10):
            d = sum(np.linalg.norm(t - o)
                    for t, o in zip(m.target_w, m.online_w))
            dists.append(d)
            m = ema_update(m, 0.99)
        assert all(b < a for a, b in zip(dists, dists[1:]))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = make_model(seed=50)
        step = combined_step(m, batch_for(RELU, seed=51), None, None, 0.0,
                             ProximalForm.ONE_MINUS_CKA, 0.05, 0.9, RngStream(52))
        save_model(step.model, str(tmp_path / "ckpt"), round_index=3)
        loaded = load_model(str(tmp_path / "ckpt"))
        assert loaded.spec == step.model.spec
        assert loaded.tau == step.model.tau
        for a, b in zip(loaded.online_w, step.model.online_w):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(loaded.mom_w, step.model.mom_w):
            assert a.tobytes() == b.tobytes()
        assert loaded.pred_w.tobytes() == step.model.pred_w.tobytes()
        assert loaded.target_w[0].tobytes() == step.model.target_w[0].tobytes()
