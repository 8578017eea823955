import pickle
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from hssfl import sslnet
from hssfl.cka import ProximalForm, gram_linear
from hssfl.errors import ConfigError, NumericalFailureError, ParseError
from hssfl.federation import FedConfig
from hssfl.numkit import RngStream, load_arrays, save_arrays
from hssfl.sslnet import (
    AugmentConfig,
    _ssl_loss_grad,
    combined_loss,
    MlpSpec,
    Objective,
    combined_step,
    ema_update,
    forward_online,
    forward_target,
    init_client_model,
    load_model,
    loss_and_grad,
    model_arrays,
    model_from_arrays,
    objective_views,
    representations,
    save_model,
    set_params,
    target_rows,
    tensors,
)

RELU = MlpSpec((4, 5, 3), "relu")
TANH = MlpSpec((4, 5, 3), "tanh")


def make_model(spec=RELU, seed=0, tau=0.99):
    return init_client_model(spec, tau, RngStream(seed, purpose="init"))


def unit_rows(m):
    """m with each nonzero row scaled to norm 1, as target_rows normalizes."""
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0.0)


def vector(*parts):
    """The tensors raveled in turn into one vector, as a model holds them."""
    return np.concatenate([np.ravel(p) for p in parts])


def zero_predictor(m):
    """m with its predictor weights set to zero."""
    online = tensors(m.online, m.spec)
    return replace(m, online=vector(*online[:-2], np.zeros_like(online[-2]), online[-1]))


def same_tensors(a, b):
    return all(x.tobytes() == y.tobytes()
               for x, y in zip(model_arrays(a).values(), model_arrays(b).values()))


def batch_for(spec, seed=1, rows=6):
    return RngStream(seed, purpose="batch").generator().normal(size=(rows, spec.input_width))


def one_step(m, x, obj, eta, momentum, rng):
    """combined_step on the view pair of x that rng draws, as in a one-batch epoch."""
    views = objective_views(x, obj.augment, rng)
    return combined_step(m, views, target_rows(m, views, obj), obj, eta, momentum)


class TestInit:
    def test_target_copies_online(self):
        m = make_model()
        x = batch_for(RELU)
        enc_out, _, = forward_online(m, x)[1].enc_out, None
        assert np.array_equal(forward_target(m, x), forward_online(m, x)[1].enc_out)

    def test_same_seed_identical(self):
        a, b = make_model(seed=3), make_model(seed=3)
        assert same_tensors(a, b)

    def test_he_scaling(self):
        spec = MlpSpec((256, 256), "relu")
        m = init_client_model(spec, 0.99, RngStream(5, purpose="init"))
        expected = np.sqrt(2.0 / 256)
        assert abs(tensors(m.online, spec)[0].std() - expected) < 0.1 * expected

    def test_zero_biases_and_buffers(self):
        m = make_model()
        assert all(np.all(b == 0) for b in tensors(m.online, m.spec)[1::2])
        assert m.velocity.shape == m.online.shape and not np.any(m.velocity)

    def test_layout(self):
        # one vector of (W0, b0, W1, b1, Wp, bp); the target is its encoder
        # prefix, and tensors cuts either into views of it
        m = make_model()
        online, target = tensors(m.online, m.spec), tensors(m.target, m.spec)
        assert [p.shape for p in online] == [(4, 5), (5,), (5, 3), (3,), (3, 3), (3,)]
        assert [p.shape for p in target] == [(4, 5), (5,), (5, 3), (3,)]
        assert m.online.shape == (55,) and m.target.shape == (43,)
        assert np.array_equal(vector(*online), m.online)
        assert all(np.shares_memory(p, m.online) for p in online)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            make_model().online = np.zeros(55)


class TestAugment:
    def test_identity_config(self):
        x = batch_for(RELU)
        v1, v2 = objective_views(x, AugmentConfig(0.0, 0.0), RngStream(0, purpose="aug"))
        assert np.array_equal(v1, x)
        assert np.array_equal(v2, x)

    def test_mask_fraction(self):
        x = np.ones((200, 100))
        v1, _ = objective_views(x, AugmentConfig(0.0, 0.5), RngStream(1, purpose="aug"))
        frac = np.mean(v1 == 0.0)
        assert abs(frac - 0.5) < 0.02

    def test_deterministic_per_stream(self):
        x = batch_for(RELU)
        s = RngStream(2, client=1, round=4, purpose="aug")
        p1 = objective_views(x, AugmentConfig(0.3, 0.1), s)
        p2 = objective_views(x, AugmentConfig(0.3, 0.1), s)
        assert np.array_equal(p1[0], p2[0])
        assert np.array_equal(p1[1], p2[1])

    def test_views_differ(self):
        x = batch_for(RELU)
        v1, v2 = objective_views(x, AugmentConfig(0.3, 0.0), RngStream(3, purpose="aug"))
        assert not np.array_equal(v1, v2)

    def test_noise_then_mask_from_each_views_stream(self):
        x = batch_for(RELU, rows=7)
        rng = RngStream(4, purpose="step")
        for tag, view in zip(("view1", "view2"), objective_views(x, AugmentConfig(0.3, 0.2), rng)):
            gen = rng.sub("aug").sub(tag).generator()
            want = x + gen.normal(0.0, 0.3, size=x.shape)
            want = np.where(gen.random(x.shape) < 0.2, 0.0, want)
            assert view.tobytes() == want.tobytes()

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
        m = replace(m, online=vector(*(np.zeros_like(p) if p.ndim == 2 else p
                                       for p in tensors(m.online, m.spec))))
        out, _ = forward_online(m, batch_for(RELU))
        assert np.array_equal(out, np.zeros_like(out))

    def test_hand_computed_affine(self):
        spec = MlpSpec((2, 2), "relu")
        m = init_client_model(spec, 0.5, RngStream(7, purpose="init"))
        m = replace(m, online=vector([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5],
                                     np.eye(2), np.zeros(2)))
        out, tape = forward_online(m, np.array([[1.0, 1.0]]))
        # single encoder layer is the output layer: identity activation
        assert np.allclose(out, [[4.5, 5.5]])
        assert np.allclose(tape.enc_out, [[4.5, 5.5]])

    def test_target_hand_computed(self):
        spec = MlpSpec((2, 2), "tanh")
        m = init_client_model(spec, 0.5, RngStream(8, purpose="init"))
        m = replace(m, target=vector([[2.0, 0.0], [0.0, 2.0]], [1.0, 1.0]))
        assert np.allclose(forward_target(m, np.array([[1.0, 2.0]])), [[3.0, 5.0]])

    def test_target_isolated_from_steps(self):
        m = make_model()
        x = batch_for(RELU)
        before = forward_target(m, x)
        step = one_step(m, x, Objective(), 0.05, 0.9, RngStream(9))
        assert np.array_equal(forward_target(step.model, x), before)

    def test_tape_replay(self):
        m = make_model()
        x = batch_for(RELU)
        out1, tape = forward_online(m, x)
        out2, _ = forward_online(m, x)
        assert np.array_equal(out1, out2)
        pred_w, pred_b = tensors(m.online, m.spec)[-2:]
        assert np.array_equal(tape.enc_out @ pred_w + pred_b, out1)


class TestSslLoss:
    def test_equal_inputs(self):
        p = batch_for(RELU)
        assert _ssl_loss_grad(p, p.copy(), False, want_grad=False)[0] == 0.0

    def test_unit_arithmetic(self):
        pred, target = np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])
        assert _ssl_loss_grad(pred, target, False, want_grad=False)[0] == 1.0

    def test_normalized_scale_removal(self):
        p = batch_for(RELU) + 3.0
        loss = _ssl_loss_grad(p, unit_rows(2.0 * p), True, want_grad=False)[0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_normalized_zero_row(self):
        # a zero row normalizes to zero and a zero prediction row takes the
        # zero subgradient; the other rows keep their exact values
        pred = np.array([[0.0, 0.0], [3.0, 4.0]])
        target = unit_rows(np.array([[1.0, 1.0], [0.0, 0.0]]))
        loss, grad = _ssl_loss_grad(pred, target, normalize=True)
        assert loss == pytest.approx((1.0 + 1.0) / 2.0)
        assert np.array_equal(grad[0], np.zeros(2))
        _, row_grad = _ssl_loss_grad(pred[1:], target[1:], normalize=True)
        assert np.array_equal(grad[1], row_grad[0] / 2.0)
        assert np.all(np.isfinite(grad))

    def test_normalized_zero_predictions_give_zero_gradient(self):
        m = zero_predictor(make_model())
        x = batch_for(RELU)
        _, _, _, grad = loss_and_grad(m, x, Objective(normalize=True),
                                      RngStream(3, purpose="step"))
        assert not np.any(grad)


class TestRepresentations:
    def test_zero_predictor(self):
        m = zero_predictor(make_model())
        rad = batch_for(RELU, rows=5)
        assert np.array_equal(representations(m, rad), np.zeros((5, 3)))

    def test_row_count(self):
        m = make_model()
        assert representations(m, batch_for(RELU, rows=9)).shape == (9, 3)

    def test_hand_computed(self):
        spec = MlpSpec((1, 1), "relu")
        m = init_client_model(spec, 0.5, RngStream(10, purpose="init"))
        m = replace(m, online=vector(2.0, 1.0, 3.0, -1.0))
        assert representations(m, np.array([[2.0]]))[0, 0] == pytest.approx(14.0)

    def test_clipping_bounds_rows(self):
        m = make_model()
        rad = 10.0 * batch_for(RELU, rows=8)
        phi = representations(m, rad, clip_radius=1.0)
        assert np.all(np.sqrt(np.sum(phi * phi, axis=1)) <= 1.0 + 1e-12)


def total_loss_fn(model, batch, obj, rng):
    loss, _, _ = combined_loss(model, objective_views(batch, obj.augment, rng), obj)
    return loss


def fd_param_grad(model, vec_fn, h=1e-5):
    x0 = model.online
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
        aug = AugmentConfig(0.2, 0.1)
        with_ref = one_step(m, x, Objective(0.0, rad=rad, reference=kbar, augment=aug),
                            0.05, 0.9, rng)
        without = one_step(m, x, Objective(augment=aug), 0.05, 0.9, rng)
        assert same_tensors(with_ref.model, without.model)
        assert with_ref.loss_prox == 0.0

    def test_eta_zero_keeps_weights(self):
        m = make_model()
        x = batch_for(RELU)
        step = one_step(m, x, Objective(), 0.0, 0.9, RngStream(12))
        assert np.array_equal(step.model.online, m.online)
        assert step.loss_total > 0.0
        assert step.grad_norm > 0.0

    def test_gradient_norm_matches_flattened(self):
        m = make_model()
        x = batch_for(RELU)
        _, _, _, grad = loss_and_grad(m, x, Objective(), RngStream(13))
        step = one_step(m, x, Objective(), 0.01, 0.0, RngStream(13))
        assert step.grad_norm == float(np.linalg.norm(grad))

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
        obj = Objective(0.7, form, rad, ref, AugmentConfig(0.0, 0.0), normalize)

        def value(vec):
            return total_loss_fn(set_params(m, vec), x, obj, rng)

        _, _, _, analytic = loss_and_grad(m, x, obj, rng)
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
        obj = Objective(0.5, ProximalForm.TRACE_ALIGNMENT, rad, ref,
                        AugmentConfig(0.0, 0.0), clip_radius=0.8)

        def value(vec):
            return total_loss_fn(set_params(m, vec), x, obj, rng)

        _, _, _, analytic = loss_and_grad(m, x, obj, rng)
        numeric = fd_param_grad(m, value)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_small_step_decreases_loss(self):
        # deterministic full-batch mode: one tiny step must descend
        obj = Objective(augment=AugmentConfig(0.0, 0.0))
        failures = 0
        for seed in range(50):
            spec = MlpSpec((3, 4, 2), "tanh" if seed % 2 else "relu")
            m = make_model(spec, seed=seed)
            x = batch_for(spec, seed=seed + 1000, rows=6)
            rng = RngStream(seed + 2000)
            before = total_loss_fn(m, x, obj, rng)
            step = one_step(m, x, obj, 1e-4, 0.0, rng)
            after = total_loss_fn(step.model, x, obj, rng)
            if after >= before:
                failures += 1
        assert failures == 0


def _poison_backprop(monkeypatch, index, value):
    """sslnet._backprop with ``value`` at the first entry of its tensor
    ``index``, or in every entry when index is None."""
    real = sslnet._backprop

    def poisoned(model, *args):
        grad = real(model, *args).copy()
        if index is None:
            grad.fill(value)
        else:
            tensors(grad, model.spec)[index].flat[0] = value
        return grad
    monkeypatch.setattr(sslnet, "_backprop", poisoned)


# Each returns the gradient norm of the step it takes.
GRADIENT_CALLS = {
    "combined_step": lambda m, x, obj, rng: one_step(m, x, obj, 0.05, 0.9, rng).grad_norm,
    "loss_and_grad": lambda m, x, obj, rng: float(
        np.linalg.norm(loss_and_grad(m, x, obj, rng)[3])),
}


@pytest.mark.parametrize("call", GRADIENT_CALLS.values(), ids=GRADIENT_CALLS.keys())
class TestGradientCheck:
    @pytest.mark.parametrize("index,value,name", [(0, np.nan, "encoder gradient"),
                                                  (2, -np.inf, "encoder gradient"),
                                                  (-1, np.inf, "predictor gradient"),
                                                  (-2, np.nan, "predictor gradient")])
    def test_non_finite_gradient_named(self, monkeypatch, call, index, value, name):
        _poison_backprop(monkeypatch, index, value)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalFailureError, match=f"non-finite values in {name}$"):
            call(make_model(), batch_for(RELU), Objective(), RngStream(14))

    def test_overflowing_norm_of_finite_gradients_is_no_failure(self, monkeypatch, call):
        # every entry is finite; only the sum of their squares overflows
        _poison_backprop(monkeypatch, None, 1e200)
        with np.errstate(over="ignore"):
            assert call(make_model(), batch_for(RELU), Objective(), RngStream(14)) == np.inf


class TestSymmetrized:
    def test_doubles_loss_on_identical_views(self):
        m = make_model()
        x = batch_for(RELU)
        aug = AugmentConfig(0.0, 0.0)
        rng = RngStream(60)
        one = total_loss_fn(m, x, Objective(augment=aug), rng)
        both = total_loss_fn(m, x, Objective(augment=aug, symmetrize=True), rng)
        assert both == pytest.approx(2.0 * one)

    def test_gradient_finite_differences(self):
        spec = MlpSpec((3, 4, 2), "tanh")
        m = make_model(spec, seed=61)
        x = batch_for(spec, seed=62, rows=4)
        rad = batch_for(spec, seed=63, rows=5)
        ref = gram_linear(RngStream(64, purpose="ref").generator().normal(size=(5, 2)))
        rng = RngStream(65)
        obj = Objective(0.5, ProximalForm.ONE_MINUS_CKA, rad, ref, AugmentConfig(0.1, 0.0),
                        symmetrize=True)

        def value(vec):
            return total_loss_fn(set_params(m, vec), x, obj, rng)

        _, _, _, analytic = loss_and_grad(m, x, obj, rng)
        numeric = fd_param_grad(m, value)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5


    def test_gradient_with_clipping_and_normalize(self):
        # every block of the stacked pass at once: both directions, the
        # normalized loss and clipped alignment rows
        spec = MlpSpec((3, 4, 2), "tanh")
        m = make_model(spec, seed=66)
        x = batch_for(spec, seed=67, rows=4)
        rad = 3.0 * batch_for(spec, seed=68, rows=5)
        ref = gram_linear(RngStream(69, purpose="ref").generator().normal(size=(5, 2)))
        rng = RngStream(70)
        obj = Objective(0.5, ProximalForm.RAW_CKA, rad, ref, AugmentConfig(0.1, 0.0),
                        normalize=True, clip_radius=0.8, symmetrize=True)
        assert np.any(np.linalg.norm(representations(m, rad), axis=1) > 0.8)

        def value(vec):
            return total_loss_fn(set_params(m, vec), x, obj, rng)

        _, _, _, analytic = loss_and_grad(m, x, obj, rng)
        numeric = fd_param_grad(m, value)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5


class TestObjective:
    # An Objective takes mu on trust from FedConfig, which refuses a bad one.
    @pytest.mark.parametrize("mu", [-0.1, float("nan")])
    def test_mu_must_be_nonnegative(self, mu):
        with pytest.raises(ConfigError, match="mu must be"):
            FedConfig(num_clients=1, rounds=1, local_epochs=1, eta=0.01, momentum=0.0,
                      batch_size=8, mu=mu, proximal_form="one_minus_cka", tau=0.99,
                      client_specs=(RELU,), rad_size=4, seed=0)


class TestEma:
    def test_tau_one_freezes_target(self):
        m = make_model(tau=1.0)
        out = ema_update(m)
        assert np.array_equal(out.target, m.target)

    def test_tau_zero_copies_online(self):
        m = make_model(tau=0.0)
        online = tensors(m.online, m.spec)
        m = replace(m, online=vector(online[0] + 1.0, *online[1:]))
        out = ema_update(m)
        assert len(tensors(out.target, m.spec)) == len(online) - 2
        assert np.array_equal(out.target, m.online[:out.target.size])

    def test_scalar_average(self):
        spec = MlpSpec((1, 1), "relu")
        m = init_client_model(spec, 0.5, RngStream(40, purpose="init"))
        m = replace(m, target=vector(2.0, m.target[1]), online=vector(4.0, m.online[1:]))
        assert tensors(ema_update(m).target, spec)[0][0, 0] == 3.0

    def test_drift_decreases_when_online_frozen(self):
        m = make_model(seed=41, tau=0.99)
        online = tensors(m.online, m.spec)
        m = replace(m, online=vector(online[0] + 0.5, *online[1:]))
        dists = []
        for _ in range(10):
            d = sum(np.linalg.norm(t - o) for t, o in zip(tensors(m.target, m.spec),
                                                          tensors(m.online, m.spec)))
            dists.append(d)
            m = ema_update(m)
        assert all(b < a for a, b in zip(dists, dists[1:]))


def stepped_model(seed=50):
    return one_step(make_model(seed=seed), batch_for(RELU, seed=seed + 1), Objective(),
                    0.05, 0.9, RngStream(seed + 2)).model


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = stepped_model()
        save_model(model, str(tmp_path / "ckpt"), round_index=3)
        loaded = load_model(str(tmp_path / "ckpt"))
        assert loaded.spec == model.spec
        assert loaded.tau == model.tau
        assert list(model_arrays(loaded)) == list(model_arrays(model))
        assert same_tensors(loaded, model)

    @pytest.mark.parametrize("meta", [["spec", "tau"], "spec", None],
                             ids=["list", "string", "null"])
    def test_meta_not_an_object_is_named(self, tmp_path, meta):
        save_model(stepped_model(), str(tmp_path / "ckpt"))
        path = str(tmp_path / "ckpt" / "model.npz")
        save_arrays(path, load_arrays(path)[1], meta)
        with pytest.raises(ParseError, match=re.escape(f"{path}: meta is ")):
            load_model(str(tmp_path / "ckpt"))

    def test_pickles_to_its_three_vectors(self):
        # a trained model crosses a worker's pipe as its vectors and a
        # fixed overhead, each vector once
        spec = MlpSpec((32, 24, 16), "tanh")
        m = one_step(make_model(spec), batch_for(spec), Objective(), 0.05, 0.9,
                     RngStream(52)).model
        size = m.online.size + m.target.size + m.velocity.size
        assert len(pickle.dumps(m)) < 8 * size + 4096
        assert same_tensors(pickle.loads(pickle.dumps(m)), m)

    def test_entry_names(self):
        names = list(model_arrays(make_model()))
        assert names == [f"online{i}" for i in range(6)] + [f"target{i}" for i in range(4)] \
            + [f"velocity{i}" for i in range(6)]

    @pytest.mark.parametrize("change,named", [
        (lambda a: a.pop("online5"), "missing entries ['online5']"),
        (lambda a: a.pop("target0"), "missing entries ['target0']"),
        (lambda a: a.update(target4=np.zeros((3, 3))), "unexpected entries ['target4']"),
        (lambda a: a.update(velocity2=np.zeros((5, 2))), "entry 'velocity2' has shape (5, 2)"),
        (lambda a: a.update(online0=np.zeros(20)), "entry 'online0' has shape (20,)"),
    ])
    def test_wrong_entries_named(self, change, named):
        arrays = model_arrays(make_model())
        change(arrays)
        with pytest.raises(ParseError, match=re.escape(f"model.npz: {named}")):
            model_from_arrays(RELU, 0.99, arrays, source="model.npz")


class TestNoWriteInPlace:
    """A model is a value: every operation succeeds on read-only vectors."""

    def read_only(self, model):
        for part in ("online", "target", "velocity"):
            getattr(model, part).flags.writeable = False
        return model

    def test_operations_on_read_only_tensors(self, tmp_path):
        m = self.read_only(stepped_model())
        before = {n: a.copy() for n, a in model_arrays(m).items()}
        for obj in (Objective(), Objective(0.5, rad=batch_for(RELU, seed=7, rows=5),
                                           reference=gram_linear(np.ones((5, 3))),
                                           augment=AugmentConfig(0.2, 0.1), normalize=True,
                                           clip_radius=0.5, symmetrize=True)):
            step = one_step(m, batch_for(RELU), obj, 0.05, 0.9, RngStream(53))
            self.read_only(step.model)
            one_step(step.model, batch_for(RELU), obj, 0.05, 0.9, RngStream(54))
        moved = self.read_only(ema_update(m))
        assert same_tensors(set_params(moved, moved.online), moved)
        save_model(m, str(tmp_path / "ro"))
        assert same_tensors(load_model(str(tmp_path / "ro")), m)
        assert all(np.array_equal(a, before[n]) for n, a in model_arrays(m).items())
