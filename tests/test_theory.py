import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hssfl.datahub import synth_mixture
from hssfl.errors import DegenerateInputError, InsufficientProbesError
from hssfl.federation import FedConfig, RoundLog, run_training
from hssfl.numkit import RngStream
from hssfl.sslnet import MlpSpec
from hssfl.theory import (
    AssumptionEstimates,
    EstimatedConstant,
    check_round_log,
    estimate_constants,
    eta_max_lemma1,
    lemma1_check,
    lemma2_check,
    lipschitz_ratio_max,
    lipschitz_ratios,
    mu_max_theorem,
    theorem_check,
)


def const(v):
    return EstimatedConstant(float(v), 1, "test")


def estimates(l1=1.0, l2=1.0, sigma2=0.0, p=1.0, r=1.0):
    return AssumptionEstimates(const(l1), const(l2), const(sigma2), const(p), const(r))


def quadratic_trace(c, eta, epochs, w0=1.0, quartic=0.0):
    """Gradient descent on f(w) = c/2 w^2 + quartic * w^4."""
    losses, grads = [], []
    w = w0
    for _ in range(epochs):
        loss = 0.5 * c * w * w + quartic * w ** 4
        grad = c * w + 4.0 * quartic * w ** 3
        losses.append(loss)
        grads.append(abs(grad))
        w = w - eta * grad
    losses.append(0.5 * c * w * w + quartic * w ** 4)
    return losses, grads


class TestEtaMax:
    def test_plugin_case_one(self):
        assert eta_max_lemma1(4.0, 1, estimates(l1=2.0, sigma2=0.0)) == 1.0

    def test_plugin_case_two(self):
        assert eta_max_lemma1(4.0, 2, estimates(l1=2.0, sigma2=2.0)) == 0.5

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            eta_max_lemma1(0.0, 1, estimates(l1=2.0, sigma2=0.0))

    @settings(max_examples=50, deadline=None)
    @given(
        s=st.floats(0.1, 100.0),
        l1a=st.floats(0.1, 50.0),
        delta=st.floats(0.01, 50.0),
        e=st.integers(1, 20),
        sig=st.floats(0.0, 50.0),
    )
    def test_monotone_decreasing_in_l1_sigma_e(self, s, l1a, delta, e, sig):
        base = eta_max_lemma1(s, e, estimates(l1=l1a, sigma2=sig))
        assert eta_max_lemma1(s, e, estimates(l1=l1a + delta, sigma2=sig)) < base
        assert eta_max_lemma1(s, e, estimates(l1=l1a, sigma2=sig + delta)) <= base
        assert eta_max_lemma1(s, e + 1, estimates(l1=l1a, sigma2=sig)) <= base


class TestMuMax:
    def test_plugin_case(self):
        assert mu_max_theorem(4.0, estimates(l2=1.0, p=1.0, r=1.0), 2) == 0.5

    @settings(max_examples=50, deadline=None)
    @given(
        s=st.floats(0.1, 100.0),
        l2=st.floats(0.1, 10.0),
        p=st.floats(0.1, 10.0),
        r=st.floats(0.1, 10.0),
        delta=st.floats(0.01, 10.0),
    )
    def test_monotone(self, s, l2, p, r, delta):
        base = mu_max_theorem(s, estimates(l2=l2, p=p, r=r), 4)
        assert mu_max_theorem(s, estimates(l2=l2 + delta, p=p, r=r), 4) < base
        assert mu_max_theorem(s, estimates(l2=l2, p=p + delta, r=r), 4) < base
        assert mu_max_theorem(s, estimates(l2=l2, p=p, r=r + delta), 4) < base
        assert mu_max_theorem(s + delta, estimates(l2=l2, p=p, r=r), 4) > base


class TestLipschitzEstimator:
    def test_quadratic_hessian_oracle(self):
        c = 3.7
        points = [np.array([w]) for w in (0.2, -1.5, 2.0, 0.9)]
        grads = [c * p for p in points]
        assert lipschitz_ratio_max(points, grads) == pytest.approx(c, abs=1e-6)

    def test_frozen_model_degenerate(self):
        p = np.ones(4)
        with pytest.raises(InsufficientProbesError):
            lipschitz_ratio_max([p, p.copy()], [p, p.copy()])

    def test_needs_two_checkpoints(self):
        with pytest.raises(InsufficientProbesError):
            lipschitz_ratio_max([np.ones(2)], [np.ones(2)])


class TestLipschitzRatios:
    def test_pair_order_and_coincident_points(self):
        points = [np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([3.0])]
        values = [np.array([0.0]), np.array([2.0]), np.array([5.0]), np.array([3.0])]
        # pairs (0,1), (0,2), (0,3), (1,3), (2,3); (1,2) share a point
        assert lipschitz_ratios(points, values) == [2.0, 5.0, 1.0, 0.5, 1.0]


class TestLemma1:
    def test_quadratic_equality(self):
        c, eta, epochs = 2.0, 0.3, 4
        losses, grads = quadratic_trace(c, eta, epochs)
        rep = lemma1_check(losses, grads, eta, epochs, estimates(l1=c, sigma2=0.0))
        assert rep.holds
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_holds_below_threshold(self):
        c = 2.0
        for eta in np.linspace(0.01, 2.0 / c - 0.01, 7):
            losses, grads = quadratic_trace(c, float(eta), 3)
            rep = lemma1_check(losses, grads, float(eta), 3,
                               estimates(l1=c, sigma2=0.0))
            assert rep.holds and rep.slack >= -1e-12

    def test_can_fail_above_threshold(self):
        # realized curvature above the assumed constant breaks the bound
        c = 2.0
        eta = 1.4  # > 2/c
        losses, grads = quadratic_trace(c, eta, 4, w0=1.0, quartic=0.05)
        rep = lemma1_check(losses, grads, eta, 4, estimates(l1=c, sigma2=0.0))
        assert not rep.holds

    def test_eta_zero_is_equality(self):
        losses, grads = quadratic_trace(2.0, 0.0, 2)
        rep = lemma1_check(losses, grads, 0.0, 2, estimates(l1=2.0, sigma2=0.0))
        assert rep.lhs == rep.rhs == losses[0]

    def test_missing_probes(self):
        with pytest.raises(InsufficientProbesError):
            lemma1_check([1.0], [1.0], 0.1, 2, estimates())


class TestLemma2:
    def test_mu_zero_trivial(self):
        rep = lemma2_check(1.0, 1.0, 0.0, 0.1, estimates(), 8)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds

    def test_frozen_clients_zero_jump(self):
        rep = lemma2_check(2.5, 2.5, 0.5, 0.0, estimates(), 8)
        assert rep.lhs == 0.0 and rep.holds

    def test_rhs_formula(self):
        est = estimates(l2=2.0, p=3.0, r=2.0)
        rep = lemma2_check(0.0, 1.0, 0.5, 0.1, est, 4)
        assert rep.rhs == pytest.approx(2 * 0.5 * 0.1 * 2.0 * 3.0 * 8.0 * 16.0)


class TestTheorem:
    def test_mu_zero_reduces_to_lemma1(self):
        losses, grads = quadratic_trace(2.0, 0.2, 3)
        est = estimates(l1=2.0, sigma2=0.0)
        base = lemma1_check(losses, grads, 0.2, 3, est)
        rep = theorem_check(losses, grads, losses[3], 0.2, 0.0, 3, est, 8)
        assert rep.rhs == pytest.approx(base.rhs)
        assert rep.lhs == base.lhs
        assert rep.inputs["mu_ok"]

    def test_threshold_flags(self):
        losses, grads = quadratic_trace(2.0, 0.2, 1, w0=2.0)
        est = estimates(l1=2.0, l2=1.0, p=1.0, r=1.0, sigma2=0.0)
        s = grads[0] ** 2
        mu_limit = mu_max_theorem(s, est, 2)
        rep_ok = theorem_check(losses, grads, losses[1], 0.2, mu_limit * 0.5,
                               1, est, 2)
        rep_bad = theorem_check(losses, grads, losses[1], 0.2, mu_limit * 2.0,
                                1, est, 2)
        assert rep_ok.inputs["mu_ok"] and not rep_bad.inputs["mu_ok"]


def theory_run(seed=0, mu=0.5, rounds=2, epochs=2, clients=3, eta=0.002, log_path=None):
    ds = synth_mixture(6, 8, 30, 4.0, 0.5, RngStream(seed, purpose="synth"))
    cfg = FedConfig(
        num_clients=clients, rounds=rounds, local_epochs=epochs, eta=eta,
        momentum=0.0, batch_size=10_000, mu=mu, proximal_form="trace_alignment",
        tau=1.0, client_specs=tuple(MlpSpec((8, 6), "relu") for _ in range(clients)),
        rad_size=8, seed=seed, partition="iid", clip_radius=1.0,
        theory_probes=True,
    )
    return cfg, run_training(cfg, ds, log_path=log_path)


class TestRunLevel:
    def test_full_batch_sigma2_is_zero(self):
        _, res = theory_run()
        est = estimate_constants(res.log)
        assert est.sigma2.value == 0.0
        assert est.r.value <= 1.0 + 1e-12

    def test_minibatch_sigma2_positive(self):
        ds = synth_mixture(6, 8, 30, 4.0, 0.5, RngStream(1, purpose="synth"))
        cfg = FedConfig(
            num_clients=2, rounds=1, local_epochs=1, eta=0.002, momentum=0.0,
            batch_size=16, mu=0.0, proximal_form="trace_alignment", tau=1.0,
            client_specs=tuple(MlpSpec((8, 6), "relu") for _ in range(2)),
            rad_size=8, seed=1, partition="iid", clip_radius=1.0,
            theory_probes=True, noise_std=0.1,
        )
        res = run_training(cfg, ds)
        est = estimate_constants(res.log)
        assert est.sigma2.value > 0.0

    def test_reports_recomputable_from_jsonl(self, tmp_path):
        log_path = tmp_path / "log.jsonl"
        cfg, res = theory_run(log_path=str(log_path))
        direct = check_round_log(res.log, cfg.eta, cfg.mu, cfg.local_epochs,
                                 cfg.rad_size)
        parsed = RoundLog.from_jsonl(log_path.read_text(encoding="utf-8"))
        replayed = check_round_log(parsed, cfg.eta, cfg.mu, cfg.local_epochs,
                                   cfg.rad_size)
        assert [r.to_dict() for r in direct] == [r.to_dict() for r in replayed]

    def test_estimates_have_provenance(self):
        _, res = theory_run()
        est = estimate_constants(res.log)
        for c in (est.l1, est.l2, est.p, est.r):
            assert c.samples > 0
            assert c.provenance.startswith("round")

    def test_non_trace_form_flagged_informational(self):
        cfg, res = theory_run(seed=4)
        reports = check_round_log(res.log, cfg.eta, cfg.mu, cfg.local_epochs,
                                  cfg.rad_size, proximal_form="one_minus_cka")
        lemma2 = [r for r in reports if r.which == "lemma2"]
        assert lemma2 and all(r.inputs["informational"] for r in lemma2)
        trace = check_round_log(res.log, cfg.eta, cfg.mu, cfg.local_epochs,
                                cfg.rad_size, proximal_form="trace_alignment")
        assert all(not r.inputs["informational"] for r in trace)

    def test_probeless_log_rejected(self):
        ds = synth_mixture(6, 8, 30, 4.0, 0.5, RngStream(2, purpose="synth"))
        cfg = FedConfig(
            num_clients=2, rounds=1, local_epochs=1, eta=0.002, momentum=0.0,
            batch_size=64, mu=0.0, proximal_form="one_minus_cka", tau=1.0,
            client_specs=tuple(MlpSpec((8, 6), "relu") for _ in range(2)),
            rad_size=8, seed=2, partition="iid",
        )
        res = run_training(cfg, ds)
        with pytest.raises(InsufficientProbesError):
            estimate_constants(res.log)

    def test_bounds_hold_on_theory_profile(self):
        cfg, res = theory_run(seed=3, rounds=3, epochs=2)
        reports = check_round_log(res.log, cfg.eta, cfg.mu, cfg.local_epochs,
                                  cfg.rad_size)
        lemma2 = [r for r in reports if r.which == "lemma2"]
        assert lemma2 and all(r.holds for r in lemma2)


def observed_run(theory_probes, workers=1, log_path=None):
    """A minibatch run with augmentation, momentum and mixed encoders, so a
    probe that drew from a training stream or moved a tensor would show."""
    ds = synth_mixture(6, 8, 30, 4.0, 0.5, RngStream(6, purpose="synth"))
    cfg = FedConfig(
        num_clients=3, rounds=2, local_epochs=2, eta=0.01, momentum=0.9,
        batch_size=16, mu=0.5, proximal_form="one_minus_cka", tau=0.9,
        client_specs=(MlpSpec((8, 6), "relu"), MlpSpec((8, 10, 6), "tanh"),
                      MlpSpec((8, 12, 4), "relu")),
        rad_size=8, seed=6, partition="iid", noise_std=0.3, mask_prob=0.1,
        theory_probes=theory_probes,
    )
    return run_training(cfg, ds, workers=workers, log_path=log_path)


class TestProbesOnlyObserve:
    def test_probed_run_trains_and_logs_as_unprobed(self):
        plain, probed = observed_run(False), observed_run(True)
        for a, b in zip(plain.models, probed.models):
            for name in ("online", "target", "velocity"):
                assert ([t.tobytes() for t in getattr(a, name)]
                        == [t.tobytes() for t in getattr(b, name)])
        assert all(r["probe"]["sigma2"] > 0.0 for r in probed.log.client_records())

        def without_probe(log):
            return [{k: v for k, v in r.items() if k != "probe"} for r in log.records]

        assert without_probe(probed.log) == without_probe(plain.log)

    def test_probed_log_same_bytes_for_any_worker_count(self, tmp_path):
        paths = [tmp_path / f"log{w}.jsonl" for w in (1, 2)]
        for w, path in zip((1, 2), paths):
            observed_run(True, workers=w, log_path=str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
