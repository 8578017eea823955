"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [criterion NN] PASS/FAIL line. Heavy federated
runs are shared across tests through module-level caches.
"""

import functools
import time
import warnings

import numpy as np

from hssfl import sslnet
from hssfl.cka import GramMatrix, ProximalForm, gram_linear, linear_cka
from hssfl.datahub import synth_mixture
from hssfl.evaluation import ProbeConfig, collab_report
from hssfl.federation import FedConfig, run_training, standalone_training
from hssfl.numkit import RngStream
from hssfl.sslnet import (
    AugmentConfig,
    MlpSpec,
    init_client_model,
    loss_and_grad,
    model_arrays,
    set_params,
)
from hssfl.theory import (
    AssumptionEstimates,
    EstimatedConstant,
    check_round_log,
    estimate_constants,
    eta_max_lemma1,
    lipschitz_ratio_max,
    mu_max_theorem,
)

warnings.filterwarnings("ignore", category=RuntimeWarning)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


# --------------------------------------------------------------------------
# criterion 1: similarity-score property suite


def test_c01_cka_properties():
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        gen = RngStream(i, purpose="c1").generator()
        rows = int(gen.integers(3, 9))
        cols = int(gen.integers(2, 7))
        a = gen.normal(size=(rows, cols))
        ka = gram_linear(a)

        worst = max(worst, abs(linear_cka(ka, ka) - 1.0))
        q, _ = np.linalg.qr(gen.normal(size=(cols, cols)))
        worst = max(worst, abs(linear_cka(ka, gram_linear(a @ q)) - 1.0))
        c = float(gen.uniform(0.1, 5.0)) * (-1.0 if gen.random() < 0.5 else 1.0)
        worst = max(worst, abs(linear_cka(ka, gram_linear(c * a)) - 1.0))

        b = gen.normal(size=(rows, cols + 1))
        s = linear_cka(ka, gram_linear(b))
        worst = max(worst, max(0.0 - s, s - 1.0, 0.0))
    elapsed = time.time() - t0
    report(1, "similarity-score property suite", worst <= 1e-9 and elapsed < 5.0,
           f"worst deviation {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: analytic gradients of the combined loss vs finite differences


ARCH_ZOO = [
    MlpSpec((3, 2), "relu"),
    MlpSpec((3, 3), "tanh"),
    MlpSpec((3, 5), "relu"),
    MlpSpec((3, 2, 2), "tanh"),
    MlpSpec((3, 3, 3), "relu"),
    MlpSpec((3, 5, 5), "tanh"),
    MlpSpec((3, 2, 2, 2), "relu"),
    MlpSpec((3, 3, 3, 3), "tanh"),
    MlpSpec((3, 5, 5, 5), "relu"),
]

ALL_FORMS = (ProximalForm.ONE_MINUS_CKA, ProximalForm.RAW_CKA,
             ProximalForm.TRACE_ALIGNMENT, ProximalForm.L2_REP)


def _safe_random_point(spec, form, normalize, seed):
    """Random model/batch well away from relu kinks, zero rows, and the
    L2 distance singularity, so central differences are trustworthy."""
    batch_rows, rad_rows = 3, 4
    for attempt in range(50):
        gen = RngStream(seed, epoch=attempt, purpose="c2-point").generator()
        model = init_client_model(spec, 0.99,
                                  RngStream(seed, epoch=attempt, purpose="c2-init"))
        model = set_params(model, model.online + 0.3 * gen.normal(size=model.online.size))
        batch = gen.normal(size=(batch_rows, spec.input_width))
        rad = gen.normal(size=(rad_rows, spec.input_width))
        if form is ProximalForm.L2_REP:
            ref = gen.normal(size=(rad_rows, spec.output_width))
        else:
            ref = gram_linear(gen.normal(size=(rad_rows, spec.output_width + 1)))

        pred, tape = sslnet.forward_online(model, np.concatenate([batch, rad]))
        target = sslnet.forward_target(model, batch)
        if spec.activation == "relu":
            margin = min(float(np.min(np.abs(z))) for z in tape.pre_acts[:-1]) \
                if len(tape.pre_acts) > 1 else 1.0
            if margin < 1e-3:
                continue
        if normalize:
            norms = [np.linalg.norm(pred[:batch_rows], axis=1),
                     np.linalg.norm(target, axis=1)]
            if min(float(n.min()) for n in norms) < 1e-2:
                continue
        if form is ProximalForm.L2_REP:
            if np.linalg.norm(pred[batch_rows:] - ref) < 1e-2:
                continue
        return model, batch, rad, ref
    raise AssertionError("no well-conditioned random point found")


def test_c02_combined_gradient_oracle():
    t0 = time.time()
    mu = 0.7
    h = 1e-5
    worst = 0.0
    rng = RngStream(0, purpose="c2-eval")
    aug = AugmentConfig(0.0, 0.0)
    for ai, spec in enumerate(ARCH_ZOO):
        for fi, form in enumerate(ALL_FORMS):
            for normalize in (False, True):
                for point in range(20):
                    seed = ai * 10_000 + fi * 1_000 + int(normalize) * 100 + point
                    model, batch, rad, ref = _safe_random_point(
                        spec, form, normalize, seed
                    )

                    obj = sslnet.Objective(mu, form, rad, ref, aug, normalize)

                    def value(vec):
                        views = sslnet.objective_views(batch, aug, rng)
                        loss, _, _ = sslnet.combined_loss(set_params(model, vec), views, obj)
                        return loss

                    _, _, _, analytic = loss_and_grad(model, batch, obj, rng)
                    x0 = model.online
                    numeric = np.empty_like(x0)
                    for j in range(x0.size):
                        xp = x0.copy()
                        xp[j] += h
                        xm = x0.copy()
                        xm[j] -= h
                        numeric[j] = (value(xp) - value(xm)) / (2.0 * h)
                    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
                    worst = max(worst, float(np.max(np.abs(analytic - numeric)) / scale))
    elapsed = time.time() - t0
    report(2, "combined-loss gradient oracle", worst < 1e-5 and elapsed < 60.0,
           f"worst relative error {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 3: mu = 0 federated training equals standalone training


def _mixture(seed, classes=10, dim=16, per_class=60):
    return synth_mixture(classes, dim, per_class, 4.0, 1.0,
                         RngStream(seed, purpose="synth"))


def test_c03_mu_zero_equivalence():
    t0 = time.time()
    specs = tuple(MlpSpec((16, 8), "relu") if k % 2 == 0 else MlpSpec((16, 12, 8), "tanh")
                  for k in range(5))
    cfg = FedConfig(
        num_clients=5, rounds=3, local_epochs=2, eta=0.01, momentum=0.9,
        batch_size=32, mu=0.0, proximal_form="one_minus_cka", tau=0.99,
        client_specs=specs, rad_size=32, seed=5, partition="noniid",
        noise_std=0.2, mask_prob=0.1,
    )
    res = run_training(cfg, _mixture(5))
    identical = True
    for k in range(cfg.num_clients):
        alone = standalone_training(cfg, _mixture(5), k)
        fed = res.models[k]
        for a, b in zip(model_arrays(fed).values(), model_arrays(alone).values()):
            identical &= a.tobytes() == b.tobytes()
    elapsed = time.time() - t0
    report(3, "mu=0 equivalence with standalone training",
           identical and elapsed < 60.0, f"bit-identical, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 4: worker count cannot change the log


def test_c04_determinism_under_parallelism(tmp_path):
    t0 = time.time()
    specs = tuple(MlpSpec((16, 8), "relu") for _ in range(8))
    cfg = FedConfig(
        num_clients=8, rounds=4, local_epochs=2, eta=0.01, momentum=0.9,
        batch_size=24, mu=0.5, proximal_form="one_minus_cka", tau=0.99,
        client_specs=specs, rad_size=24, seed=6, partition="iid",
        noise_std=0.2, mask_prob=0.1, sample_size=6,
    )
    p1 = tmp_path / "w1.jsonl"
    p8 = tmp_path / "w8.jsonl"
    run_training(cfg, _mixture(6), workers=1, log_path=str(p1))
    run_training(cfg, _mixture(6), workers=8, log_path=str(p8))
    same = p1.read_bytes() == p8.read_bytes()
    elapsed = time.time() - t0
    report(4, "byte-identical logs for --workers 1 vs 8",
           same and elapsed < 120.0, f"{p1.stat().st_size} bytes, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criteria 5 and 6 share one batch of probed runs


THEORY_SEEDS = 20


def _theory_cfg(seed, mu, eta, rounds, epochs, rad=64):
    specs = tuple(MlpSpec((16, 8), "tanh") if k % 2 == 0 else MlpSpec((16, 12, 8), "tanh")
                  for k in range(5))
    return FedConfig(
        num_clients=5, rounds=rounds, local_epochs=epochs, eta=eta,
        momentum=0.0, batch_size=1_000_000, mu=mu,
        proximal_form="trace_alignment", tau=1.0, client_specs=specs,
        rad_size=rad, seed=seed, partition="noniid", clip_radius=1.0,
        theory_probes=True,
    )


@functools.lru_cache(maxsize=1)
def _lemma_runs():
    out = []
    for seed in range(THEORY_SEEDS):
        cfg = _theory_cfg(seed, mu=0.5, eta=0.0005, rounds=5, epochs=5)
        res = run_training(cfg, _mixture(seed))
        est = estimate_constants(res.log)
        out.append((cfg, res, est))
    return out


def test_c05_lemma1_descent_bound():
    t0 = time.time()
    holds = events = 0
    eta_below = True
    reduced = 0
    for cfg, res, est in _lemma_runs():
        for rep in check_round_log(res.log, cfg.eta, cfg.mu, cfg.local_epochs,
                                   cfg.rad_size, est):
            if rep.which == "lemma1":
                holds += rep.holds
                events += 1
        for rec in res.log.client_records():
            probe = rec["probe"]
            s = sum(g * g for g in probe["grad_norms"][:cfg.local_epochs])
            eta_below &= cfg.eta < eta_max_lemma1(s, cfg.local_epochs, est)
            reduced += probe["losses"][cfg.local_epochs] <= probe["losses"][0]
    frac_reduced = reduced / events
    elapsed = time.time() - t0
    ok = holds == events and eta_below and frac_reduced >= 0.9 and elapsed < 300.0
    report(5, "descent bound on full-batch desk run",
           ok, f"{holds}/{events} hold, eta below threshold everywhere, "
               f"loss reduced in {frac_reduced:.0%} of client-rounds, {elapsed:.1f}s")


def test_c06_lemma2_reference_swap_bound():
    t0 = time.time()
    holds = events = 0
    slack_ratios = []
    for cfg, res, est in _lemma_runs():
        for rep in check_round_log(res.log, cfg.eta, cfg.mu, cfg.local_epochs,
                                   cfg.rad_size, est):
            if rep.which == "lemma2":
                holds += rep.holds
                events += 1
                if rep.lhs > 0:
                    slack_ratios.append(rep.rhs / rep.lhs)
    elapsed = time.time() - t0
    worst_ratio = min(slack_ratios) if slack_ratios else float("inf")
    ok = holds == events and events > 0 and elapsed < 300.0
    report(6, "reference-swap bound (trace form, L=64)",
           ok, f"{holds}/{events} hold, worst slack ratio {worst_ratio:.3g}, "
               f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 7: combined per-round bound with both thresholds satisfied


def test_c07_theorem_round_decrease():
    t0 = time.time()
    bound_ok = eta_ok = mu_ok = True
    decreasing_seeds = 0
    for seed in range(THEORY_SEEDS):
        cfg = _theory_cfg(seed, mu=1e-6, eta=0.0005, rounds=50, epochs=3)
        res = run_training(cfg, _mixture(seed))
        est = estimate_constants(res.log)
        for rep in check_round_log(res.log, cfg.eta, cfg.mu, cfg.local_epochs,
                                   cfg.rad_size, est):
            if rep.which == "theorem":
                bound_ok &= rep.holds
                eta_ok &= rep.inputs["eta_ok"]
                mu_ok &= rep.inputs["mu_ok"]
        by_round = {}
        for rec in res.log.client_records():
            by_round.setdefault(rec["round"], []).append(rec["loss_total_end"])
        series = [float(np.mean(by_round[t])) for t in sorted(by_round)]
        ma = [float(np.mean(series[i - 4:i + 1])) for i in range(4, len(series))]
        decreasing_seeds += all(b < a for a, b in zip(ma, ma[1:]))
    elapsed = time.time() - t0
    frac = decreasing_seeds / THEORY_SEEDS
    ok = bound_ok and eta_ok and mu_ok and frac >= 0.9 and elapsed < 600.0
    report(7, "combined bound and per-round loss decrease",
           ok, f"bound holds, thresholds satisfied post hoc, moving average "
               f"decreasing in {frac:.0%} of seeds, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 8: collaboration benefit on disjoint non-IID clients


def test_c08_collaboration_benefit():
    t0 = time.time()
    def cfg_for(seed, mu):
        specs = tuple(MlpSpec((32, 16, 8), "relu") if k < 3 else
                      MlpSpec((32, 24, 16), "relu") for k in range(5))
        return FedConfig(
            num_clients=5, rounds=30, local_epochs=5, eta=0.1, momentum=0.9,
            batch_size=64, mu=mu, proximal_form="one_minus_cka", tau=0.9,
            client_specs=specs, rad_size=128, seed=seed, partition="noniid",
            noise_std=0.3, mask_prob=0.1, normalize_loss=True,
        )

    def big_mixture(seed):
        return synth_mixture(10, 32, 200, 4.0, 1.0, RngStream(seed, purpose="synth"))

    per_group = {}
    means = []
    for seed in range(5):
        ds = big_mixture(seed)
        local = run_training(cfg_for(seed, 0.0), ds)
        fed = run_training(cfg_for(seed, 0.5), big_mixture(seed))
        # probe on the pool rows not reserved for the alignment set
        avail = ds.available_indices()
        rows = collab_report(local.models, fed.models,
                             ds.features[avail], ds.labels[avail],
                             ProbeConfig(epochs=50, seed=seed), split_seed=seed)
        means.append(float(np.mean([r["delta"] for r in rows])))
        for r in rows:
            per_group.setdefault(r["architecture"], []).append(r["delta"])
    mean_delta = float(np.mean(means))
    group_means = {a: float(np.mean(v)) for a, v in per_group.items()}
    elapsed = time.time() - t0
    ok = (mean_delta >= 0.03 and all(v > 0 for v in group_means.values())
          and elapsed < 900.0)
    detail = ", ".join(f"{a}: {v * 100:+.1f} pts" for a, v in sorted(group_means.items()))
    report(8, "collaboration beats local-only by >= 3 points",
           ok, f"mean {mean_delta * 100:+.1f} pts over 5 seeds; {detail}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 9: 20 clients sampling 5 per round at 200 rounds


def test_c09_heterogeneity_and_scale():
    t0 = time.time()
    arch_cycle = [MlpSpec((12, 6), "relu"), MlpSpec((12, 8, 6), "relu"),
                  MlpSpec((12, 10, 6), "tanh")]
    specs = tuple(arch_cycle[k % 3] for k in range(20))
    cfg = FedConfig(
        num_clients=20, rounds=200, local_epochs=1, eta=0.005, momentum=0.0,
        batch_size=1_000_000, mu=0.5, proximal_form="one_minus_cka", tau=0.99,
        client_specs=specs, rad_size=24, seed=18, partition="iid",
        sample_size=5,
    )
    ds = synth_mixture(10, 12, 100, 4.0, 1.0, RngStream(18, purpose="synth"))
    res = run_training(cfg, ds)

    payload_sizes = {p.size for p in res.server.registry.values()}
    payloads_ok = payload_sizes == {cfg.rad_size} and all(
        isinstance(p, GramMatrix) for p in res.server.registry.values()
    )
    counts = np.zeros(20)
    for rec in res.log.records:
        if rec["type"] == "server" and rec["round"] >= 1:
            for k in rec["selected"]:
                counts[k] += 1
    freqs = counts / cfg.rounds
    max_dev = float(np.max(np.abs(freqs - cfg.sample_size / cfg.num_clients)))
    completed = res.server.round == cfg.rounds
    elapsed = time.time() - t0
    ok = completed and payloads_ok and max_dev < 0.05 and elapsed < 600.0
    report(9, "20-client run sampling 5, three encoder specs",
           ok, f"payloads {cfg.rad_size}x{cfg.rad_size}, max frequency deviation "
               f"{max_dev:.3f}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 10: plug-in formulas exact


def test_c10_plugin_formulas():
    t0 = time.time()

    def const(v):
        return EstimatedConstant(float(v), 1, "acceptance")

    def est(l1=1.0, l2=1.0, sigma2=0.0, p=1.0, r=1.0):
        return AssumptionEstimates(const(l1), const(l2), const(sigma2),
                                   const(p), const(r))

    ok = eta_max_lemma1(4.0, 1, est(l1=2.0, sigma2=0.0)) == 1.0
    ok &= eta_max_lemma1(4.0, 2, est(l1=2.0, sigma2=2.0)) == 0.5
    ok &= mu_max_theorem(4.0, est(l2=1.0, p=1.0, r=1.0), 2) == 0.5

    c = 2.71828
    points = [np.array([w]) for w in (0.3, -0.8, 1.7, 2.4)]
    grads = [c * p for p in points]
    l1_hat = lipschitz_ratio_max(points, grads)
    ok &= abs(l1_hat - c) < 1e-6
    elapsed = time.time() - t0
    report(10, "plug-in threshold formulas and quadratic curvature",
           ok and elapsed < 1.0, f"L1_hat error {abs(l1_hat - c):.2e}, {elapsed:.2f}s")
