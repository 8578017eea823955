import collections
import dataclasses
import gc
import io
import itertools
import os
import pathlib
import re
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hssfl import federation, numkit
from hssfl.cka import GramMatrix, gram_linear, packed_size
from hssfl.datahub import synth_mixture
from hssfl.errors import (ConfigError, NumericalFailureError, ParseError, ProtocolError,
                          ShapeError, UnsupportedCombinationError)
from hssfl.federation import (
    FedConfig,
    RoundLog,
    _client_objective,
    _transmit,
    local_training,
    run_training,
    select_clients,
    server_aggregate,
    standalone_training,
)
from hssfl.numkit import RngStream
from hssfl.sslnet import MlpSpec, model_arrays


def dataset(seed=0, classes=10, dim=16, per_class=40):
    return synth_mixture(classes, dim, per_class, 4.0, 1.0,
                         RngStream(seed, purpose="synth"))


def small_cfg(**overrides):
    base = dict(
        num_clients=4,
        rounds=2,
        local_epochs=2,
        eta=0.01,
        momentum=0.9,
        batch_size=32,
        mu=0.5,
        proximal_form="one_minus_cka",
        tau=0.99,
        client_specs=tuple(MlpSpec((16, 8), "relu") for _ in range(4)),
        rad_size=24,
        seed=11,
        partition="iid",
        noise_std=0.1,
        mask_prob=0.05,
    )
    base.update(overrides)
    if "client_specs" not in overrides and base["num_clients"] != 4:
        base["client_specs"] = tuple(
            MlpSpec((16, 8), "relu") for _ in range(base["num_clients"])
        )
    return FedConfig(**base)


class CallLog:
    """Calls recorded in every process of a run, the forked client workers
    included: each call appends one line to a file."""

    def __init__(self, directory):
        self.path = pathlib.Path(directory) / "calls.txt"
        self.path.write_text("")

    def wrap(self, name, real, note=lambda *args: ""):
        def call(*args, **kwargs):
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {name} {note(*args)}\n")
            return real(*args, **kwargs)
        return call

    def calls(self):
        """(pid, name, note) per call, in the order each process made them."""
        return [tuple(line.split(" ", 2)) for line in self.path.read_text().splitlines()]

    def counts(self):
        """Calls by (pid, name)."""
        return collections.Counter((int(pid), name) for pid, name, _ in self.calls())

    def total(self, name):
        """Calls of ``name`` in every process."""
        return sum(1 for _, called, _ in self.calls() if called == name)


class TestSelectClients:
    def test_full_sample_ascending(self):
        assert select_clients(6, 6, 3, RngStream(0)) == [0, 1, 2, 3, 4, 5]

    def test_deterministic_per_round(self):
        a = select_clients(20, 5, 7, RngStream(1))
        b = select_clients(20, 5, 7, RngStream(1))
        assert a == b
        assert select_clients(20, 5, 8, RngStream(1)) != a or True  # may coincide

    def test_frequency(self):
        counts = np.zeros(10)
        rounds = 10_000
        for t in range(rounds):
            for k in select_clients(10, 3, t, RngStream(2)):
                counts[k] += 1
        freqs = counts / rounds
        assert np.max(np.abs(freqs - 0.3)) < 0.02


class TestServerAggregate:
    def test_identical_payloads(self):
        k = gram_linear(RngStream(3, purpose="a").generator().normal(size=(4, 2)))
        registry = {}
        out = server_aggregate([(0, k), (1, k)], [0.5, 0.5], registry)
        assert np.allclose(out.entries, k.entries)

    def test_weighted_oracle(self):
        k1, k2 = GramMatrix(np.eye(3)), GramMatrix(np.sqrt(3.0) * np.eye(3))
        out = server_aggregate([(0, k1), (1, k2)], [0.5, 0.5], {})
        assert np.allclose(out.entries, 2.0 * np.eye(3), rtol=0.0, atol=1e-15)

    def test_arrival_order_irrelevant(self):
        ks = [gram_linear(RngStream(s, purpose="k").generator().normal(size=(4, 2)))
              for s in range(3)]
        w = [1 / 3] * 3
        a = server_aggregate(list(enumerate(ks)), w, {})
        b = server_aggregate(list(enumerate(ks))[::-1], w, {})
        assert a.entries.tobytes() == b.entries.tobytes()

    @pytest.mark.parametrize("kind", ["kernel", "representation"])
    def test_shuffled_arrival_bit_identical(self, kind):
        # the aggregate is summed in client-id order, whatever order the
        # reports arrive in
        weights = [0.1, 0.3, 0.2, 0.15, 0.25]
        phis = [RngStream(s, purpose="phi").generator().normal(size=(6, 3))
                for s in range(5)]
        payloads = [gram_linear(p) if kind == "kernel" else p for p in phis]
        reports = list(enumerate(payloads))
        expected = held(server_aggregate(reports, weights, {}))
        for seed in range(4):
            order = RngStream(seed, purpose="arrival").generator().permutation(5)
            shuffled = [reports[i] for i in order]
            out = held(server_aggregate(shuffled, weights, {}))
            assert out.tobytes() == expected.tobytes()

    def test_stale_payload_reuse(self):
        k_old = GramMatrix(np.eye(2))
        k_new = GramMatrix(np.sqrt(2.0) * np.eye(2))
        registry = {0: k_old, 1: k_old}
        out = server_aggregate([(1, k_new)], [0.5, 0.5], registry)
        assert np.allclose(out.entries, 1.5 * np.eye(2), rtol=0.0, atol=1e-15)

    def test_missing_report_names_client(self):
        with pytest.raises(ProtocolError, match="client 1"):
            server_aggregate([(0, GramMatrix(np.eye(2)))], [0.5, 0.5], {})


class TestLocalTraining:
    def test_eta_zero_keeps_model(self):
        cfg = small_cfg(eta=0.0, local_epochs=1, tau=1.0)
        ds = dataset()
        shard = ds.features[:30]
        rad = ds.features[30:40]
        from hssfl.federation import init_models
        model = init_models(cfg)[0]
        obj = _client_objective(cfg, cfg.mu, rad, gram_linear(np.ones((10, 8))))
        out = local_training(model, shard, obj, cfg, 1, RngStream(cfg.seed, client=0))
        assert len(out["epoch_losses"]) == 1
        for a, b in zip(out["model"].online, model.online):
            assert np.array_equal(a, b)

    def test_replay_oracle(self):
        cfg = small_cfg()
        ds = dataset()
        shard = ds.features[:40]
        rad = ds.features[40:60]
        from hssfl.federation import init_models
        model = init_models(cfg)[0]
        ref = gram_linear(RngStream(5, purpose="r").generator().normal(size=(20, 8)))
        obj = _client_objective(cfg, cfg.mu, rad, ref)
        first = local_training(model, shard, obj, cfg, 2, RngStream(cfg.seed, client=0))
        second = local_training(model, shard, obj, cfg, 2, RngStream(cfg.seed, client=0))
        assert first["epoch_losses"] == second["epoch_losses"]
        assert first["epoch_grad_norms"] == second["epoch_grad_norms"]
        for a, b in zip(first["model"].online, second["model"].online):
            assert a.tobytes() == b.tobytes()


def per_step_training(model, shard, obj, cfg, round_index, rng):
    """local_training as a plain loop: each step draws its own view pair
    and runs the target branch on its batch alone. Returns the epoch mean
    losses and gradient norms, the final model and every step's views."""
    from hssfl import sslnet
    losses, norms, views_seen = [], [], []
    for epoch in range(cfg.local_epochs):
        erng = rng.child(round=round_index, epoch=epoch)
        order = erng.sub("order").generator().permutation(shard.shape[0])
        steps = []
        for b, start in enumerate(range(0, shard.shape[0], cfg.batch_size)):
            views = sslnet.objective_views(shard[order[start:start + cfg.batch_size]], obj,
                                           erng.sub(f"step{b}"))
            step = sslnet.combined_step(model, views, sslnet.target_rows(model, views, obj),
                                        obj, cfg.eta, cfg.momentum)
            model = step.model
            steps.append(step)
            views_seen.append(views)
        model = sslnet.ema_update(model)
        losses.append(float(np.mean([s.loss_total for s in steps])))
        norms.append(float(np.mean([s.grad_norm for s in steps])))
    return losses, norms, model, views_seen


# (config overrides, shard rows) on a one-client desk config
EPOCH_PASS_CASES = {
    "desk": ({}, 384),
    "symmetrized": ({"symmetrize_loss": True}, 384),
    "unnormalized": ({"normalize_loss": False, "eta": 0.01}, 384),
    "identity_views": ({"noise_std": 0.0, "mask_prob": 0.0}, 384),
    "noise_without_mask": ({"mask_prob": 0.0}, 384),
    "ragged_last_batch": ({}, 400),
    "one_row_last_batch": ({"symmetrize_loss": True}, 385),
    "one_batch_for_the_shard": ({"batch_size": 1_000_000}, 400),
}


class TestEpochPass:
    """An epoch draws all its views at once and runs the target branch once
    on them; a step-by-step loop is the oracle."""

    @pytest.mark.parametrize("overrides,rows", EPOCH_PASS_CASES.values(),
                             ids=EPOCH_PASS_CASES.keys())
    def test_matches_a_per_step_loop(self, monkeypatch, overrides, rows):
        from hssfl import sslnet
        spec = MlpSpec((32, 16, 8), "tanh")
        cfg = FedConfig(**{**dict(
            num_clients=1, rounds=1, local_epochs=2, eta=0.1, momentum=0.9, batch_size=64,
            mu=0.5, proximal_form="one_minus_cka", tau=0.9, client_specs=(spec,),
            rad_size=32, seed=5, noise_std=0.3, mask_prob=0.1, normalize_loss=True),
            **overrides})
        gen = RngStream(6, purpose="epoch-pass").generator()
        shard, rad = gen.normal(size=(rows, 32)), gen.normal(size=(32, 32))
        model = federation.init_models(cfg)[0]
        other = sslnet.init_client_model(spec, cfg.tau, RngStream(7, purpose="init"))
        obj = _client_objective(cfg, cfg.mu, rad, gram_linear(sslnet.representations(other, rad)))
        rng = RngStream(cfg.seed, client=0)

        views_seen = []
        real_step = sslnet.combined_step

        def recording(model, views, *args):
            views_seen.append(views)
            return real_step(model, views, *args)
        monkeypatch.setattr(sslnet, "combined_step", recording)
        out = local_training(model, shard, obj, cfg, 3, rng)
        monkeypatch.undo()
        losses, norms, oracle, oracle_views = per_step_training(model, shard, obj, cfg, 3, rng)

        # no BLAS call touches the views
        assert len(views_seen) == len(oracle_views)
        for got, want in zip(views_seen, oracle_views):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        # numpy multiplies a one-row operand with another BLAS routine, so
        # the targets of a one-row batch move by about 1e-16
        if rows % cfg.batch_size == 1:
            assert out["epoch_losses"] == pytest.approx(losses, rel=1e-12, abs=0.0)
            assert out["epoch_grad_norms"] == pytest.approx(norms, rel=1e-12, abs=0.0)
            for name, a in model_arrays(out["model"]).items():
                np.testing.assert_allclose(a, model_arrays(oracle)[name], rtol=1e-12, atol=0.0)
        else:
            assert out["epoch_losses"] == losses
            assert out["epoch_grad_norms"] == norms
            assert all(a.tobytes() == b.tobytes() for a, b in
                       zip(model_arrays(out["model"]).values(), model_arrays(oracle).values()))


class TestRunTraining:
    def test_zero_rounds(self):
        cfg = small_cfg(rounds=0)
        ds = dataset()
        from hssfl.federation import init_models
        res = run_training(cfg, ds)
        fresh = init_models(cfg)
        assert res.log.records == []
        for m, f in zip(res.models, fresh):
            for a, b in zip(m.online, f.online):
                assert np.array_equal(a, b)

    def test_mu_zero_equivalence(self):
        cfg = small_cfg(mu=0.0, rounds=2)
        res = run_training(cfg, dataset())
        for k in range(cfg.num_clients):
            alone = standalone_training(cfg, dataset(), k)
            model = res.models[k]
            for a, b in zip(model.online, alone.online):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(model.target, alone.target):
                assert a.tobytes() == b.tobytes()

    def test_workers_do_not_change_log(self, tmp_path):
        cfg = small_cfg(rounds=3)
        a = run_training(cfg, dataset(), workers=1, log_path=str(tmp_path / "a.jsonl"))
        b = run_training(cfg, dataset(), workers=4, log_path=str(tmp_path / "b.jsonl"))
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        for ma, mb in zip(a.models, b.models):
            for x, y in zip(ma.online, mb.online):
                assert x.tobytes() == y.tobytes()

    def test_heterogeneous_widths_kernel_payloads(self):
        specs = tuple(
            MlpSpec((16, 8), "relu") if k % 2 else MlpSpec((16, 12, 16), "tanh")
            for k in range(4)
        )
        cfg = small_cfg(client_specs=specs)
        res = run_training(cfg, dataset())
        for k, payload in res.server.registry.items():
            assert isinstance(payload, GramMatrix)
            assert payload.size == cfg.rad_size
        ups = [m for m in res.log.messages if m.direction == "client->server"]
        assert all(m.kind == "kernel" for m in ups)

    def test_upstream_bytes_scale_with_rad_not_model(self):
        small_model = small_cfg(eta=1e-4,
                                client_specs=tuple(MlpSpec((16, 4), "relu") for _ in range(4)))
        big_model = small_cfg(eta=1e-4,
                              client_specs=tuple(MlpSpec((16, 64, 32, 4), "relu") for _ in range(4)))
        res_small = run_training(small_model, dataset())
        res_big = run_training(big_model, dataset())
        up_small = [r["upstream_bytes"] for r in res_small.log.client_records()]
        up_big = [r["upstream_bytes"] for r in res_big.log.client_records()]
        assert abs(np.mean(up_small) - np.mean(up_big)) / np.mean(up_small) < 0.2
        bigger_rad = small_cfg(rad_size=48)
        res_rad = run_training(bigger_rad, dataset())
        up_rad = [r["upstream_bytes"] for r in res_rad.log.client_records()]
        assert np.mean(up_rad) > 3.0 * np.mean(up_small)

    def test_protocol_safety_from_messages(self):
        cfg = small_cfg(rounds=2, sample_size=3)
        res = run_training(cfg, dataset())
        for msg in res.log.messages:
            if msg.direction == "server->client":
                assert msg.kind in ("rad", "reference")
            else:
                assert msg.kind in ("kernel", "representation")
        for t in (1, 2):
            round_msgs = [m for m in res.log.messages if m.round == t]
            clients = {m.client for m in round_msgs}
            per_client = {
                k: [m.kind for m in round_msgs if m.client == k] for k in clients
            }
            for kinds in per_client.values():
                assert sorted(kinds) == ["kernel", "reference"]

    def test_unsampled_clients_frozen(self):
        cfg = small_cfg(rounds=1, sample_size=2)
        ds = dataset()
        res = run_training(cfg, ds)
        from hssfl.federation import init_models
        fresh = init_models(cfg)
        selected = res.log.records[-1]["selected"]
        for k in range(cfg.num_clients):
            same = all(
                a.tobytes() == b.tobytes()
                for a, b in zip(res.models[k].online, fresh[k].online)
            )
            assert same == (k not in selected)

    def test_sampled_records_complete(self):
        cfg = small_cfg(rounds=3, sample_size=2)
        res = run_training(cfg, dataset())
        for rec in res.log.client_records():
            for key in ("loss_total_start", "loss_total_end", "loss_total_swap",
                        "epoch_losses", "epoch_grad_norms", "rep_norm_max",
                        "upstream_bytes", "downstream_bytes"):
                assert key in rec
            assert len(rec["epoch_losses"]) == cfg.local_epochs
        selected = {
            (r["round"], c)
            for r in res.log.records if r["type"] == "server" and r["round"] >= 1
            for c in r["selected"]
        }
        logged = {(r["round"], r["client"]) for r in res.log.client_records()}
        assert logged == selected

    def test_l2rep_mode_equal_widths(self):
        cfg = small_cfg(proximal_form="l2_rep")
        res = run_training(cfg, dataset())
        assert all(not isinstance(p, GramMatrix) for p in res.server.registry.values())
        rec = res.log.client_records()[0]
        assert rec["loss_prox_start"] >= 0.0

    def test_l2rep_mixed_widths_rejected(self):
        # refused by the config, so a run never reaches the aggregate
        specs = (MlpSpec((16, 8), "relu"), MlpSpec((16, 4), "relu"),
                 MlpSpec((16, 8), "relu"), MlpSpec((16, 8), "relu"))
        with pytest.raises(UnsupportedCombinationError):
            run_training(small_cfg(proximal_form="l2_rep", client_specs=specs), dataset())

    def test_each_reference_aggregated_and_sent_once(self, monkeypatch, tmp_path):
        # counted in every process: with two workers, one client a round
        # trains in a forked child
        log = CallLog(tmp_path)
        for name in ("server_aggregate", "_transmit"):
            monkeypatch.setattr(federation, name, log.wrap(name, getattr(federation, name)))
        cfg = small_cfg(rounds=3, sample_size=2)
        run_training(cfg, dataset(), workers=2)
        counts = log.counts()
        assert counts[(os.getpid(), "server_aggregate")] == log.total("server_aggregate") == (
            cfg.rounds + 1)
        # the RAD and the bootstrap uploads, then each selected client's
        # copy of the reference and its upload, every round
        assert log.total("_transmit") == (
            1 + cfg.num_clients + cfg.rounds * 2 * cfg.sample_size
        )
        # half of each round's copies and uploads in the parent, half in
        # that round's child
        assert counts[(os.getpid(), "_transmit")] == 1 + cfg.num_clients + cfg.rounds * 2
        assert len({pid for pid, _ in counts} - {os.getpid()}) == cfg.rounds

    def test_no_gram_built_on_the_step_path(self, monkeypatch):
        from hssfl import cka, sslnet
        counts = collections.Counter()
        active = []  # the counted calls in progress, outermost first

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                for outer in ("combined_loss", "_swap_eval"):
                    if outer in active:
                        counts[f"{name} inside {outer}"] += 1
                active.append(name)
                try:
                    return real(*args, **kwargs)
                finally:
                    active.pop()
            return call

        for owners, name in (((cka, federation), "gram_linear"),
                             ((cka,), "proximal_grad"),
                             ((cka, federation), "proximal_value"),
                             ((sslnet,), "forward_online"),
                             ((sslnet,), "combined_step"),
                             ((sslnet,), "combined_loss"),
                             ((federation,), "_swap_eval")):
            wrapped = counted(name, getattr(owners[0], name))
            for owner in owners:
                monkeypatch.setattr(owner, name, wrapped)
        cfg = small_cfg(rounds=3, sample_size=2)
        run_training(cfg, dataset())
        client_rounds = cfg.rounds * cfg.sample_size
        # bootstrap uploads, then each round's uploads
        assert counts["gram_linear"] == cfg.num_clients + client_rounds
        assert counts["combined_step"] > 0
        assert counts["proximal_grad"] == counts["combined_step"]
        # start and end evaluation of every sampled client
        assert counts["combined_loss"] == 2 * client_rounds
        assert counts["proximal_value inside combined_loss"] == counts["combined_loss"]
        # the swap evaluation: one penalty on the uploaded representations,
        # and no forward pass
        assert counts["_swap_eval"] == client_rounds
        outside = counts["proximal_value"] - counts["proximal_value inside combined_loss"]
        assert outside == counts["proximal_value inside _swap_eval"] == client_rounds
        assert counts["forward_online inside _swap_eval"] == 0

    def test_views_drawn_once_per_step_and_once_for_evaluation(self, monkeypatch):
        # each step's pair comes from its own two generators, the target
        # branch runs once an epoch, and start and end share one pair
        from hssfl import sslnet
        counts = collections.Counter()

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        for owner, name in ((sslnet, "forward_target"), (sslnet, "combined_step"),
                            (RngStream, "generator")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        cfg = small_cfg()
        data = dataset()
        rad, plan = federation.prepare_data(cfg, data)
        shard = data.features[list(plan.client_indices[0])]
        model = federation.init_models(cfg)[0]
        reference = gram_linear(sslnet.representations(model, rad))
        counts.clear()
        out = federation._train_one_client(0, model, shard, rad, reference, cfg, 1)
        steps = cfg.local_epochs * -(-shard.shape[0] // cfg.batch_size)
        assert counts["combined_step"] == steps
        assert counts["forward_target"] == cfg.local_epochs + 2
        # two views a step and two for the evaluation pair, plus each
        # epoch's batch order
        assert counts["generator"] == 2 * steps + 2 + cfg.local_epochs
        # the shared pair is the one each evaluation would draw for itself
        obj = _client_objective(cfg, cfg.mu, rad, reference)
        eval_rng = RngStream(cfg.seed, client=0, round=1, purpose="eval")
        rec = out["record"]
        for when, m in (("start", model), ("end", out["model"])):
            own = sslnet.combined_loss(m, sslnet.objective_views(shard, obj, eval_rng), obj)
            assert own == (rec[f"loss_total_{when}"], rec[f"loss_ssl_{when}"],
                           rec[f"loss_prox_{when}"])

    def test_swap_losses_oracle(self):
        # the last round's swap evaluation against the final reference,
        # recomputed from the final weights with a fresh forward pass
        from hssfl import cka, sslnet
        cfg = small_cfg(rounds=2, sample_size=3, clip_radius=2.0)
        res = run_training(cfg, dataset())
        last = [r for r in res.log.client_records() if r["round"] == cfg.rounds]
        assert len(last) == cfg.sample_size
        for rec in last:
            phi = sslnet.representations(res.models[rec["client"]], res.rad,
                                         clip_radius=cfg.clip_radius)
            prox = cka.proximal_value(phi, res.server.reference, cfg.proximal_form, cfg.mu)
            assert rec["loss_prox_swap"] == prox > 0.0
            assert rec["loss_ssl_swap"] == rec["loss_ssl_end"]
            assert rec["loss_total_swap"] == rec["loss_ssl_end"] + prox

    def test_jsonl_round_trip(self, tmp_path):
        cfg = small_cfg()
        log_path = tmp_path / "log.jsonl"
        res = run_training(cfg, dataset(), log_path=str(log_path))
        back = RoundLog.from_jsonl(log_path.read_text(encoding="utf-8"))
        assert back.records == res.log.records

    def test_log_equality_ignores_wall_times(self):
        # the wall times differ from run to run; the trace is what compares
        cfg = small_cfg(rounds=1)
        a, b = (run_training(cfg, dataset()).log for _ in range(2))
        assert a.timings.keys() == b.timings.keys()
        b.timings = {key: t + 1.0 for key, t in b.timings.items()}
        assert a == b
        assert a != RoundLog(a.records[:-1], a.messages, a.timings)

    def test_encoder_width_mismatch_names_the_client(self):
        # checked once where the data enters, not on every forward pass
        specs = tuple(MlpSpec((12 if k == 2 else 16, 8), "relu") for k in range(4))
        cfg = small_cfg(client_specs=specs)
        for train in (lambda ds: run_training(cfg, ds),
                      lambda ds: standalone_training(cfg, ds, 0)):
            with pytest.raises(ConfigError,
                               match="client 2: encoder input width 12 != dataset width 16"):
                train(dataset())

    def test_reused_dataset_refused(self):
        # the first run reserves the alignment rows in the dataset it is given
        cfg = small_cfg(rounds=1)
        ds = dataset()
        run_training(cfg, ds)
        for train in (lambda: run_training(cfg, ds),
                      lambda: standalone_training(cfg, ds, 0)):
            with pytest.raises(ConfigError, match="24 rows reserved .* afresh"):
                train()


# Heterogeneous widths d = 8, 4, 8, 4 (D = 24) at a RAD of 40 rows, so every
# upload and every reference travels as a factor.
FACTORED_SPECS = tuple(MlpSpec((16, 8), "relu") if k % 2 == 0 else MlpSpec((16, 12, 4), "tanh")
                       for k in range(4))


class TestFactoredPayloads:
    def test_bytes_are_the_factor_sizes(self):
        cfg = small_cfg(rounds=3, sample_size=2, rad_size=40, client_specs=FACTORED_SPECS)
        res = run_training(cfg, dataset())
        widths = [s.output_width for s in cfg.client_specs]
        rad_bytes = 8 * cfg.rad_size * 16 + 128  # the dataset has 16 features
        boot = res.log.records[0]["bootstrap_payload_bytes"]
        # a factor of width w sends its L w - w (w - 1) / 2 lower entries
        assert boot == [8 * (cfg.rad_size * d - d * (d - 1) // 2) + 128 for d in widths]
        records = res.log.client_records()
        assert len(records) == cfg.rounds * cfg.sample_size
        for rec in records:
            d = widths[rec["client"]]
            assert rec["upstream_bytes"] == 8 * packed_size(cfg.rad_size, d) + 128
            # the factor of the other clients' kernel
            assert rec["downstream_bytes"] == 8 * packed_size(cfg.rad_size, sum(widths) - d) + 128
        assert res.log.records[0]["bootstrap_downstream_bytes"] == [rad_bytes] * cfg.num_clients
        assert res.server.reference.data.shape == (cfg.rad_size, sum(widths))

    def test_no_l_by_l_array_on_the_run_path(self, tmp_path, monkeypatch):
        builds = collections.Counter()
        real_entries = GramMatrix.entries

        def entries(self):
            builds["entries"] += 1
            return real_entries.fget(self)

        monkeypatch.setattr(GramMatrix, "entries", property(entries))
        cfg = small_cfg(rounds=3, sample_size=2, rad_size=40, client_specs=FACTORED_SPECS)
        ck = str(tmp_path / "ck")
        log = str(tmp_path / "log.jsonl")
        run_training(cfg, dataset(), log_path=log, checkpoint_dir=ck, stop_after_round=2)
        res = run_training(cfg, dataset(), log_path=log, checkpoint_dir=ck, resume=True)
        assert res.server.round == cfg.rounds
        held = [res.server.reference, *res.server.registry.values()]
        assert all(p.data.shape[1] < cfg.rad_size for p in held)
        assert builds == {}

    def test_checkpoint_keeps_factors_byte_identical(self, tmp_path):
        cfg = small_cfg(rad_size=40, client_specs=FACTORED_SPECS)
        models = federation.init_models(cfg)
        gen = RngStream(5, purpose="phi").generator()
        registry = {k: gram_linear(gen.normal(size=(cfg.rad_size, s.output_width)))
                    for k, s in enumerate(cfg.client_specs)}
        federation._save_checkpoint(str(tmp_path), 2, models, registry, cfg)
        round_index, _, loaded = federation.load_checkpoint(str(tmp_path), cfg)
        assert round_index == 2
        for k, payload in registry.items():
            assert loaded[k].data.shape == payload.data.shape
            assert loaded[k].data.tobytes() == payload.data.tobytes()


    def test_checkpoint_of_eigenvector_factors_refused(self, tmp_path):
        # an upload saved as phi @ V (V the eigenvectors of phi.T @ phi), as
        # before uploads were canonical, is not the lower-trapezoidal factor
        # the receivers of the reference unpack
        cfg = small_cfg(num_clients=1, rounds=2, rad_size=40)
        ck = str(tmp_path / "ck")
        run_training(cfg, dataset(), checkpoint_dir=ck, stop_after_round=1)
        round_index, models, registry = federation.load_checkpoint(ck, cfg)
        t = registry[0].data
        eigen = t @ np.linalg.eigh(t.T @ t)[1]
        assert np.triu(eigen[:8], 1).any()
        federation._save_checkpoint(ck, round_index, models, {0: GramMatrix(eigen)}, cfg)
        with pytest.raises(ParseError, match=r"checkpoint.npz: entry 'upload_0' has nonzeros "
                                             r"above its diagonal"):
            federation.load_checkpoint(ck, cfg)


def _received_references(monkeypatch, run):
    """Each client's copy of the reference, by (round, client), and the
    server's aggregates in the order it made them, from ``run()``. A copy is
    written to a file by the process that trains the client, so the forked
    client workers' copies are read as well."""
    aggregates = []
    real_train, real_aggregate = federation._train_one_client, federation.server_aggregate

    with tempfile.TemporaryDirectory() as copies:
        def train(k, model, shard, rad, reference, cfg, t, draws=None):
            np.save(os.path.join(copies, f"{t}_{k}.npy"), reference.data)
            return real_train(k, model, shard, rad, reference, cfg, t, draws)

        def aggregate(*args):
            aggregates.append(real_aggregate(*args))
            return aggregates[-1]

        with monkeypatch.context() as m:
            m.setattr(federation, "_train_one_client", train)
            m.setattr(federation, "server_aggregate", aggregate)
            run()
        received = {tuple(map(int, name[:-4].split("_"))): GramMatrix(np.load(
                    os.path.join(copies, name))) for name in os.listdir(copies)}
    return received, aggregates


class TestOwnBlockNotSent:
    """Under an uncapped kernel reference, client k receives the canonical
    factor of the other clients' kernel and puts its own block
    sqrt(w_k) T_k after it: its copy is a factor of the server's kernel."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rebuilt_copy_is_the_server_aggregate(self, tmp_path, monkeypatch, workers):
        # 2 of 4 clients a round, so most blocks are stale: each is that
        # client's last upload; the second leg rebuilds from upload_k
        cfg = small_cfg(rounds=4, sample_size=2, rad_size=40, client_specs=FACTORED_SPECS)
        widths = [s.output_width for s in cfg.client_specs]
        ck = str(tmp_path / "ck")
        for start, leg in ((0, dict(stop_after_round=2)), (2, dict(resume=True))):
            received, aggregates = _received_references(monkeypatch, lambda: run_training(
                cfg, dataset(), workers=workers, checkpoint_dir=ck, **leg))
            # the leg's first reference, then one per round
            assert len(aggregates) == 3
            assert sorted({t for t, _ in received}) == [start + 1, start + 2]
            for (t, k), copy in received.items():
                server = aggregates[t - start - 1].data
                assert server.shape == copy.data.shape == (cfg.rad_size, 24)
                others, own = np.split(copy.data, [24 - widths[k]], axis=1)
                assert np.array_equal(others, np.tril(others))
                assert np.all(np.diagonal(others) >= 0.0)
                # the own block is the server's, bit for bit
                at = sum(widths[:k])
                assert own.tobytes() == server[:, at:at + widths[k]].tobytes()
                scale = np.sum(server * server)
                assert np.max(np.abs(copy.data @ copy.data.T - server @ server.T)) <= 1e-14 * scale

    def test_copy_moves_the_floats_by_roundoff_only(self, monkeypatch):
        # against clients that train on the server's own reference factor
        cfg = small_cfg(rounds=3, sample_size=3, rad_size=40, client_specs=FACTORED_SPECS)
        sent = run_training(cfg, dataset())
        monkeypatch.setattr(federation, "_send_reference", lambda ref, registry, k, cfg: (ref, 0))
        shared = run_training(cfg, dataset())
        assert len(sent.log.records) == len(shared.log.records)

        def close(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
            if isinstance(a, list):
                return len(a) == len(b) and all(map(close, a, b))
            if isinstance(a, float):
                return abs(a - b) <= 1e-12 * max(abs(a), abs(b))
            return a == b

        for a, b in zip(sent.log.records, shared.log.records):
            if a["type"] == "client":
                assert b["downstream_bytes"] == 0
                a, b = dict(a, downstream_bytes=0), dict(b, downstream_bytes=0)
            assert close(a, b)
        for a, b in zip(sent.models, shared.models):
            for x, y in zip(model_arrays(a).values(), model_arrays(b).values()):
                assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("overrides", [
        {},  # D = 32 > L = 24: the reference is capped to its L x L factor
        {"proximal_form": "l2_rep"},  # a weighted sum of representations
        {"num_clients": 1},  # the one block is the whole reference
    ], ids=["capped", "l2_rep", "one-client"])
    def test_reference_without_own_block_travels_whole(self, overrides):
        cfg = small_cfg(rounds=2, **overrides)
        res = run_training(cfg, dataset())
        width = held(res.server.reference).shape[1]
        assert width == (8 if overrides else cfg.rad_size)
        records = res.log.client_records()
        assert len(records) == cfg.rounds * cfg.num_clients
        # a kernel factor is lower-trapezoidal and sends its lower entries
        numbers = (cfg.rad_size * width if cfg.payload_kind == "representation"
                   else packed_size(cfg.rad_size, width))
        assert {r["downstream_bytes"] for r in records} == {8 * numbers + 128}


def _down(messages, kind=None):
    return [m for m in messages
            if m.direction == "server->client" and (kind is None or m.kind == kind)]


class TestRadSentOnce:
    """The alignment rows reach each client once, at bootstrap; a round sends
    only the reference down."""

    def test_one_rad_message_per_client_at_round_0(self, tmp_path):
        cfg = small_cfg(rounds=3, sample_size=2)
        ck = str(tmp_path / "ck")
        first = run_training(cfg, dataset(), checkpoint_dir=ck, stop_after_round=1)
        rads = _down(first.log.messages, "rad")
        assert sorted((m.round, m.client) for m in rads) == [(0, k) for k in range(4)]
        assert {m.payload_bytes for m in rads} == {8 * cfg.rad_size * 16 + 128}
        resumed = run_training(cfg, dataset(), checkpoint_dir=ck, resume=True)
        assert resumed.server.round == cfg.rounds
        assert _down(resumed.log.messages, "rad") == []

    def test_one_reference_per_selected_client_a_round(self):
        cfg = small_cfg(rounds=3, sample_size=2)
        res = run_training(cfg, dataset())
        assert [m for m in _down(res.log.messages) if m.round == 0 and m.kind != "rad"] == []
        for server in res.log.records[1:]:
            if server["type"] != "server":
                continue
            t = server["round"]
            sent = [(m.kind, m.client) for m in _down(res.log.messages) if m.round == t]
            assert sent == [("reference", k) for k in server["selected"]]
            assert len(server["selected"]) == cfg.sample_size

    @pytest.mark.parametrize("form", ["one_minus_cka", "l2_rep"])
    def test_records_account_for_every_byte_sent(self, form):
        cfg = small_cfg(rounds=3, sample_size=3, proximal_form=form)
        res = run_training(cfg, dataset())
        boot = res.log.records[0]
        assert len(boot["bootstrap_downstream_bytes"]) == cfg.num_clients
        recorded = (sum(boot["bootstrap_downstream_bytes"])
                    + sum(r["downstream_bytes"] for r in res.log.client_records()))
        assert sum(m.payload_bytes for m in _down(res.log.messages)) == recorded
        ups = [m.payload_bytes for m in res.log.messages if m.direction == "client->server"]
        assert sum(ups) == (sum(boot["bootstrap_payload_bytes"])
                            + sum(r["upstream_bytes"] for r in res.log.client_records()))


class TestRadShift:
    def test_shift_offsets_alignment_rows(self):
        from hssfl.federation import prepare_data
        cfg_plain = small_cfg()
        cfg_shift = small_cfg(rad_shift=2.5)
        rad_plain, _ = prepare_data(cfg_plain, dataset())
        rad_shift, _ = prepare_data(cfg_shift, dataset())
        assert np.allclose(rad_shift, rad_plain + 2.5)
        run_training(cfg_shift, dataset())  # still trains end to end


class TestDivergence:
    @pytest.mark.filterwarnings("error")
    def test_failure_annotated_with_location(self):
        from hssfl.errors import NumericalFailureError
        cfg = small_cfg(eta=50.0, momentum=0.9, rounds=3)
        with pytest.raises(NumericalFailureError,
                           match=r": client [0-3] round [1-3], epoch \d+ batch \d+"):
            run_training(cfg, dataset())

    def test_reference_norm_overflow_names_the_round(self):
        from hssfl.errors import NumericalFailureError
        for reference in (np.full((4, 2), 1e160), GramMatrix(np.full((4, 2), 1e80))):
            with pytest.raises(NumericalFailureError,
                               match="non-finite values in reference norm: round 3$"):
                federation._reference_norm(reference, 3)

    def test_log_line_refuses_non_finite_values(self):
        with pytest.raises(ValueError):
            federation._jsonl_line({"reference_norm": float("inf")})


class TestCheckpointResume:
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        cfg = small_cfg(rounds=4)
        full_log = tmp_path / "full.jsonl"
        part_log = tmp_path / "part.jsonl"
        full = run_training(cfg, dataset(), log_path=str(full_log),
                            checkpoint_dir=str(tmp_path / "ck_full"))
        run_training(cfg, dataset(), log_path=str(part_log),
                     checkpoint_dir=str(tmp_path / "ck_part"),
                     stop_after_round=2)
        resumed = run_training(cfg, dataset(), log_path=str(part_log),
                               checkpoint_dir=str(tmp_path / "ck_part"),
                               resume=True)
        assert full_log.read_bytes() == part_log.read_bytes()
        assert (full.server.reference.entries.tobytes()
                == resumed.server.reference.entries.tobytes())
        for a, b in zip(full.models, resumed.models):
            for x, y in zip(a.online, b.online):
                assert x.tobytes() == y.tobytes()

    def test_no_csv_on_run_path(self, tmp_path, monkeypatch):
        def no_csv(*args, **kwargs):
            raise AssertionError("a CSV codec call on the run path")

        for codec in (numkit.matrix_to_csv, numkit.matrix_from_csv):
            for name, module in list(sys.modules.items()):
                if name == "hssfl" or name.startswith("hssfl."):
                    for attr, value in list(vars(module).items()):
                        if value is codec:
                            monkeypatch.setattr(module, attr, no_csv)
        cfg = small_cfg(rounds=2)
        ck = str(tmp_path / "ck")
        run_training(cfg, dataset(), checkpoint_dir=ck, stop_after_round=1)
        resumed = run_training(cfg, dataset(), checkpoint_dir=ck, resume=True)
        assert resumed.server.round == 2
        assert os.listdir(ck) == [federation.CHECKPOINT_FILE]

    @pytest.mark.parametrize("kill", [
        "mid_log_write", "mid_checkpoint_write", "after_checkpoint_published",
    ])
    def test_resume_after_kill_matches_uninterrupted(self, tmp_path, monkeypatch, kill):
        cfg = small_cfg(rounds=4, sample_size=3)
        full_log, part_log = tmp_path / "full.jsonl", tmp_path / "part.jsonl"
        ck = tmp_path / "ck_part"
        full = run_training(cfg, dataset(), log_path=str(full_log),
                            checkpoint_dir=str(tmp_path / "ck_full"))
        with monkeypatch.context() as m:
            _kill_in_round_3(m, kill)
            with pytest.raises(_Killed):
                run_training(cfg, dataset(), log_path=str(part_log), checkpoint_dir=str(ck))
        resumed = run_training(cfg, dataset(), log_path=str(part_log),
                               checkpoint_dir=str(ck), resume=True)
        assert full_log.read_bytes() == part_log.read_bytes()
        assert (full.server.reference.entries.tobytes()
                == resumed.server.reference.entries.tobytes())
        for a, b in zip(full.models, resumed.models):
            for x, y in zip(model_arrays(a).values(), model_arrays(b).values()):
                assert x.tobytes() == y.tobytes()
        assert os.listdir(ck) == [federation.CHECKPOINT_FILE]

    def test_resume_needs_the_interrupted_log(self, tmp_path):
        cfg = small_cfg(rounds=2)
        ck = str(tmp_path / "ck")
        run_training(cfg, dataset(), log_path=str(tmp_path / "a.jsonl"),
                     checkpoint_dir=ck, stop_after_round=1)
        with pytest.raises(ConfigError, match="b.jsonl holds fewer than the 6 records"):
            run_training(cfg, dataset(), log_path=str(tmp_path / "b.jsonl"),
                         checkpoint_dir=ck, resume=True)

    def test_resume_rejects_other_config(self, tmp_path):
        cfg = small_cfg(rounds=2)
        run_training(cfg, dataset(), checkpoint_dir=str(tmp_path / "ck"),
                     stop_after_round=1)
        other = small_cfg(rounds=2, eta=0.123)
        with pytest.raises(ConfigError):
            run_training(other, dataset(), checkpoint_dir=str(tmp_path / "ck"),
                         resume=True)


class _Killed(Exception):
    """Stands in for the process dying at a write point."""


def _kill_in_round_3(monkeypatch, point):
    """Make run_training die at ``point`` while it records round 3."""
    calls = []
    if point == "mid_log_write":
        real_write = federation._LogWriter.write

        def write(self, records):
            calls.append(records)
            if len(calls) == 4:  # the bootstrap record, rounds 1 and 2, round 3
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write('{"epoch_losses":[0.')
                raise _Killed
            real_write(self, records)

        monkeypatch.setattr(federation._LogWriter, "write", write)
    elif point == "mid_checkpoint_write":
        real_savez = np.savez

        def savez(file, *args, **kwargs):
            calls.append(file)
            if len(calls) == 3:
                file.write(b"PK\x03\x04 torn")
                raise _Killed
            real_savez(file, *args, **kwargs)

        monkeypatch.setattr(np, "savez", savez)
    else:
        real_save = federation.save_arrays

        def save_arrays(*args, **kwargs):
            real_save(*args, **kwargs)
            calls.append(args)
            if len(calls) == 3:
                raise _Killed

        monkeypatch.setattr(federation, "save_arrays", save_arrays)


class TestFedConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            small_cfg(client_weights=(0.5, 0.2, 0.2, 0.2))

    def test_default_weights_uniform(self):
        cfg = small_cfg()
        assert cfg.client_weights == (0.25, 0.25, 0.25, 0.25)

    def test_form_payload_consistency(self):
        # the payload follows the form; a config cannot name it
        assert small_cfg(proximal_form="l2_rep").payload_kind == "representation"
        for form in ("one_minus_cka", "raw_cka", "trace_alignment"):
            assert small_cfg(proximal_form=form, clip_radius=1.0).payload_kind == "kernel"
        d = small_cfg().to_dict()
        assert "payload" not in d
        d["payload"] = "kernel"
        with pytest.raises(ConfigError, match=r"unknown keys \['payload'\]"):
            FedConfig.from_dict(d)

    @pytest.mark.parametrize("overrides", [
        dict(mu=float("nan")),
        dict(mu=float("inf")),
        dict(eta=float("nan")),
        dict(eta=-0.1),
        dict(momentum=float("nan")),
        dict(rad_shift=float("inf")),
        dict(clip_radius=float("nan")),
        dict(clip_radius=0.0),
        dict(num_clients=3, client_weights=(0.5, 0.5, float("nan"))),
        dict(noise_std=-0.1),
        dict(noise_std=float("nan")),
        dict(mask_prob=1.0),
        dict(mu=-0.1),
        dict(tau=1.5),
        dict(sample_size=5),
        dict(proximal_form="cosine"),
    ], ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
    def test_bad_numbers_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_cfg(**overrides)

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 2.5),
        ("rad_size", 8.5),
        ("rounds", float("nan")),
        ("seed", True),
        ("num_clients", "4"),
        ("local_epochs", None),
        ("sample_size", 1.5),
    ], ids=lambda v: repr(v))
    def test_integer_fields_reject_non_integers(self, key, value):
        d = small_cfg().to_dict()
        d[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            FedConfig.from_dict(d)

    @pytest.mark.parametrize("widths", [[16, 8.7], [16, True], ["16", 8], 16, "16,8"])
    def test_layer_widths_reject_non_integers(self, widths):
        d = small_cfg().to_dict()
        d["client_specs"][0]["layer_widths"] = widths
        with pytest.raises(ConfigError, match="layer width"):
            FedConfig.from_dict(d)

    def test_integral_floats_become_ints(self):
        d = small_cfg().to_dict()
        d.update(rounds=2.0, seed=11.0, sample_size=4.0)
        d["client_specs"][0]["layer_widths"] = [16.0, 8.0]
        cfg = FedConfig.from_dict(d)
        assert cfg == small_cfg()
        assert type(cfg.rounds) is int and cfg.client_specs[0].layer_widths == (16, 8)
        assert FedConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_from_dict_names_unknown_and_missing_keys(self):
        d = small_cfg().to_dict()
        d["num_client"] = d.pop("num_clients")
        with pytest.raises(ConfigError, match=r"\['num_client'\].*\['num_clients'\]"):
            FedConfig.from_dict(d)

    def test_round_trip_dict(self):
        cfg = small_cfg()
        assert FedConfig.from_dict(cfg.to_dict()) == cfg

    def test_l2rep_mixed_widths_rejected(self):
        # refused before any client trains, since the representation
        # aggregate needs one width; kernel forms take mixed widths
        specs = (MlpSpec((16, 8), "relu"), MlpSpec((16, 4), "relu"),
                 MlpSpec((16, 8), "relu"), MlpSpec((16, 8), "relu"))
        with pytest.raises(UnsupportedCombinationError, match=r"l2_rep.*\[4, 8\]"):
            small_cfg(proximal_form="l2_rep", client_specs=specs)
        d = small_cfg(client_specs=specs).to_dict()
        d["proximal_form"] = "l2_rep"
        with pytest.raises(UnsupportedCombinationError):
            FedConfig.from_dict(d)

    def test_unbounded_trace_alignment_refused(self):
        with pytest.raises(ConfigError, match="--clip-radius"):
            small_cfg(proximal_form="trace_alignment")
        # bounded by a clip radius, or with no penalty, it can train
        small_cfg(proximal_form="trace_alignment", clip_radius=1.0)
        small_cfg(proximal_form="trace_alignment", mu=0.0)


class TestPayloadCodec:
    def test_round_trip(self):
        a = RngStream(33, purpose="act").generator().normal(size=(4, 3))
        k = gram_linear(a)
        received, nbytes = _transmit(k, (4, 3))
        assert isinstance(received, GramMatrix)
        assert np.array_equal(received.data, k.data)
        assert np.array_equal(received.entries, k.entries)
        assert nbytes == 8 * (4 * 3 - 3) + 128  # the 4 x 3 factor's lower entries
        capped = gram_linear(a.T)  # 3 rows, 4 columns: sent as its 3 x 3 factor
        received, nbytes = _transmit(capped, (3, 3))
        assert np.array_equal(received.data, capped.data)
        assert np.array_equal(received.entries, capped.entries)
        assert nbytes == 8 * 6 + 128
        received, nbytes = _transmit(a, (4, 3))
        assert np.array_equal(received, a)
        assert nbytes == 8 * 4 * 3 + 128

    def test_bits_survive_the_wire(self):
        gen = RngStream(34, purpose="act").generator()
        a = gen.normal(size=(6, 4)) * 10.0 ** gen.integers(-300, 300, size=(6, 4))
        a[0, 0], a[1, 1] = -0.0, 5e-324
        assert _transmit(a, a.shape)[0].tobytes() == a.tobytes()
        # a Fortran-ordered array goes in C order
        assert _transmit(np.asfortranarray(a), a.shape)[0].tobytes() == a.tobytes()
        k = gram_linear(gen.normal(size=(6, 4)))
        assert _transmit(k, (6, 4))[0].data.tobytes() == k.data.tobytes()

    @pytest.mark.parametrize("payload, shape", [
        (np.ones((4, 3)), (4, 2)),
        (np.ones((4, 3)), (3, 4)),
        (np.ones((4, 3)), (12,)),
        (GramMatrix(np.tril(np.ones((4, 3)))), (4, 2)),
    ], ids=["narrower", "transposed", "flat", "packed-narrower"])
    def test_other_shape_refused(self, payload, shape):
        with pytest.raises(ProtocolError, match="not a float64 array of shape"):
            _transmit(payload, shape)

    def test_header_checked(self):
        wire = io.BytesIO()
        np.save(wire, np.ones((4, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            numkit.decode_npy(wire.getbuffer(), (4, 3))
        wire = io.BytesIO()
        np.save(wire, np.ones((3, 4)).T)  # Fortran order
        with pytest.raises(ValueError, match="'fortran_order': True"):
            numkit.decode_npy(wire.getbuffer(), (4, 3))
        wire = io.BytesIO()
        np.save(wire, np.ones((4, 3)))
        wire.write(b"\0" * 8)  # one number too many
        with pytest.raises(ValueError, match="holds 13 numbers"):
            numkit.decode_npy(wire.getbuffer(), (4, 3))

    def test_non_finite_refused(self):
        with pytest.raises(ShapeError, match="received payload contains non-finite"):
            _transmit(np.array([[1.0, np.nan]]), (1, 2))

    def test_safe_in_threads_while_the_collector_runs_python(self):
        # np.load parses the npy header with ast.literal_eval; on CPython
        # 3.11 a collection in one thread's parse that runs Python code can
        # switch to another parsing thread and break the AST constructor's
        # shared recursion count (SystemError). With np.load as the
        # decoder, this stress raised it in every run tried on CPython 3.11.7.
        class Cyclic:
            def __init__(self):
                self.me = self  # freed only by the collector

            def __del__(self):
                sum(range(300))

        a = np.arange(12.0).reshape(4, 3)
        k = gram_linear(a)
        errors = []

        def work():
            try:
                for _ in range(100):
                    Cyclic(), Cyclic()
                    assert _transmit(a, (4, 3))[0].tobytes() == a.tobytes()
                    assert _transmit(k, (4, 3))[0].data.tobytes() == k.data.tobytes()
            except Exception as exc:  # reported from the main thread
                errors.append(exc)

        threshold, interval = gc.get_threshold(), sys.getswitchinterval()
        gc.set_threshold(50)
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                threads = [threading.Thread(target=work) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            gc.set_threshold(*threshold)
            sys.setswitchinterval(interval)
        assert errors == []


def held(payload):
    """The array a payload is sent and stored as."""
    return payload.data if isinstance(payload, GramMatrix) else payload


def same_models(a, b) -> bool:
    return all(x.tobytes() == y.tobytes()
               for ma, mb in zip(a, b)
               for x, y in zip(model_arrays(ma).values(), model_arrays(mb).values()))


class TestStopAfterRound:
    def test_fresh_run_ends_at_the_stop(self):
        cfg = small_cfg(rounds=3, sample_size=2)
        assert run_training(cfg, dataset(), stop_after_round=1).server.round == 1
        assert run_training(cfg, dataset(), stop_after_round=5).server.round == 3

    @pytest.mark.parametrize("stop", [0, -2])
    def test_stop_before_round_1_refused(self, tmp_path, stop):
        # there is no round-0 checkpoint to resume from
        log = tmp_path / "log.jsonl"
        with pytest.raises(ConfigError, match=f"stop_after_round must be >= 1, got {stop}"):
            run_training(small_cfg(), dataset(), log_path=str(log),
                         checkpoint_dir=str(tmp_path / "ck"), stop_after_round=stop)
        assert not log.exists()

    def test_resumed_leg_at_or_past_the_stop_runs_no_round(self, tmp_path):
        cfg = small_cfg(rounds=4, sample_size=2)
        log, ck = tmp_path / "log.jsonl", tmp_path / "ck"
        first = run_training(cfg, dataset(), log_path=str(log), checkpoint_dir=str(ck),
                             stop_after_round=2)
        log_bytes = log.read_bytes()
        ck_bytes = (ck / federation.CHECKPOINT_FILE).read_bytes()
        for stop in (2, 1):
            res = run_training(cfg, dataset(), log_path=str(log), checkpoint_dir=str(ck),
                               resume=True, stop_after_round=stop)
            assert res.server.round == 2
            assert res.log.records == []
            assert same_models(res.models, first.models)
            assert log.read_bytes() == log_bytes
            assert (ck / federation.CHECKPOINT_FILE).read_bytes() == ck_bytes


# Property tests of whole runs on tiny random configurations. Draws are
# derandomized, so every run checks the same examples.
RUNS = settings(derandomize=True, max_examples=25, deadline=None, database=None)

TINY_SPECS = (MlpSpec((16, 8), "relu"), MlpSpec((16, 8), "tanh"),
              MlpSpec((16, 12, 6), "tanh"), MlpSpec((16, 10, 4), "relu"))


@st.composite
def tiny_configs(draw, rounds=st.integers(1, 3)):
    """2 or 3 clients of mixed widths, 1 to 3 rounds, one local epoch. The
    bounded forms only: unclipped trace alignment grows without bound."""
    n = draw(st.integers(2, 3))
    specs = tuple(draw(st.sampled_from(TINY_SPECS)) for _ in range(n))
    forms = ["one_minus_cka", "raw_cka"]
    if len({s.output_width for s in specs}) == 1:
        forms.append("l2_rep")
    return small_cfg(
        num_clients=n, client_specs=specs, rounds=draw(rounds), local_epochs=1,
        sample_size=draw(st.integers(1, n)), rad_size=draw(st.integers(4, 20)),
        mu=draw(st.sampled_from([0.0, 0.5])), proximal_form=draw(st.sampled_from(forms)),
        partition="noniid" if n == 2 and draw(st.booleans()) else "iid",
        seed=draw(st.integers(0, 2**16)))


def _files(run_dir) -> dict:
    return {name: (run_dir / name).read_bytes() for name in sorted(os.listdir(run_dir))}


class TestRunProperties:
    @RUNS
    @given(tiny_configs())
    def test_workers_do_not_change_log_or_weights(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            logs = [os.path.join(tmp, f"{w}.jsonl") for w in (1, 2)]
            a, b = (run_training(cfg, dataset(), workers=w, log_path=p)
                    for w, p in zip((1, 2), logs))
            with open(logs[0], "rb") as fa, open(logs[1], "rb") as fb:
                assert fa.read() == fb.read()
            assert same_models(a.models, b.models)

    @RUNS
    @given(tiny_configs())
    def test_mu_zero_is_standalone_training(self, cfg):
        # a client left out of a round does not train in it, alone it would
        cfg = dataclasses.replace(cfg, mu=0.0, sample_size=cfg.num_clients)
        res = run_training(cfg, dataset())
        alone = [standalone_training(cfg, dataset(), k) for k in range(cfg.num_clients)]
        assert same_models(res.models, alone)

    @RUNS
    @given(tiny_configs(rounds=st.integers(2, 3)))
    def test_resume_after_any_round_is_the_uninterrupted_run(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            full = run_training(cfg, dataset(), log_path=str(tmp / "full.jsonl"),
                                checkpoint_dir=str(tmp / "full"))
            for k in range(1, cfg.rounds + 1):
                log, ck = str(tmp / f"{k}.jsonl"), str(tmp / str(k))
                run_training(cfg, dataset(), log_path=log, checkpoint_dir=ck,
                             stop_after_round=k)
                resumed = run_training(cfg, dataset(), log_path=log, checkpoint_dir=ck,
                                       resume=True)
                assert (tmp / f"{k}.jsonl").read_bytes() == (tmp / "full.jsonl").read_bytes()
                assert _files(tmp / str(k)) == _files(tmp / "full")
                assert same_models(resumed.models, full.models)


def desk_cfg(**overrides):
    """The benchmark's desk shape (RAD 128, batch 64, five tanh clients of
    two widths), three rounds."""
    specs = tuple(MlpSpec((32, 16, 8), "tanh") if k < 3 else MlpSpec((32, 24, 16), "tanh")
                  for k in range(5))
    return FedConfig(**{**dict(
        num_clients=5, rounds=3, local_epochs=5, eta=0.1, momentum=0.9, batch_size=64,
        mu=0.5, proximal_form="one_minus_cka", tau=0.9, client_specs=specs, rad_size=128,
        seed=1, partition="noniid", noise_std=0.3, mask_prob=0.1, normalize_loss=True),
        **overrides})


def desk_data():
    return dataset(seed=1, dim=32, per_class=200)


def _children() -> set:
    """The pids of this process's children, from every thread's list."""
    pids = set()
    for task in pathlib.Path("/proc/self/task").iterdir():
        pids.update(int(p) for p in (task / "children").read_text().split())
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_dir_files(tmp_path, name, cfg, workers=1, legs=({},)):
    """Log, checkpoint and final weights of a run, as bytes."""
    run_dir = tmp_path / name
    run_dir.mkdir()
    for leg in legs:
        result = run_training(cfg, desk_data(), workers=workers,
                              log_path=str(run_dir / "log.jsonl"),
                              checkpoint_dir=str(run_dir / "ck"), **leg)
    files = {"log": (run_dir / "log.jsonl").read_bytes(),
             "checkpoint": (run_dir / "ck" / federation.CHECKPOINT_FILE).read_bytes()}
    for k, model in enumerate(result.models):
        files.update((f"{k}/{name}", a.tobytes()) for name, a in model_arrays(model).items())
    return files


PRODUCER_CASES = {
    "desk": ({}, 1, ({},)),
    "desk_two_workers": ({}, 2, ({},)),
    "partial_participation": ({"sample_size": 3, "rounds": 4}, 2, ({},)),
    "symmetrized_probed": ({"symmetrize_loss": True, "theory_probes": True, "local_epochs": 2},
                           1, ({},)),
    "stopped_and_resumed": ({"rounds": 4}, 1, ({"stop_after_round": 2}, {"resume": True})),
}


def _fail_in_round_2(monkeypatch, workers):
    """Fail every step of round 2, which the parent trains at least in part;
    the one child alive then is reaped when the run raises."""
    from hssfl import sslnet
    rounds, seen = [], set()
    real_select, real_step = federation.select_clients, sslnet.combined_step

    def select(num_clients, sample_size, round_index, rng):
        rounds.append(round_index)
        return real_select(num_clients, sample_size, round_index, rng)

    def step(*args):
        if rounds[-1] == 2:
            seen.update(_children())
            raise _Killed
        return real_step(*args)

    monkeypatch.setattr(federation, "select_clients", select)
    monkeypatch.setattr(sslnet, "combined_step", step)
    with pytest.raises(_Killed):
        run_training(desk_cfg(), desk_data(), workers=workers)
    assert len(seen) == 1
    _no_child_left()
    assert not pathlib.Path(f"/proc/{seen.pop()}").exists()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class _Unrebuildable(Exception):
    """An exception that pickles but cannot be unpickled."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


class _ChildRules:
    """The failure and reaping rule of a forked child, ``federation._Child``,
    run for each of its roles. A subclass names the role and the message its
    child owes the parent for client 3 of round 2, sets a run up to fork the
    child or not (``workers``), and makes something happen in the child as
    it starts that client round (``in_child``)."""

    role = owed = None

    def workers(self, monkeypatch, forked: bool) -> int:
        raise NotImplementedError

    def in_child(self, monkeypatch, act) -> None:
        raise NotImplementedError

    def run(self, monkeypatch, forked=True):
        return run_training(desk_cfg(), desk_data(), workers=self.workers(monkeypatch, forked))

    def test_a_failure_raises_as_in_process(self, monkeypatch):
        def fail():
            raise ValueError("nothing for client 3 of round 2")

        self.in_child(monkeypatch, fail)
        errors = {}
        for forked in (False, True):
            with pytest.raises(ValueError) as info:
                self.run(monkeypatch, forked)
            errors[forked] = (type(info.value), str(info.value))
            _no_child_left()
        assert errors[True] == errors[False] == (ValueError, "nothing for client 3 of round 2")

    def test_a_failure_that_cannot_travel_is_sent_as_text(self, monkeypatch):
        def fail():
            raise _Unrebuildable("client 3", "no model")

        self.in_child(monkeypatch, fail)
        with pytest.raises(ProtocolError, match=rf"^{self.role} \(pid \d+\) failed: "
                           r"_Unrebuildable: client 3: no model$"):
            self.run(monkeypatch)
        _no_child_left()

    def test_a_dead_child_is_named(self, monkeypatch):
        self.in_child(monkeypatch, lambda: os._exit(3))
        fds = _open_fds()
        with pytest.raises(ProtocolError, match=rf"^{self.role} \(pid \d+\) ended with exit "
                           rf"code 3 and no {re.escape(self.owed)}$"):
            self.run(monkeypatch)
        _no_child_left()
        assert _open_fds() == fds

    def test_no_fork_to_spare_draws_inline(self, tmp_path, monkeypatch):
        cfg = desk_cfg(rounds=2)
        inline = _run_dir_files(tmp_path, "inline", cfg, self.workers(monkeypatch, False))
        fds = _open_fds()

        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        workers = self.workers(monkeypatch, True)
        assert _run_dir_files(tmp_path, "no_fork", cfg, workers) == inline
        assert _open_fds() == fds

    def test_no_process_outlives_a_failed_run(self, monkeypatch):
        # the parent fails in its own client round while the child runs
        _fail_in_round_2(monkeypatch, self.workers(monkeypatch, True))


class TestViewProducer(_ChildRules):
    """A forked child draws each client round's views ahead of training;
    the run is the inline run, byte for byte, fails as it does, and leaves
    no process."""

    role, owed = "view producer", "views for client 3 of round 2"

    def workers(self, monkeypatch, forked):
        monkeypatch.setattr(federation, "_use_producer", lambda cfg, workers: forked)
        return 1

    def in_child(self, monkeypatch, act):
        real = federation._draw_client_round

        def draw(shard, cfg, client, round_index):
            if (round_index, client) == (2, 3):
                act()
            return real(shard, cfg, client, round_index)

        monkeypatch.setattr(federation, "_draw_client_round", draw)

    @pytest.mark.parametrize("overrides,workers,legs", PRODUCER_CASES.values(),
                             ids=PRODUCER_CASES.keys())
    def test_same_bytes_as_drawing_inline(self, tmp_path, monkeypatch, overrides, workers,
                                          legs):
        cfg = desk_cfg(**overrides)
        real_draw = federation._draw_client_round
        files, draws = {}, {}
        for producer in (False, True):
            log = CallLog(tmp_path)
            monkeypatch.setattr(federation, "_draw_client_round", log.wrap("draw", real_draw))
            monkeypatch.setattr(federation, "_use_producer", lambda cfg, workers: producer)
            # the producer serves one worker; more train in their own processes
            files[producer] = _run_dir_files(tmp_path, str(producer), cfg,
                                             1 if producer else workers, legs)
            _no_child_left()
            draws[producer] = log.counts()
        # each client round's views are drawn once, by the process that
        # trains it: this one for a round's first and largest share, and on
        # two workers that round's child for the rest
        me = os.getpid()
        selections = [select_clients(cfg.num_clients, cfg.sample_size, t, RngStream(cfg.seed))
                      for t in range(1, cfg.rounds + 1)]
        mine = sum(-(-len(chosen) // min(workers, len(chosen))) for chosen in selections)
        assert draws[False][(me, "draw")] == mine
        assert sum(draws[False].values()) == sum(map(len, selections))
        assert len(draws[False]) - 1 == (0 if workers == 1 else len(selections))
        # the producer's draws are its own, one child a leg, not the parent's
        assert (me, "draw") not in draws[True]
        assert len(draws[True]) == len(legs)
        assert sum(draws[True].values()) == sum(map(len, selections))
        assert files[True].keys() == files[False].keys()
        for name in files[False]:
            assert files[True][name] == files[False][name], name


class TestProducerRule:
    """The producer runs where fork exists, two CPUs are free, the views
    are not the rows themselves, and L is at most four batches."""

    @pytest.fixture()
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_desk_gets_the_producer(self, two_cpus):
        assert federation._use_producer(desk_cfg(), 1)

    def test_wide_rad_stays_inline(self, two_cpus):
        assert not federation._use_producer(desk_cfg(rad_size=512), 1)

    def test_identity_views_stay_inline(self, two_cpus):
        assert not federation._use_producer(desk_cfg(noise_std=0.0, mask_prob=0.0), 1)

    def test_one_cpu_stays_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not federation._use_producer(desk_cfg(), 1)

    def test_two_workers_train_in_their_own_processes(self, two_cpus):
        assert not federation._use_producer(desk_cfg(), 2)


def _in_client_round(monkeypatch, at, act):
    """Make ``act(model)`` happen when each (round, client) of ``at`` starts
    training; what it returns is the model the client trains."""
    real = federation._train_one_client

    def train(k, model, shard, rad, reference, cfg, t, draws=None):
        if (t, k) in at:
            model = act(model)
        return real(k, model, shard, rad, reference, cfg, t, draws)

    monkeypatch.setattr(federation, "_train_one_client", train)


def _nan_weights(model):
    return dataclasses.replace(model, online=tuple(np.full_like(p, np.nan)
                                                    for p in model.online))


def _blas_threads():
    blas = numkit._openblas()
    return blas[0]() if blas else None


WORKER_CASES = {
    "desk": ({}, ({},)),
    "wide_rad_stopped_and_resumed": ({"rad_size": 512, "rounds": 2},
                                     ({"stop_after_round": 1}, {"resume": True})),
    "partial_participation": ({"sample_size": 3, "rounds": 4}, ({},)),
}


class TestClientWorkers(_ChildRules):
    """With two or more workers, forked children train all but the first
    share of each round's clients: the run is the one-worker run, byte for
    byte, fails as it does, and leaves no process."""

    role, owed = "client worker", "result for clients [3, 4] of round 2"

    def workers(self, monkeypatch, forked):
        monkeypatch.setattr(federation, "_use_producer", lambda cfg, workers: False)
        return 2 if forked else 1

    def in_child(self, monkeypatch, act):
        _in_client_round(monkeypatch, {(2, 3)}, lambda model: act())

    @pytest.mark.parametrize("overrides,legs", WORKER_CASES.values(), ids=WORKER_CASES.keys())
    def test_same_bytes_at_every_worker_count(self, tmp_path, overrides, legs):
        cfg = desk_cfg(**overrides)
        blas = _blas_threads()
        files = {w: _run_dir_files(tmp_path, str(w), cfg, w, legs) for w in (1, 2, 3, 4)}
        _no_child_left()
        assert _blas_threads() == blas
        for w in (2, 3, 4):
            assert files[w].keys() == files[1].keys()
            for name in files[1]:
                assert files[w][name] == files[1][name], (w, name)

    def test_same_bytes_where_blas_splits_inner_sums(self, tmp_path):
        # OpenBLAS on two threads splits the inner sum of a weight gradient
        # over more than about 4,096 rows (alignment rows plus a batch), so
        # every client round trains on one thread, standalone ones included
        cfg = desk_cfg(num_clients=2, client_specs=desk_cfg().client_specs[:2], rounds=1,
                       local_epochs=1, batch_size=150, rad_size=4200, partition="iid")
        data = lambda: dataset(seed=1, dim=32, per_class=450)
        files = {}
        for w in (1, 2):
            log = tmp_path / f"{w}.jsonl"
            models = run_training(cfg, data(), workers=w, log_path=str(log)).models
            files[w] = log.read_bytes(), [a.tobytes() for m in models
                                          for a in model_arrays(m).values()]
        assert files[1] == files[2]
        # with mu = 0 a step takes only its batch, so the batch is that long
        mu_zero = dataclasses.replace(cfg, mu=0.0, rad_size=8, batch_size=4400)
        big = lambda: dataset(seed=1, dim=32, per_class=900)
        alone = [standalone_training(mu_zero, big(), k) for k in range(2)]
        assert same_models(run_training(mu_zero, big()).models, alone)

    @pytest.mark.skipif(numkit._openblas() is None, reason="no OpenBLAS loaded")
    def test_each_process_trains_on_one_blas_thread(self, tmp_path, monkeypatch):
        cfg = desk_cfg(rounds=2)
        log = CallLog(tmp_path)
        monkeypatch.setattr(federation, "_train_one_client", log.wrap(
            "train", federation._train_one_client, lambda *args: _blas_threads()))
        run_training(cfg, desk_data(), workers=3)
        calls = log.calls()
        assert len(calls) == cfg.rounds * cfg.num_clients
        assert {note for _, _, note in calls} == {"1"}
        # the parent and one child for each of the last two shares, a round
        assert len({pid for pid, _, _ in calls}) == 1 + 2 * cfg.rounds

    @pytest.mark.parametrize("workers,at,first", [
        (2, {3}, 3),  # in the child's share
        (2, {1, 3}, 1),  # in the parent's share and the child's
        (3, {3, 4}, 3),  # in both children's shares
    ])
    def test_a_failure_reads_as_at_one_worker(self, monkeypatch, workers, at, first):
        _in_client_round(monkeypatch, {(2, k) for k in at}, _nan_weights)
        blas = _blas_threads()
        errors = {}
        for w in (1, workers):
            with pytest.raises(NumericalFailureError) as info:
                run_training(desk_cfg(), desk_data(), workers=w)
            errors[w] = (type(info.value), str(info.value))
            _no_child_left()
            assert _blas_threads() == blas
        assert errors[workers] == errors[1]
        assert f": client {first} round 2" in errors[1][1]

    @pytest.mark.parametrize("missing", ["blas", "fork", "second_fork"])
    def test_without_blas_or_fork_the_clients_train_here(self, tmp_path, monkeypatch,
                                                         missing):
        cfg = desk_cfg(rounds=2)
        one = _run_dir_files(tmp_path, "one", cfg)
        log = CallLog(tmp_path)
        monkeypatch.setattr(federation, "_train_one_client",
                            log.wrap("train", federation._train_one_client))
        forks, real_fork = itertools.count(), os.fork

        def fork():
            if missing == "fork" or next(forks) % 2:
                raise BlockingIOError("no process to spare")
            return real_fork()

        if missing == "blas":
            monkeypatch.setattr(numkit, "_openblas", lambda: None)
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without a BLAS to hold"))
        else:
            monkeypatch.setattr(os, "fork", fork)
        assert _run_dir_files(tmp_path, missing, cfg, workers=3) == one
        _no_child_left()
        # with the second fork of a round refused, the first child trains
        # the second share and the parent the first and the third
        children = len({pid for pid, _ in log.counts()} - {os.getpid()})
        assert children == (cfg.rounds if missing == "second_fork" else 0)
