import collections
import os
import sys

import numpy as np
import pytest

from hssfl import federation, numkit
from hssfl.cka import GramMatrix, gram_linear
from hssfl.datahub import synth_mixture
from hssfl.errors import ConfigError, ProtocolError
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

    def test_sample_size_validated(self):
        with pytest.raises(ConfigError):
            select_clients(3, 4, 0, RngStream(0))


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
        expected = federation._held(server_aggregate(reports, weights, {}))
        for seed in range(4):
            order = RngStream(seed, purpose="arrival").generator().permutation(5)
            shuffled = [reports[i] for i in order]
            out = federation._held(server_aggregate(shuffled, weights, {}))
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
        specs = (MlpSpec((16, 8), "relu"), MlpSpec((16, 4), "relu"),
                 MlpSpec((16, 8), "relu"), MlpSpec((16, 8), "relu"))
        cfg = small_cfg(proximal_form="l2_rep", client_specs=specs)
        from hssfl.errors import UnsupportedCombinationError
        with pytest.raises(UnsupportedCombinationError):
            run_training(cfg, dataset())

    def test_each_reference_aggregated_and_sent_once(self, monkeypatch):
        counts = {"server_aggregate": 0, "_transmit": 0}
        for name in counts:
            def counted(*args, _name=name, _real=getattr(federation, name)):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(federation, name, counted)
        cfg = small_cfg(rounds=3, sample_size=2)
        run_training(cfg, dataset(), workers=2)
        assert counts["server_aggregate"] == cfg.rounds + 1
        # the RAD, the bootstrap uploads and the first reference, then
        # each round's uploads and new reference
        assert counts["_transmit"] == (
            1 + cfg.num_clients + 1 + cfg.rounds * (cfg.sample_size + 1)
        )

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
        from hssfl import sslnet
        counts = collections.Counter()

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        for name in ("augment", "combined_step"):
            monkeypatch.setattr(sslnet, name, counted(name, getattr(sslnet, name)))
        cfg = small_cfg()
        data = dataset()
        rad, plan = federation.prepare_data(cfg, data)
        shard = data.features[list(plan.client_indices[0])]
        model = federation.init_models(cfg)[0]
        reference = gram_linear(sslnet.representations(model, rad))
        out = federation._train_one_client(0, model, shard, rad, reference, cfg, 1)
        steps = cfg.local_epochs * -(-shard.shape[0] // cfg.batch_size)
        assert counts["combined_step"] == steps
        assert counts["augment"] == steps + 1
        # the shared pair is the one each evaluation would draw for itself
        obj = _client_objective(cfg, cfg.mu, rad, reference)
        eval_rng = RngStream(cfg.seed, client=0, round=1, purpose="eval")
        rec = out["record"]
        for when, m in (("start", model), ("end", out["model"])):
            own = sslnet.combined_loss(m, shard, obj, eval_rng)
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
        ref_bytes = 8 * cfg.rad_size * sum(widths) + 128
        boot = res.log.records[0]["bootstrap_payload_bytes"]
        assert boot == [8 * cfg.rad_size * d + 128 for d in widths]
        records = res.log.client_records()
        assert len(records) == cfg.rounds * cfg.sample_size
        for rec in records:
            assert rec["upstream_bytes"] == 8 * cfg.rad_size * widths[rec["client"]] + 128
            assert rec["downstream_bytes"] == ref_bytes
        assert res.log.records[0]["bootstrap_downstream_bytes"] == [rad_bytes] * cfg.num_clients
        assert res.server.reference.data.shape == (cfg.rad_size, sum(widths))

    def test_no_l_by_l_array_on_the_run_path(self, tmp_path, monkeypatch):
        builds = collections.Counter()
        real_entries = GramMatrix.entries

        def entries(self):
            builds["entries"] += 1
            return real_entries.func(self)

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
            assert small_cfg(proximal_form=form).payload_kind == "kernel"
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


class TestPayloadCodec:
    def test_round_trip(self):
        a = RngStream(33, purpose="act").generator().normal(size=(4, 3))
        k = gram_linear(a)
        received, nbytes = _transmit(k)
        assert isinstance(received, GramMatrix)
        assert np.array_equal(received.data, k.data)
        assert np.array_equal(received.entries, k.entries)
        assert nbytes == 8 * 4 * 3 + 128  # the 4 x 3 factor
        capped = gram_linear(a.T)  # 3 rows, 4 columns: sent as its 3 x 3 factor
        received, nbytes = _transmit(capped)
        assert np.array_equal(received.data, capped.data)
        assert np.array_equal(received.entries, capped.entries)
        assert nbytes == 8 * 3 * 3 + 128
        received, nbytes = _transmit(a)
        assert np.array_equal(received, a)
        assert nbytes == 8 * 4 * 3 + 128
