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
        out = server_aggregate([(0, k), (1, k)], [0.5, 0.5], "kernel", registry)
        assert np.allclose(out.entries, k.entries)

    def test_weighted_oracle(self):
        k1, k2 = GramMatrix(np.eye(3)), GramMatrix(3.0 * np.eye(3))
        out = server_aggregate([(0, k1), (1, k2)], [0.5, 0.5], "kernel", {})
        assert np.array_equal(out.entries, 2.0 * np.eye(3))

    def test_arrival_order_irrelevant(self):
        ks = [gram_linear(RngStream(s, purpose="k").generator().normal(size=(4, 2)))
              for s in range(3)]
        w = [1 / 3] * 3
        a = server_aggregate(list(enumerate(ks)), w, "kernel", {})
        b = server_aggregate(list(enumerate(ks))[::-1], w, "kernel", {})
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_stale_payload_reuse(self):
        k_old = GramMatrix(np.eye(2))
        k_new = GramMatrix(2.0 * np.eye(2))
        registry = {0: k_old, 1: k_old}
        out = server_aggregate([(1, k_new)], [0.5, 0.5], "kernel", registry)
        assert np.array_equal(out.entries, 1.5 * np.eye(2))

    def test_missing_report_names_client(self):
        with pytest.raises(ProtocolError, match="client 1"):
            server_aggregate([(0, GramMatrix(np.eye(2)))], [0.5, 0.5], "kernel", {})


class TestLocalTraining:
    def test_eta_zero_keeps_model(self):
        cfg = small_cfg(eta=0.0, local_epochs=1, tau=1.0)
        ds = dataset()
        shard = ds.features[:30]
        rad = ds.features[30:40]
        from hssfl.federation import init_models
        model = init_models(cfg)[0]
        ref = gram_linear(np.ones((10, 8)))
        out = local_training(model, shard, rad, ref, cfg, 1, RngStream(cfg.seed, client=0))
        assert len(out["epoch_losses"]) == 1
        for a, b in zip(out["model"].online_w, model.online_w):
            assert np.array_equal(a, b)

    def test_replay_oracle(self):
        cfg = small_cfg()
        ds = dataset()
        shard = ds.features[:40]
        rad = ds.features[40:60]
        from hssfl.federation import init_models
        model = init_models(cfg)[0]
        ref = gram_linear(RngStream(5, purpose="r").generator().normal(size=(20, 8)))
        first = local_training(model, shard, rad, ref, cfg, 2, RngStream(cfg.seed, client=0))
        second = local_training(model, shard, rad, ref, cfg, 2, RngStream(cfg.seed, client=0))
        assert first["epoch_losses"] == second["epoch_losses"]
        assert first["epoch_grad_norms"] == second["epoch_grad_norms"]
        for a, b in zip(first["model"].online_w, second["model"].online_w):
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
            for a, b in zip(m.online_w, f.online_w):
                assert np.array_equal(a, b)

    def test_mu_zero_equivalence(self):
        cfg = small_cfg(mu=0.0, rounds=2)
        res = run_training(cfg, dataset())
        for k in range(cfg.num_clients):
            alone = standalone_training(cfg, dataset(), k)
            model = res.models[k]
            for a, b in zip(model.online_w, alone.online_w):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(model.target_w, alone.target_w):
                assert a.tobytes() == b.tobytes()
            assert model.pred_w.tobytes() == alone.pred_w.tobytes()

    def test_workers_do_not_change_log(self):
        cfg = small_cfg(rounds=3)
        a = run_training(cfg, dataset(), workers=1)
        b = run_training(cfg, dataset(), workers=4)
        assert a.log.to_jsonl() == b.log.to_jsonl()
        for ma, mb in zip(a.models, b.models):
            for x, y in zip(ma.online_w, mb.online_w):
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
                assert sorted(kinds) == ["kernel", "rad", "reference"]

    def test_unsampled_clients_frozen(self):
        cfg = small_cfg(rounds=1, sample_size=2)
        ds = dataset()
        res = run_training(cfg, ds)
        from hssfl.federation import init_models
        fresh = init_models(cfg)
        selected = res.log.server_records()[-1]["selected"]
        for k in range(cfg.num_clients):
            same = all(
                a.tobytes() == b.tobytes()
                for a, b in zip(res.models[k].online_w, fresh[k].online_w)
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
            for r in res.log.server_records() if r["round"] >= 1
            for c in r["selected"]
        }
        logged = {(r["round"], r["client"]) for r in res.log.client_records()}
        assert logged == selected

    def test_l2rep_mode_equal_widths(self):
        cfg = small_cfg(proximal_form="l2_rep", payload="representation")
        res = run_training(cfg, dataset())
        assert all(not isinstance(p, GramMatrix) for p in res.server.registry.values())
        rec = res.log.client_records()[0]
        assert rec["loss_prox_start"] >= 0.0

    def test_l2rep_mixed_widths_rejected(self):
        specs = (MlpSpec((16, 8), "relu"), MlpSpec((16, 4), "relu"),
                 MlpSpec((16, 8), "relu"), MlpSpec((16, 8), "relu"))
        cfg = small_cfg(proximal_form="l2_rep", payload="representation",
                        client_specs=specs)
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

    def test_jsonl_round_trip(self):
        cfg = small_cfg()
        res = run_training(cfg, dataset())
        back = RoundLog.from_jsonl(res.log.to_jsonl())
        assert back.records == res.log.records


class TestRadShift:
    def test_shift_offsets_alignment_rows(self):
        from hssfl.federation import prepare_data
        cfg_plain = small_cfg()
        cfg_shift = small_cfg(rad_shift=2.5)
        rad_plain, _ = prepare_data(cfg_plain, dataset())
        rad_shift, _ = prepare_data(cfg_shift, dataset())
        assert np.allclose(rad_shift.features, rad_plain.features + 2.5)
        assert rad_shift.source == "pool+shift"
        run_training(cfg_shift, dataset())  # still trains end to end


class TestDivergence:
    @pytest.mark.filterwarnings("error")
    def test_failure_annotated_with_location(self):
        from hssfl.errors import NumericalFailureError
        cfg = small_cfg(eta=50.0, momentum=0.9, rounds=3)
        with pytest.raises(NumericalFailureError,
                           match=r": client [0-3] round [1-3], epoch \d+ batch \d+"):
            run_training(cfg, dataset())


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
            for x, y in zip(a.online_w, b.online_w):
                assert x.tobytes() == y.tobytes()
            assert a.pred_w.tobytes() == b.pred_w.tobytes()

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
        with pytest.raises(ConfigError):
            small_cfg(proximal_form="l2_rep")
        with pytest.raises(ConfigError):
            small_cfg(payload="representation")

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
        assert np.array_equal(received.entries, k.entries)
        assert nbytes == 8 * 4 * 4 + 128
        received, nbytes = _transmit(a)
        assert np.array_equal(received, a)
        assert nbytes == 8 * 4 * 3 + 128
