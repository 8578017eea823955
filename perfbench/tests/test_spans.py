"""Tests of the benchmark's own helpers: percentiles, interval union, self
time per thread, idle share, and patching from outside the package."""

import json
import sys
import threading
import types

import pytest

import run
import spans
from spans import MissingBoundary, Patches, RoundClock, Span, Tracer


def span(id, start, end, parent=None, thread=1, name="x", round=1):
    return Span(id, name, thread, round, start, end, parent)


class TestPercentile:
    def test_linear_between_order_statistics(self):
        assert spans.percentile([4, 1, 3, 2], 50) == 2.5
        assert spans.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)

    def test_ends_and_single_value(self):
        assert spans.percentile([3, 1, 2], 0) == 1
        assert spans.percentile([3, 1, 2], 100) == 3
        assert spans.percentile([7.5], 90) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spans.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        assert spans.has_tail(100, 90)
        assert not spans.has_tail(99, 90)
        assert spans.has_tail(20, 50)


class TestCovered:
    def test_union_of_overlapping_nested_and_disjoint(self):
        assert spans.covered([(0, 2), (1, 3), (1.5, 1.8), (5, 6)]) == 4

    def test_empty(self):
        assert spans.covered([]) == 0.0


class TestSelfTimes:
    def test_children_subtracted_from_parent(self):
        got = spans.self_times([span(0, 0, 10), span(1, 1, 3, parent=0),
                                span(2, 4, 8, parent=0), span(3, 5, 6, parent=2)])
        assert got == {0: 4, 1: 2, 2: 3, 3: 1}

    def test_span_on_another_thread_is_not_a_child(self):
        got = spans.self_times([span(0, 0, 10, thread=1),
                                span(1, 2, 6, parent=0, thread=2)])
        assert got == {0: 10, 1: 4}


class TestIdleShare:
    def test_two_workers_fully_busy(self):
        assert spans.idle_share([span(0, 0, 4, thread=1), span(1, 0, 4, thread=2)], 2) == 0

    def test_serial_tasks_on_two_workers_leave_half_idle(self):
        tasks = [span(0, 0, 2, thread=1), span(1, 2, 4, thread=1)]
        assert spans.idle_share(tasks, 2) == pytest.approx(0.5)

    def test_gap_on_one_worker(self):
        assert spans.idle_share([span(0, 0, 1), span(1, 3, 4)], 1) == pytest.approx(0.5)


@pytest.fixture
def fake_hssfl(monkeypatch):
    """A stand-in hssfl module: inner() called by outer(), and a second
    module that imported inner by name."""
    mod = types.ModuleType("hssfl.fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def select_clients(num_clients, sample_size, round_index, rng):
        return list(range(sample_size))

    mod.inner, mod.outer, mod.select_clients = inner, outer, select_clients
    other = types.ModuleType("hssfl.other")
    other.inner = inner
    monkeypatch.setitem(sys.modules, "hssfl.fake", mod)
    monkeypatch.setitem(sys.modules, "hssfl.other", other)
    return mod, other


class TestPatches:
    def test_every_binding_replaced_and_restored(self, fake_hssfl):
        mod, other = fake_hssfl
        original = mod.inner
        patches = Patches()
        patches.replace("fake:inner", lambda fn: lambda x: fn(x) + 100)
        assert mod.inner(1) == 102 and other.inner(1) == 102
        patches.restore()
        assert mod.inner is original and other.inner is original

    def test_missing_boundary_fails_with_its_name(self, fake_hssfl):
        with pytest.raises(MissingBoundary, match="hssfl.fake._train_one_client"):
            Patches().replace("fake:_train_one_client", lambda fn: fn)


class TestTracer:
    def test_spans_carry_parent_thread_and_round(self, fake_hssfl, monkeypatch):
        mod, _ = fake_hssfl
        monkeypatch.setattr(spans, "BOUNDARIES", (("fake.outer", "fake:outer", None),
                                                  ("fake.inner", "fake:inner", None)))
        clock = RoundClock()
        clock.round = 3
        tracer = Tracer(clock)
        tracer.install()
        try:
            assert mod.outer(1) == 4
            worker = threading.Thread(target=mod.inner, args=(1,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        finally:
            tracer.uninstall()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (outer,) = by_name["fake.outer"]
        nested, threaded = sorted(by_name["fake.inner"], key=lambda s: s.start)
        assert nested.parent == outer.id and nested.thread == outer.thread
        assert threaded.parent is None and threaded.thread != outer.thread
        assert {s.round for s in tracer.spans} == {3}
        selfs = spans.self_times(tracer.spans)
        assert selfs[outer.id] == pytest.approx(outer.duration - nested.duration)

    def test_round_clock_marks_rounds_and_stops_probes(self, fake_hssfl, monkeypatch):
        mod, _ = fake_hssfl
        monkeypatch.setitem(sys.modules, "hssfl.federation", mod)
        clock = RoundClock()
        clock.install()
        try:
            leg = clock.begin_leg()
            mod.select_clients(4, 2, 1, None)
            mod.select_clients(4, 2, round_index=2, rng=None)
            clock.end_leg(leg)
            clock.stop_at_first_round = True
            with pytest.raises(spans.StopAtFirstRound):
                mod.select_clients(4, 2, 3, None)
        finally:
            clock.uninstall()
        assert [t for t, _ in leg.round_starts] == [1, 2]
        assert [t for t, _, _ in leg.rounds()] == [1, 2]
        assert leg.rounds()[-1][2] == leg.end


def test_every_boundary_exists_in_the_program():
    import hssfl.cli  # noqa: F401  imports every module the benchmark patches
    clock = RoundClock()
    clock.install()
    tracer = Tracer(clock)
    tracer.install()
    tracer.uninstall()
    clock.uninstall()


def test_benchmark_json_names_the_metrics_the_run_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
