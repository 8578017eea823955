"""Round clock and span tracer, patched into hssfl from outside the package.

Nothing in ``src/`` is instrumented. While a job runs, the benchmark swaps
module globals (and one class attribute) of the ``hssfl`` modules for
timing wrappers and puts the originals back afterwards. Every binding of a
patched function is replaced, so ``from .numkit import matrix_to_csv`` in
another module is traced as well. A boundary that no longer exists fails
with its name instead of silently reading zero.

The helpers at the top (``percentile``, ``covered``, ``self_times``,
``idle_share``) are pure functions over numbers and spans; the tests in
``perfbench/tests`` pin them down.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class MissingBoundary(RuntimeError):
    """A function the benchmark wraps is gone from hssfl."""


@dataclass
class Span:
    id: int
    name: str
    thread: int
    round: int
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def has_tail(n: int, q: float) -> bool:
    """True when at least ten of n samples lie beyond the q-th percentile."""
    return n * (100.0 - q) / 100.0 >= 10.0


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Only children on the parent's own thread count: work a span hands to a
    pool thread runs beside it, not inside it. Children on one thread nest
    and never overlap, so their durations add up to the time they cover.
    """
    by_id = {s.id: s for s in spans}
    out = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            out[parent.id] -= s.duration
    return out


def idle_share(tasks: Sequence[Span], workers: int) -> float:
    """Share of worker-slot time left idle between the first task start and
    the last task end."""
    if not tasks:
        raise ValueError("idle share of no tasks")
    window = max(s.end for s in tasks) - min(s.start for s in tasks)
    if window <= 0.0:
        return 0.0
    return 1.0 - sum(s.duration for s in tasks) / (workers * window)


def _hssfl_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if name == "hssfl" or name.startswith("hssfl.")]


def _resolve(path: str) -> Tuple[object, str, object]:
    """'numkit:RngStream.generator' -> (owner, attribute, current value)."""
    module_name, attr_path = path.split(":")
    module = sys.modules.get(f"hssfl.{module_name}")
    if module is None:
        raise MissingBoundary(f"hssfl.{module_name} is not imported")
    owner = module
    *outer, attr = attr_path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        value = vars(owner)[attr]
    except (AttributeError, KeyError):
        raise MissingBoundary(
            f"hssfl.{module_name}.{attr_path} no longer exists; "
            "update the boundary list in perfbench/spans.py"
        ) from None
    return owner, attr, value


class Patches:
    """Swaps functions for wrappers and restores them in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, path: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        owner, attr, original = _resolve(path)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, original, wrapper)
            return
        for module in _hssfl_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, original, wrapper)

    def _set(self, owner: object, name: str, original: object, wrapper: object) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class StopAtFirstRound(Exception):
    """Raised by the clock to end a set-up probe when round 1 begins."""


@dataclass
class Leg:
    """One run_training call: when it began, its rounds, when it returned."""

    start: float
    call: float = 0.0
    end: float = 0.0
    round_starts: Tuple[Tuple[int, float], ...] = ()

    @property
    def first_round(self) -> float:
        return self.round_starts[0][1] if self.round_starts else self.end

    def rounds(self) -> List[Tuple[int, float, float]]:
        """(round, start, end) per round; a round ends when the next one
        selects its clients, the last when run_training returns."""
        ends = [s for _, s in self.round_starts[1:]] + [self.end]
        return [(t, s, e) for (t, s), e in zip(self.round_starts, ends)]


class RoundClock:
    """Marks each round start by wrapping ``federation.select_clients``.

    That is the first call of a round whose arguments name the round. The
    wrapper costs one clock read per round, so it stays on in untraced jobs.
    """

    def __init__(self) -> None:
        self.round = 0
        self.stop_at_first_round = False
        self._starts: List[Tuple[int, float]] = []
        self._patches = Patches()

    def install(self) -> None:
        self._patches.replace("federation:select_clients", self._wrap)

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        if "round_index" not in signature.parameters:
            raise MissingBoundary("federation.select_clients lost its round_index argument")

        @functools.wraps(fn)
        def select_clients(*args, **kwargs):
            now = time.perf_counter()
            if self.stop_at_first_round:
                raise StopAtFirstRound(now)
            self.round = int(signature.bind(*args, **kwargs).arguments["round_index"])
            self._starts.append((self.round, now))
            return fn(*args, **kwargs)

        return select_clients

    def begin_leg(self) -> Leg:
        self.round = 0
        self._starts = []
        return Leg(start=time.perf_counter())

    def end_leg(self, leg: Leg) -> None:
        leg.end = time.perf_counter()
        leg.round_starts = tuple(self._starts)
        self.round = 0


def _csv_out_bytes(args, kwargs, result) -> int:
    return len(result)


def _csv_in_bytes(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["text"])


# (metric prefix, "module:attribute", byte counter). CSV text is ASCII, so
# its length in characters is its size in bytes.
BOUNDARIES: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("numkit.matrix_to_csv", "numkit:matrix_to_csv", _csv_out_bytes),
    ("numkit.matrix_from_csv", "numkit:matrix_from_csv", _csv_in_bytes),
    ("numkit.save_matrix_csv", "numkit:save_matrix_csv", None),
    ("numkit.load_matrix_csv", "numkit:load_matrix_csv", None),
    ("numkit.RngStream.generator", "numkit:RngStream.generator", None),
    ("cka.gram_linear", "cka:gram_linear", None),
    ("cka.proximal_value", "cka:proximal_value", None),
    ("cka.proximal_grad", "cka:proximal_grad", None),
    ("cka.aggregate_grams", "cka:aggregate_grams", None),
    ("sslnet.combined_step", "sslnet:combined_step", None),
    ("sslnet.ema_update", "sslnet:ema_update", None),
    ("sslnet.combined_loss", "sslnet:combined_loss", None),
    ("sslnet.save_model", "sslnet:save_model", None),
    ("sslnet.load_model", "sslnet:load_model", None),
    ("federation.local_training", "federation:local_training", None),
    ("federation.client_task", "federation:_train_one_client", None),
    ("federation.swap_eval", "federation:_swap_eval", None),
    ("federation.server_aggregate", "federation:server_aggregate", None),
    ("federation.checkpoint", "federation:_save_checkpoint", None),
    ("federation.load_checkpoint", "federation:load_checkpoint", None),
    ("datahub.load_csv", "datahub:load_csv", None),
    ("datahub.sample_rad", "datahub:sample_rad", None),
    ("datahub.partition", "datahub:partition_noniid", None),
    ("datahub.partition", "datahub:partition_iid", None),
    ("evaluation.probe_accuracy_for_model", "evaluation:probe_accuracy_for_model", None),
)


class Tracer:
    """Records a span per call at every boundary; spans stay in memory."""

    def __init__(self, clock: RoundClock) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = Patches()

    def install(self) -> None:
        try:
            for name, path, measure in BOUNDARIES:
                self._patches.replace(
                    path, functools.partial(self._wrap, name, measure=measure))
        except BaseException:
            self._patches.restore()
            raise

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), name, threading.get_ident(), self.clock.round,
                        time.perf_counter(), parent=stack[-1].id if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if measure is not None:
                span.nbytes = measure(args, kwargs, result)
            return result

        return traced
