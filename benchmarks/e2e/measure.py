"""Measurement arithmetic shared by the timed rounds and the traced pass.

Nothing here imports ``repro``: percentiles, the calibration arithmetic,
the span recorder and its self-time rule, and the closed-loop round
runner are all about *how* we measure, not *what*.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import calib

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


# ----------------------------------------------------------------------
# Percentiles


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation, so it is a real sample)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(1, math.ceil(n * q / 100))


def supported_percentiles(
    n: int, candidates: Iterable[float] = (50, 90, 95, 99)
) -> list[float]:
    """The candidates a sample of ``n`` can support (>= 10 samples beyond)."""
    return [q for q in candidates if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND]


# ----------------------------------------------------------------------
# Calibration


def speed_factor(slice_before_ms: float, slice_after_ms: float, ref_ms: float) -> float:
    """How much slower than the reference box the op's neighbourhood ran."""
    return (slice_before_ms + slice_after_ms) / 2 / ref_ms


def calibrated(raw: float, slice_before_ms: float, slice_after_ms: float, ref_ms: float) -> float:
    """``raw`` rescaled to what it would have taken at reference speed."""
    return raw / speed_factor(slice_before_ms, slice_after_ms, ref_ms)


# ----------------------------------------------------------------------
# Spans


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent_id: int  # -1 for a root
    op_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Per span id: its duration minus the part its child spans cover.

    Children are clipped to the parent and overlapping children are
    counted once (the union of their intervals), so the rule also holds
    for traces with concurrent children.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_ns):
            start = max(child.start_ns, cursor)
            end = min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration_ns - covered
    return result


@dataclass
class NameTotal:
    """Running totals for one span name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """In-memory span recorder for one thread.

    ``enter``/``exit`` bracket a call; frames nest on a stack, so each
    span knows its parent and self time is accumulated on the way out.
    ``leaf`` reports a call that is made thousands of times per query
    (the cost model): it adds to the name's totals and to the enclosing
    span's child time, and writes no span record.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.totals: dict[str, NameTotal] = {}
        self.leaves: set[str] = set()
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def exit(self, frame: list) -> None:
        end_ns = time.perf_counter_ns()
        span_id, name, start_ns, child_ns = frame
        stack = self._stack
        stack.pop()
        duration = end_ns - start_ns
        self._add(name, duration, duration - child_ns)
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.spans.append(Span(span_id, name, start_ns, end_ns, parent_id, self.op_id))

    def leaf(self, name: str, duration_ns: int) -> None:
        self.leaves.add(name)
        self._add(name, duration_ns, duration_ns)
        if self._stack:
            self._stack[-1][3] += duration_ns

    def _add(self, name: str, duration_ns: int, self_ns: int) -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = NameTotal()
        total.calls += 1
        total.total_ns += duration_ns
        total.self_ns += self_ns

    def clear(self) -> None:
        """Forget everything recorded so far (set-up spans, say)."""
        self.spans.clear()
        self.totals.clear()

    def timed(self, name: str, call: Callable[..., Any], *args: Any) -> Any:
        frame = self.enter(name)
        try:
            return call(*args)
        finally:
            self.exit(frame)

    def total(self, name: str) -> NameTotal:
        return self.totals.get(name, NameTotal())

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [dict(vars(span)) for span in self.spans],
            "leaves": {
                name: {"calls": self.totals[name].calls, "total_ns": self.totals[name].total_ns}
                for name in sorted(self.leaves & self.totals.keys())
            },
        }


# ----------------------------------------------------------------------
# The closed loop


@dataclass
class Op:
    """One unit of measured work: ``queries`` calls into the program."""

    run: Callable[[], Any]
    check: Callable[[Any], bool]
    queries: int = 1


@dataclass
class OpSample:
    raw_ms: float
    cpu_ms: float
    factor: float
    queries: int
    ok: bool = True

    @property
    def latency_ms(self) -> float:
        """Calibrated wall time per query."""
        return self.raw_ms / self.factor / self.queries


@dataclass
class Round:
    samples: list[OpSample]
    slices_ms: list[float]
    #: ``federation.total_traffic_cost()`` after the round (set by the caller).
    wire_cost: float = 0.0

    @property
    def queries(self) -> int:
        return sum(s.queries for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    @property
    def raw_ms(self) -> float:
        return sum(s.raw_ms for s in self.samples)

    @property
    def calibrated_ms(self) -> float:
        return sum(s.raw_ms / s.factor for s in self.samples)

    @property
    def calibrated_cpu_ms(self) -> float:
        return sum(s.cpu_ms / s.factor for s in self.samples)

    @property
    def factor(self) -> float:
        """The round's overall slowdown (raw time over calibrated time)."""
        return self.raw_ms / self.calibrated_ms


def run_round(ops: Sequence[Op], tracer: Tracer | None = None) -> Round:
    """One client, one thread: slice, op, slice, op, ..., slice.

    Answers are checked after the last op, outside every clock (the
    serving workload's tickets only complete once the round has
    drained).  An op that raises counts as failed and the loop goes on,
    so ``failed`` is reported instead of a traceback.
    """
    ref_ms = calib.CALIB_REF_MS
    samples: list[OpSample] = []
    results: list[Any] = []
    slices = [calib.slice_ms()]
    for index, op in enumerate(ops):
        result, ok = None, True
        if tracer is not None:
            tracer.op_id = index
            frame = tracer.enter("bench.op")
        cpu_start = time.process_time_ns()
        start = time.perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # the loop must outlive a failing op
            ok = False
            print(f"op {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        end = time.perf_counter_ns()
        cpu_end = time.process_time_ns()
        if tracer is not None:
            tracer.exit(frame)
        slices.append(calib.slice_ms())
        samples.append(
            OpSample(
                raw_ms=(end - start) / 1e6,
                cpu_ms=(cpu_end - cpu_start) / 1e6,
                factor=speed_factor(slices[-2], slices[-1], ref_ms),
                queries=op.queries,
                ok=ok,
            )
        )
        results.append(result)
    for op, sample, result in zip(ops, samples, results):
        if sample.ok:
            sample.ok = bool(op.check(result))
    return Round(samples, slices)


class PhaseClock:
    """Calibrated stopwatch for a set-up made of a few long phases.

    ``tick()`` closes the current phase with a slice; each phase is
    rescaled by the slices on either side of it.
    """

    def __init__(self) -> None:
        self.slices_ms = [calib.slice_ms()]
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self._start = time.perf_counter()

    def tick(self) -> None:
        elapsed = time.perf_counter() - self._start
        self.slices_ms.append(calib.slice_ms())
        self.raw_s += elapsed
        self.calibrated_s += calibrated(
            elapsed, self.slices_ms[-2], self.slices_ms[-1], calib.CALIB_REF_MS
        )
        self._start = time.perf_counter()
