"""Causal span trees: per-query traces, Chrome export, critical paths.

Every query served by :class:`~repro.serve.service.MediatorService` gets
a deterministic ``trace_id`` — :func:`derive_trace_id` mixes the workload
seed with the submission sequence number, so a deterministic-mode run
replays its whole span forest byte-identically — and a hierarchical
span tree that is a *fold* of what the service already knows, built by
two pure functions:

* :func:`serve_spans` — the serving-tier skeleton from the ticket's
  phase boundaries: ``admission``, ``queue``, ``plan`` (plan-cache
  hit/miss and search strategy as attributes), ``pool`` acquisition,
  ``execute``, and the final ``merge``;
* :func:`engine_spans` — the children of ``execute`` from the query's
  slice of the event stream: one ``op`` span per plan operation
  (queued → finished) with ``attempt`` / ``sendset`` / ``backoff`` /
  ``hedge`` / ``verify`` children, plus ``breaker`` and ``quarantine``
  transition markers.  A span exists iff an event exists, so the same
  subtree can be rebuilt from a persisted JSONL log.

The :class:`SpanLog` is the storage: thread-safe, append-only, exported
either as Chrome trace-event JSON (:meth:`SpanLog.to_chrome_json`,
loadable in Perfetto — each query is one track) or walked by the
critical-path analyzer (:func:`analyze_trace`), which tiles a query's
end-to-end latency into :class:`PhaseSlice` segments whose durations sum
*exactly* to the measured latency — the property CI asserts.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ObservabilityError
from repro.obs.events import EVENT_SCHEMA, ROUND_STAMPED, Event, field_attribute

#: Serving-tier span ids are fixed per trace, so engine spans can parent
#: under ``execute`` before the serve spans are materialized (they are
#: only built once the query completes and all phase boundaries are
#: known).
ROOT_SPAN_ID = 1
ADMISSION_SPAN_ID = 2
QUEUE_SPAN_ID = 3
PLAN_SPAN_ID = 4
POOL_SPAN_ID = 5
EXECUTE_SPAN_ID = 6
MERGE_SPAN_ID = 7
#: First id handed to dynamically allocated engine spans.
FIRST_ENGINE_SPAN_ID = 8

#: Phase vocabulary of the critical-path analyzer, in timeline order.
PHASES = (
    "admission",
    "queue",
    "plan",
    "pool",
    "exec.wait",
    "exec.wire",
    "exec.backoff",
    "merge",
)

_TRACE_MIX_A = 0x9E3779B97F4A7C15
_TRACE_MIX_B = 0xBF58476D1CE4E5B9
_TRACE_MIX_C = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def derive_trace_id(workload_seed: int, seq: int) -> str:
    """Deterministic 64-bit trace id from workload seed + sequence.

    A splitmix-style integer hash: stable across runs and platforms,
    collision-averse across both arguments, and cheap.  Same seed and
    sequence number always name the same trace, which is what makes
    deterministic-mode trace replay byte-identical.
    """
    value = (workload_seed * _TRACE_MIX_A + seq * _TRACE_MIX_B + _TRACE_MIX_C) & _MASK64
    value = ((value ^ (value >> 30)) * _TRACE_MIX_B) & _MASK64
    value = ((value ^ (value >> 27)) * _TRACE_MIX_C) & _MASK64
    value ^= value >> 31
    return f"{value:016x}"


@dataclass(frozen=True)
class Span:
    """One node of a query's span tree.

    Times are service-timeline seconds (virtual clock in deterministic
    mode, seconds since service start under threads).  ``parent_id`` is
    ``None`` only for the root ``query`` span.
    """

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_s: float
    end_s: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s - 1e-9:
            raise ObservabilityError(
                f"span {self.name!r} ends ({self.end_s}) before it "
                f"starts ({self.start_s})"
            )

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class SpanLog:
    """Thread-safe append-only store for finished spans.

    One log belongs to one service, whose thread-mode workers all
    append here, so the lock is load-bearing: :meth:`extend` lands a
    whole batch (a trace's engine subtree, its serve skeleton) under
    one acquisition.  Append order is deterministic under the virtual
    clock; the Chrome exporter additionally sorts within each trace so
    the bytes do not depend on insertion interleaving in thread mode.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        #: trace_id -> its spans in append order; key order is the
        #: first-seen order that numbers the exported tracks.
        self._by_trace: dict[str, list[Span]] = {}

    def add(self, span: Span) -> Span:
        self.extend((span,))
        return span

    def extend(self, spans: Iterable[Span]) -> None:
        """Append a batch atomically (no other thread's spans between)."""
        with self._lock:
            for span in spans:
                self._by_trace.setdefault(span.trace_id, []).append(span)
                self._spans.append(span)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        with self._lock:
            return iter(list(self._spans))

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def trace_ids(self) -> list[str]:
        """Trace ids in first-seen order."""
        with self._lock:
            return list(self._by_trace)

    def for_trace(self, trace_id: str) -> list[Span]:
        with self._lock:
            return list(self._by_trace.get(trace_id, ()))

    # ------------------------------------------------------------------
    # Chrome trace-event export (Perfetto-loadable)

    def to_chrome_trace(self) -> dict[str, Any]:
        """The span forest as a Chrome trace-event JSON object.

        One ``pid`` for the whole service; one ``tid`` (track) per
        trace in first-submitted order, named by its trace id; every
        span a complete (``"ph": "X"``) event with microsecond
        timestamps.  Span identity and parentage ride in ``args`` so
        the tree survives the format round trip.
        """
        events: list[dict[str, Any]] = []
        with self._lock:
            order = {trace_id: i for i, trace_id in enumerate(self._by_trace)}
            spans = list(self._spans)
        for trace_id in order:
            events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": order[trace_id] + 1,
                    "name": "thread_name",
                    "args": {"name": f"trace {trace_id}"},
                }
            )
        for span in sorted(
            spans,
            key=lambda s: (order[s.trace_id], s.start_s, s.span_id),
        ):
            args: dict[str, Any] = {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
            }
            for key in sorted(span.attributes):
                args[key] = span.attributes[key]
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": order[span.trace_id] + 1,
                    "name": span.name,
                    "cat": span.category,
                    "ts": round(span.start_s * 1e6, 3),
                    "dur": round(span.duration_s * 1e6, 3),
                    "args": args,
                }
            )
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def to_chrome_json(self) -> str:
        """Deterministic bytes: same seed, same trace, same string."""
        return json.dumps(
            self.to_chrome_trace(), sort_keys=True, separators=(",", ":")
        )

    def write_chrome_trace(self, path: str) -> str:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_json() + "\n")
        return path


# ----------------------------------------------------------------------
# Span construction: pure folds of ticket timestamps and engine events

#: Event type -> (span name, (JSON key, attribute) of the event fields
#: copied onto its attributes, whether the event carries a ``step``).
#: Events carrying a ``step`` parent under that op, the rest (health
#: transitions) directly under ``execute``; other event types have no span.
_ENGINE_SPANS = {
    kind: (
        name,
        tuple((key, field_attribute(key)) for key in copied),
        "step" in EVENT_SCHEMA[kind],
    )
    for kind, (name, copied) in {
        "sendset": ("sendset", ("source", "size")),
        "attempt": ("attempt", ("attempt", "source", "fate", "hedge", "cost")),
        "retry": ("backoff", ("source", "retries")),
        "hedge": ("hedge", ("primary", "target", "trigger")),
        "breaker": ("breaker", ("source", "from", "to")),
        "quality": ("verify", ("source", "kept")),
        "quarantine": ("quarantine", ("source", "action")),
        "op": ("op", ("step", "op", "source", "remote", "status", "output")),
    }.items()
}


def engine_spans(
    trace_id: str, events: Iterable[Event], offset_s: float
) -> list[Span]:
    """The ``execute`` subtree of one query, folded from its events.

    ``events`` is the slice of the stream one engine run emitted and
    ``offset_s`` the service-timeline instant its clock started at
    (event ``ts`` already carries it; the engine-local ``start`` /
    ``end`` / ``queued`` / ... fields do not).  Span ids are handed out
    in event order from :data:`FIRST_ENGINE_SPAN_ID`; an op's id is
    reserved the first time any event references its ``(round, step)``,
    because attempts, send-sets and retries arrive before the ``op``
    event that closes their parent.  Events without a span (``run_*``,
    ``replan``, serve lifecycle) are skipped, so any superset of the
    slice — e.g. a whole single-query JSONL file — folds the same way.
    Every span stands for exactly one event, with one exception: an op
    left open by a run that raised is closed here, ``status="aborted"``.
    """
    spans: list[Span] = []
    op_ids: dict[tuple[int, int], int] = {}
    next_id = FIRST_ENGINE_SPAN_ID
    round_no = 0
    for event in events:
        kind = event.type
        # ``quality`` events carry no round; they inherit the run's.
        if kind in ROUND_STAMPED:
            round_no = event.round
        spec = _ENGINE_SPANS.get(kind)
        if spec is None:
            continue
        name, copied, stepped = spec
        op_id = None
        if stepped:
            key = (round_no, event.step)
            if key not in op_ids:
                op_ids[key] = next_id
                next_id += 1
            op_id = op_ids[key]
        start_s = end_s = event.ts
        attributes = {key: getattr(event, attr) for key, attr in copied}
        if kind == "op":
            span_id, parent_id = op_id, EXECUTE_SPAN_ID
            start_s = offset_s + event.queued
            end_s = offset_s + event.finished
            attributes["started"] = offset_s + event.started
        else:
            span_id = next_id
            next_id += 1
            parent_id = EXECUTE_SPAN_ID if op_id is None else op_id
        if kind == "attempt":
            start_s = offset_s + event.start
            end_s = offset_s + event.end
        elif kind == "retry":
            # The backoff window is blocked time on the op's critical
            # path; the analyzer classifies it apart from wire time.
            end_s = offset_s + event.at
        elif kind == "quality":
            # Only tainted answers emit an event, hence get a marker.
            attributes["outcome"] = "tainted"
            attributes["dropped"] = event.delivered - event.kept
        spans.append(
            Span(
                trace_id, span_id, parent_id, name, "execute",
                start_s, end_s, attributes,
            )
        )
    # A run that raised never emitted ``op`` for what it was still
    # working on; close each such op over its children's extent, or
    # they would dangle and the failed trace — the one most worth
    # opening — would not be a tree.
    closed = {span.span_id for span in spans if span.name == "op"}
    for (__, step), span_id in op_ids.items():
        if span_id not in closed:
            children = [s for s in spans if s.parent_id == span_id]
            spans.append(
                Span(
                    trace_id, span_id, EXECUTE_SPAN_ID, "op", "execute",
                    min(child.start_s for child in children),
                    max(child.end_s for child in children),
                    {"step": step, "status": "aborted"},
                )
            )
    return spans


def serve_spans(
    trace_id: str,
    query: int,
    tenant: str,
    status: str,
    submitted_s: float,
    planned_s: float,
    plan_elapsed_s: float,
    dispatched_s: float,
    completed_s: float,
    cache: str = "off",
    strategy: str = "",
) -> list[Span]:
    """The serving-tier skeleton of one finished query.

    Built once, at completion, when every phase boundary is known; the
    engine spans already parent under the fixed ``EXECUTE_SPAN_ID``.
    The six phase spans tile ``[submitted, completed]`` exactly:
    admission (instantaneous), queue wait, planning, pool acquisition,
    execution, and the (instantaneous on both clocks) final merge.
    """
    plan_end = min(planned_s + plan_elapsed_s, dispatched_s)
    root = {"query": query, "tenant": tenant, "status": status}
    plan = {"cache": cache, "strategy": strategy}
    rows = (
        (ROOT_SPAN_ID, "query", "serve", submitted_s, completed_s, root),
        (ADMISSION_SPAN_ID, "admission", "serve", submitted_s, submitted_s, {}),
        (QUEUE_SPAN_ID, "queue", "serve", submitted_s, planned_s, {}),
        (PLAN_SPAN_ID, "plan", "plan", planned_s, plan_end, plan),
        (POOL_SPAN_ID, "pool", "serve", plan_end, dispatched_s, {}),
        (EXECUTE_SPAN_ID, "execute", "execute", dispatched_s, completed_s, {}),
        (MERGE_SPAN_ID, "merge", "serve", completed_s, completed_s, {}),
    )
    return [
        Span(
            trace_id,
            span_id,
            None if span_id == ROOT_SPAN_ID else ROOT_SPAN_ID,
            name, category, start_s, end_s, attributes,
        )
        for span_id, name, category, start_s, end_s, attributes in rows
    ]


#: Required keys (and Python types) of an exported complete-span event —
#: the span schema CI validates exported traces against.
CHROME_EVENT_SCHEMA: dict[str, type | tuple[type, ...]] = {
    "ph": str,
    "pid": int,
    "tid": int,
    "name": str,
    "cat": str,
    "ts": (int, float),
    "dur": (int, float),
    "args": dict,
}


def validate_chrome_trace(data: Mapping[str, Any]) -> int:
    """Validate an exported Chrome trace against the span schema.

    Checks the envelope, every complete event's fields and types, span
    identity in ``args``, and that every non-root span's parent exists
    within its trace.  Returns the number of spans validated; raises
    :class:`~repro.errors.ObservabilityError` on the first violation.
    """
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ObservabilityError("trace JSON must carry a traceEvents list")
    by_trace: dict[str, set[int]] = {}
    complete: list[Mapping[str, Any]] = []
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            raise ObservabilityError(f"unexpected event phase {phase!r}")
        for key, expected in CHROME_EVENT_SCHEMA.items():
            if key not in event:
                raise ObservabilityError(f"span event missing {key!r}")
            if not isinstance(event[key], expected) or isinstance(
                event[key], bool
            ):
                raise ObservabilityError(
                    f"span event field {key!r} has wrong type "
                    f"{type(event[key]).__name__}"
                )
        args = event["args"]
        trace_id = args.get("trace_id")
        span_id = args.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, int):
            raise ObservabilityError(
                "span args must carry trace_id (str) and span_id (int)"
            )
        if event["dur"] < 0:
            raise ObservabilityError(f"span {span_id} has negative duration")
        by_trace.setdefault(trace_id, set()).add(span_id)
        complete.append(event)
    for event in complete:
        args = event["args"]
        parent = args.get("parent_id")
        if parent is None:
            continue
        if parent not in by_trace[args["trace_id"]]:
            raise ObservabilityError(
                f"span {args['span_id']} of trace {args['trace_id']} "
                f"references missing parent {parent}"
            )
    return len(complete)


# ----------------------------------------------------------------------
# Critical-path analysis


@dataclass(frozen=True)
class PhaseSlice:
    """One segment of a query's blocking chain."""

    phase: str
    start_s: float
    end_s: float
    detail: str = ""

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


@dataclass(frozen=True)
class CriticalPath:
    """A query's end-to-end latency, tiled into blocking segments.

    The slices partition ``[submit, complete]`` with no gaps and no
    overlap, so ``sum(slice durations) == total_s`` exactly (up to
    float associativity) — the invariant the acceptance tests check.
    """

    trace_id: str
    slices: tuple[PhaseSlice, ...]

    @property
    def total_s(self) -> float:
        if not self.slices:
            return 0.0
        return self.slices[-1].end_s - self.slices[0].start_s

    def by_phase(self) -> dict[str, float]:
        """Seconds attributed to each phase (every phase listed)."""
        totals = {phase: 0.0 for phase in PHASES}
        for piece in self.slices:
            totals[piece.phase] = totals.get(piece.phase, 0.0) + piece.duration_s
        return totals

    def dominant_phase(self) -> str:
        totals = self.by_phase()
        return max(PHASES, key=lambda phase: (totals.get(phase, 0.0),))


_EPS = 1e-9


def _chain_ops(op_spans: list[Span]) -> list[Span]:
    """The blocking chain through the engine's op spans, latest first.

    An op span runs ``[queued, finished]`` with ``started`` in its
    attributes.  Under the discrete-event clock an op becomes ready at
    the instant its last input finished, so the predecessor of a chain
    op is exactly the op whose ``finished`` equals its ``queued``; ties
    resolve deterministically by (end, step).

    Each predecessor is found by bisecting the (end, step)-sorted spans
    not yet on the chain for those ending within a slack of twice
    ``_EPS`` of the current start, then taking the last of them that
    passes the exact test — the op a scan of every span would pick.  A
    span joins the chain at most once: it leaves the sorted lists when
    it does, so zero-duration ops sharing an instant cannot loop.
    """
    if not op_spans:
        return []
    ordered = sorted(
        op_spans,
        key=lambda s: (s.end_s, s.attributes.get("step", 0)),
    )
    ends = [span.end_s for span in ordered]
    chain = [ordered.pop()]
    ends.pop()
    while True:
        start = chain[-1].start_s
        low = bisect.bisect_left(ends, start - 2 * _EPS)
        high = bisect.bisect_right(ends, start + 2 * _EPS)
        for position in range(high - 1, low - 1, -1):
            span = ordered[position]
            if abs(span.end_s - start) <= _EPS and span.start_s <= start + _EPS:
                chain.append(span)
                del ordered[position], ends[position]
                break
        else:
            return chain


def _merge_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + _EPS:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _op_slices(op: Span, children: list[Span]) -> list[PhaseSlice]:
    """Tile one chain op's ``[queued, finished]`` window into phases.

    ``[queued, started]`` is engine-side source wait; inside
    ``[started, finished]`` time covered by an attempt is wire time,
    time covered by a scheduled backoff is backoff, and anything else
    (e.g. parked on a confirmation) is wait.  Local (merge) ops are
    instantaneous and classify as ``merge``.
    """
    detail = str(op.attributes.get("source", "") or op.name)
    started = float(op.attributes.get("started", op.start_s))
    if not op.attributes.get("remote", True):
        return [PhaseSlice("merge", op.start_s, op.end_s, detail=op.name)]
    slices: list[PhaseSlice] = []
    if started > op.start_s + _EPS:
        slices.append(
            PhaseSlice("exec.wait", op.start_s, started, detail=detail)
        )
    wire = _merge_intervals(
        [
            (max(started, child.start_s), min(op.end_s, child.end_s))
            for child in children
            if child.name == "attempt" and child.end_s > started
        ]
    )
    backoff = _merge_intervals(
        [
            (max(started, child.start_s), min(op.end_s, child.end_s))
            for child in children
            if child.name == "backoff" and child.end_s > started
        ]
    )
    cursor = started
    points = sorted(
        {started, op.end_s}
        | {t for pair in wire for t in pair}
        | {t for pair in backoff for t in pair}
    )
    for left, right in zip(points, points[1:]):
        if right <= cursor + _EPS or right > op.end_s + _EPS:
            continue
        mid = (left + right) / 2.0
        if any(s - _EPS <= mid <= e + _EPS for s, e in wire):
            phase = "exec.wire"
        elif any(s - _EPS <= mid <= e + _EPS for s, e in backoff):
            phase = "exec.backoff"
        else:
            phase = "exec.wait"
        if slices and slices[-1].phase == phase and slices[-1].detail == detail:
            slices[-1] = PhaseSlice(phase, slices[-1].start_s, right, detail)
        else:
            slices.append(PhaseSlice(phase, left, right, detail))
        cursor = right
    if cursor < op.end_s - _EPS:
        slices.append(PhaseSlice("exec.wait", cursor, op.end_s, detail=detail))
    return slices


def analyze_trace(spans: Iterable[Span]) -> CriticalPath | None:
    """Walk one trace's blocking chain into a :class:`CriticalPath`.

    Returns ``None`` when the trace has no root span (nothing to
    attribute).  The serving-tier spans tile ``[submit, dispatch]`` by
    construction; inside ``execute`` the chain of op spans is walked
    back from the last-finishing operation, each link split into
    wait/wire/backoff segments.  Any unattributed remainder becomes an
    ``exec.wait`` slice, so the tiling — and the sum — is exact even
    for traces with unusual shapes.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    root = by_id.get(ROOT_SPAN_ID)
    if root is None or root.name != "query":
        return None
    slices: list[PhaseSlice] = []

    def serve_slice(span_id: int, phase: str) -> None:
        span = by_id.get(span_id)
        if span is not None and span.duration_s > _EPS:
            slices.append(PhaseSlice(phase, span.start_s, span.end_s))

    serve_slice(ADMISSION_SPAN_ID, "admission")
    serve_slice(QUEUE_SPAN_ID, "queue")
    serve_slice(PLAN_SPAN_ID, "plan")
    serve_slice(POOL_SPAN_ID, "pool")
    execute = by_id.get(EXECUTE_SPAN_ID)
    if execute is not None and execute.duration_s > _EPS:
        op_spans = [
            span
            for span in spans
            if span.category == "execute" and span.name == "op"
        ]
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        exec_slices: list[PhaseSlice] = []
        for op in reversed(_chain_ops(op_spans)):
            exec_slices.extend(_op_slices(op, children.get(op.span_id, [])))
        # Tile gaps (chain not reaching the dispatch instant, or ops
        # finishing before the engine's final clock tick) as wait.
        tiled: list[PhaseSlice] = []
        cursor = execute.start_s
        for piece in exec_slices:
            if piece.start_s > cursor + _EPS:
                tiled.append(PhaseSlice("exec.wait", cursor, piece.start_s))
            clipped_start = max(piece.start_s, cursor)
            clipped_end = min(piece.end_s, execute.end_s)
            if clipped_end > clipped_start + _EPS or (
                piece.phase == "merge" and clipped_end >= clipped_start
            ):
                tiled.append(
                    PhaseSlice(
                        piece.phase, clipped_start, clipped_end, piece.detail
                    )
                )
                cursor = clipped_end
        if cursor < execute.end_s - _EPS:
            tiled.append(PhaseSlice("exec.wait", cursor, execute.end_s))
        slices.extend(tiled)
    serve_slice(MERGE_SPAN_ID, "merge")
    # Exact tiling of [submit, complete]: clamp boundaries so adjacent
    # slices always touch — rounding never creates gaps or overlaps.
    tiled: list[PhaseSlice] = []
    cursor = root.start_s
    for piece in slices:
        start = cursor
        end = max(start, min(piece.end_s, root.end_s))
        tiled.append(PhaseSlice(piece.phase, start, end, piece.detail))
        cursor = end
    if cursor < root.end_s - _EPS or not tiled:
        tiled.append(PhaseSlice("exec.wait", cursor, root.end_s))
    else:
        last = tiled[-1]
        tiled[-1] = PhaseSlice(last.phase, last.start_s, root.end_s, last.detail)
    return CriticalPath(trace_id=root.trace_id, slices=tuple(tiled))


def analyze_log(log: SpanLog) -> dict[str, CriticalPath]:
    """Critical paths for every trace in the log, in trace order."""
    spans_by_trace: dict[str, list[Span]] = {}
    for span in log.spans:
        spans_by_trace.setdefault(span.trace_id, []).append(span)
    out: dict[str, CriticalPath] = {}
    for trace_id in log.trace_ids():
        path = analyze_trace(spans_by_trace.get(trace_id, []))
        if path is not None:
            out[trace_id] = path
    return out


def top_contributors(
    paths: Iterable[CriticalPath], limit: int = 5
) -> list[tuple[str, float]]:
    """The heaviest (phase, detail) contributors across many queries.

    Aggregates blocked seconds by ``phase[@detail]`` label and returns
    the ``limit`` largest — the "where did the p99 go" table of the
    workload report.
    """
    totals: dict[str, float] = {}
    for path in paths:
        for piece in path.slices:
            label = piece.phase
            if piece.detail:
                label = f"{piece.phase}@{piece.detail}"
            totals[label] = totals.get(label, 0.0) + piece.duration_s
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return [(label, total) for label, total in ranked[:limit] if total > 0.0]
