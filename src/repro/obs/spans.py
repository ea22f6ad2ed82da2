"""Causal span trees: per-query traces, Chrome export, critical paths.

Every query served by :class:`~repro.serve.service.MediatorService` gets
a deterministic ``trace_id`` — :func:`derive_trace_id` mixes the workload
seed with the submission sequence number, so a deterministic-mode run
replays its whole span forest byte-identically — and a hierarchical
span tree that renders what the service already knows, built by two
pure functions:

* :func:`serve_spans` — the serving-tier skeleton from the ticket's
  phase boundaries: ``admission``, ``queue``, ``plan`` (plan-cache
  hit/miss and search strategy as attributes), ``pool`` acquisition,
  ``execute``, and the final ``merge``;
* :func:`execute_spans` — the children of ``execute``, rendered from
  the query's :class:`~repro.runtime.trace.RuntimeTrace`, the one fold
  of its run's records: one ``op`` span per plan operation (queued →
  finished) with ``attempt`` / ``sendset`` / ``backoff`` / ``hedge`` /
  ``verify`` children, plus ``breaker`` and ``quarantine`` transition
  markers.  A span exists iff a record of the run exists, so the same
  subtree can be rebuilt from a persisted JSONL log
  (:meth:`~repro.runtime.trace.RuntimeTrace.runs`).

A :class:`Span` is an immutable slotted record whose constructor refuses
a span that ends before it starts.  :func:`execute_spans` also returns
the grouping it built on the way: the op spans and each op's children.

The :class:`SpanLog` is the storage: thread-safe, append-only, exported
as Chrome trace-event JSON (:meth:`SpanLog.to_chrome_json`, loadable in
Perfetto — each query is one track).  :func:`critical_path` is the one
critical-path core: it tiles a query's end-to-end latency into
:class:`PhaseSlice` records whose durations sum *exactly* to the
measured latency — the property CI asserts.  The service feeds it at
completion from the serve skeleton and the rendering's grouping, and
:meth:`CriticalPath.by_phase` folds that one tiling into the ticket's
phases and the service's running ``phase[@detail]`` totals: the workload
report ranks those with :func:`top_contributors` and tiles no trace
again.  :func:`analyze_trace` feeds the core from persisted spans,
grouped in one pass (:func:`analyze_log` for a whole exported log).
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import ObservabilityError

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


class _SpanFields(NamedTuple):
    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_s: float
    end_s: float
    attributes: Mapping[str, Any]


class Span(_SpanFields):
    """One node of a query's span tree: an immutable slotted record.

    Times are service-timeline seconds (virtual clock in deterministic
    mode, seconds since service start under threads).  ``parent_id`` is
    ``None`` only for the root ``query`` span.  The constructor refuses
    a span that ends before it starts; ``attributes`` defaults to a
    fresh dict per span.
    """

    __slots__ = ()

    def __new__(
        cls,
        trace_id: str,
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        attributes: Mapping[str, Any] | None = None,
    ) -> "Span":
        if end_s < start_s - 1e-9:
            raise ObservabilityError(
                f"span {name!r} ends ({end_s}) before it starts ({start_s})"
            )
        return tuple.__new__(
            cls,
            (
                trace_id, span_id, parent_id, name, category, start_s, end_s,
                {} if attributes is None else attributes,
            ),
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
        """Append one trace's batch atomically (no other thread's spans
        between).  Every span of a batch belongs to the trace of its
        first: the service hands over a trace's engine subtree or its
        serve skeleton, never a mix of traces."""
        batch = list(spans)
        if not batch:
            return
        with self._lock:
            self._by_trace.setdefault(batch[0].trace_id, []).extend(batch)
            self._spans.extend(batch)

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
# Span construction: renderings of runtime traces and ticket timestamps


#: Record type -> the name of its span and the record fields it copies.
#: Records carrying a ``step`` parent under that op, the rest (health
#: transitions) directly under ``execute``.
_MARKERS = {
    "sendset": ("sendset", ("source", "size")),
    "retry": ("backoff", ("source", "retries")),
    "hedge": ("hedge", ("primary", "target", "trigger")),
    "quality": ("verify", ("source", "kept")),
    "breaker": ("breaker", ("source", "from", "to")),
    "quarantine": ("quarantine", ("source", "action")),
}


def execute_spans(
    trace_id: str, traces: Iterable[Any], offset_s: float
) -> tuple[list[Span], list[tuple[int, Span]], dict[int, list[Span]]]:
    """The ``execute`` subtree of one query, rendered from its run's
    :class:`~repro.runtime.trace.RuntimeTrace` records (one per round,
    in order).

    ``offset_s`` is the service-timeline instant the run's clock started
    at (a record's ``ts`` already carries it; the trace's engine-local
    times do not).  Each record of a trace's ``stream`` is one span, ids
    handed out in stream order from :data:`FIRST_ENGINE_SPAN_ID`: an
    ``op`` span per operation (queued → finished) with ``attempt`` /
    ``sendset`` / ``backoff`` / ``hedge`` / ``verify`` children, plus
    ``breaker`` and ``quarantine`` markers.  An op's id is reserved by
    the first record of its step, because attempts, send-sets and
    retries arrive before the ``op`` record that closes their parent.
    The one span without a record: an op a raising run left open is
    closed here, ``status="aborted"``, over its children.

    Returns the spans, the op spans as ``(step, span)`` (both in append
    order) and op span id -> the spans under it: what
    :func:`critical_path` reads.
    """
    spans: list[Span] = []
    ops: list[tuple[int, Span]] = []
    children: dict[int, list[Span]] = {}
    next_id = FIRST_ENGINE_SPAN_ID
    for trace in traces:
        op_ids: dict[int, int] = {}
        for kind, step, entry in trace.stream:
            op_id = EXECUTE_SPAN_ID
            if step:
                op_id = op_ids.get(step)
                if op_id is None:
                    op_id = op_ids[step] = next_id
                    next_id += 1
            # ``_value_`` is the value an enum member stores; ``.value``
            # reads it through a Python-level descriptor (a replayed op's
            # kind is a stand-in with ``value`` only).
            if kind == "op":
                operation = entry.operation
                span = Span(
                    trace_id, op_id, EXECUTE_SPAN_ID, "op", "execute",
                    offset_s + entry.queued_s, offset_s + entry.finished_s,
                    {
                        "step": step, "op": operation.kind.value, "source": entry.source,
                        "remote": operation.remote, "status": entry.status._value_,
                        "output": entry.output_size, "started": offset_s + entry.started_s,
                    },
                )
                ops.append((step, span))
            else:
                if kind == "attempt":
                    name = kind
                    start_s = offset_s + entry.start_s
                    end_s = offset_s + entry.end_s
                    attributes = {
                        "attempt": entry.attempt, "source": entry.source,
                        "fate": entry.fate._value_, "hedge": entry.hedge, "cost": entry.cost,
                    }
                else:
                    name, copied = _MARKERS[kind]
                    start_s = end_s = entry.ts
                    attributes = {key: entry[key] for key in copied}
                    if kind == "retry":
                        # The backoff window is blocked time on the op's
                        # critical path; the analyzer classifies it apart
                        # from wire time.
                        end_s = offset_s + entry.at
                    elif kind == "quality":
                        # Only a tainted answer has a record, hence a marker.
                        attributes["outcome"] = "tainted"
                        attributes["dropped"] = entry.delivered - entry.kept
                span = Span(trace_id, next_id, op_id, name, "execute", start_s, end_s, attributes)
                next_id += 1
                if step:
                    children.setdefault(op_id, []).append(span)
            spans.append(span)
        # A run that raised recorded no ``op`` for what it was still
        # working on; close each such op over its children, or the
        # failed trace — the one most worth opening — is not a tree.
        closed = {op.step for op in trace.spans}
        for step, op_id in op_ids.items():
            if step not in closed:
                below = children[op_id]
                start_s = min(child.start_s for child in below)
                end_s = max(child.end_s for child in below)
                aborted = {"step": step, "status": "aborted"}
                span = Span(
                    trace_id, op_id, EXECUTE_SPAN_ID, "op", "execute", start_s, end_s, aborted
                )
                ops.append((step, span))
                spans.append(span)
    return spans, ops, children


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


class PhaseSlice(NamedTuple):
    """One segment of a query's blocking chain: an immutable slotted
    record, built only by the critical-path core below."""

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

    def by_phase(self, blocked_s: dict[str, float] | None = None) -> dict[str, float]:
        """Seconds attributed to each phase (every phase listed).

        With ``blocked_s``, the same pass also adds each slice's seconds
        to ``blocked_s`` under its ``phase[@detail]`` label: the running
        total that :func:`top_contributors` ranks.
        """
        totals = dict.fromkeys(PHASES, 0.0)
        for phase, start_s, end_s, detail in self.slices:
            duration = end_s - start_s
            if duration <= 0.0:
                duration = 0.0
            totals[phase] = totals.get(phase, 0.0) + duration
            if blocked_s is not None:
                label = f"{phase}@{detail}" if detail else phase
                blocked_s[label] = blocked_s.get(label, 0.0) + duration
        return totals

    def dominant_phase(self) -> str:
        totals = self.by_phase()
        return max(PHASES, key=lambda phase: (totals.get(phase, 0.0),))


_EPS = 1e-9
#: Builds a record from its fields in declaration order, without the
#: Python-level ``__new__`` a ``NamedTuple`` class generates.
_record = tuple.__new__


def _chain_ops(ops: Sequence[tuple[int, Span]]) -> list[Span]:
    """The blocking chain through the engine's op spans, latest first.

    ``ops`` are ``(step, span)`` pairs.  An op span runs ``[queued,
    finished]`` with ``started`` in its attributes.  Under the
    discrete-event clock an op becomes ready at the instant its last
    input finished, so the predecessor of a chain op is exactly the op
    whose ``finished`` equals its ``queued``; ties resolve
    deterministically by (end, step), then by position in ``ops``.

    Each predecessor is found by bisecting the (end, step)-sorted spans
    not yet on the chain for those ending within a slack of twice
    ``_EPS`` of the current start, then taking the last of them that
    passes the exact test — the op a scan of every span would pick.  A
    span joins the chain at most once: it leaves the sorted lists when
    it does, so zero-duration ops sharing an instant cannot loop.
    """
    if not ops:
        return []
    # Plain tuples sort without a key call; the position breaks (end,
    # step) ties as a stable sort would, before the span is compared.
    rows = sorted([(span.end_s, step, i, span) for i, (step, span) in enumerate(ops)])
    ordered = [row[3] for row in rows]
    ends = [row[0] for row in rows]
    chain = [ordered.pop()]
    ends.pop()
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    eps = _EPS
    start = chain[0].start_s
    while True:
        position = bisect_right(ends, start + 2 * eps)
        low = bisect_left(ends, start - 2 * eps, 0, position)
        while position > low:
            position -= 1
            span = ordered[position]
            if abs(span.end_s - start) <= eps and span.start_s <= start + eps:
                chain.append(span)
                del ordered[position], ends[position]
                start = span.start_s
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


def _op_slices(
    op: Span, children: Iterable[Span]
) -> list[tuple[str, float, float, str]]:
    """Tile one remote chain op's ``[queued, finished]`` window into
    phases, as ``(phase, start, end, detail)`` rows.

    ``[queued, started]`` is engine-side source wait; inside
    ``[started, finished]`` time covered by an attempt is wire time,
    time covered by a scheduled backoff is backoff, and anything else
    (e.g. parked on a confirmation) is wait.

    One sweep: the attempt and backoff windows, clipped to ``[started,
    finished]`` and merged, are walked in time order.  Each piece
    between consecutive window edges is wire if its midpoint lies within
    ``_EPS`` of an attempt window, else backoff if within ``_EPS`` of a
    backoff window, else wait; a piece ending within ``_EPS`` of the
    last one kept is dropped, and same-phase neighbours coalesce.  A
    child that starts after its op finished (the engine emits none) has
    no window.
    """
    attributes = op.attributes
    start_s, end_s = op.start_s, op.end_s
    detail = str(attributes.get("source", "") or op.name)
    started = float(attributes.get("started", start_s))
    wire: list[tuple[float, float]] = []
    backoff: list[tuple[float, float]] = []
    for child in children:
        name = child.name
        if name == "attempt":
            windows = wire
        elif name == "backoff":
            windows = backoff
        else:
            continue
        low = max(started, child.start_s)
        high = min(end_s, child.end_s)
        if child.end_s > started and low <= high:
            windows.append((low, high))
    wire = _merge_intervals(wire)
    backoff = _merge_intervals(backoff)
    rows: list[tuple[str, float, float, str]] = []
    if started > start_s + _EPS:
        rows.append(("exec.wait", start_s, started, detail))
    # Merged windows are sorted and end in increasing order, so each
    # list's edges are sorted (sorting the two runs merges them) and one
    # forward index per list finds the window near each midpoint.
    edges = sorted([t for window in wire + backoff for t in window])
    edges.append(end_s)
    in_wire = in_backoff = 0
    left = cursor = started
    for right in edges:
        if right <= left:
            continue  # an edge shared by two windows
        if right > cursor + _EPS:
            mid = (left + right) / 2.0
            while in_wire < len(wire) and wire[in_wire][1] + _EPS < mid:
                in_wire += 1
            while in_backoff < len(backoff) and backoff[in_backoff][1] + _EPS < mid:
                in_backoff += 1
            if in_wire < len(wire) and wire[in_wire][0] - _EPS <= mid:
                phase = "exec.wire"
            elif in_backoff < len(backoff) and backoff[in_backoff][0] - _EPS <= mid:
                phase = "exec.backoff"
            else:
                phase = "exec.wait"
            if rows and rows[-1][0] == phase:
                rows[-1] = (phase, rows[-1][1], right, detail)
            else:
                rows.append((phase, left, right, detail))
            cursor = right
        left = right
    return rows


def critical_path(
    fixed: Sequence[Span | None],
    ops: Sequence[tuple[int, Span]],
    children: Mapping[int, Sequence[Span]],
) -> CriticalPath:
    """Tile one trace's latency into a :class:`CriticalPath`: the one
    critical-path core, fed at completion from the serve skeleton and
    what :func:`execute_spans` rendered, and by :func:`analyze_trace`
    from persisted spans.

    ``fixed`` holds the serving-tier spans by id, ``ROOT_SPAN_ID``
    through ``MERGE_SPAN_ID`` (``None`` where a trace lacks one; the
    root must be present), ``ops`` the trace's op spans as ``(step,
    span)`` in append order and ``children`` op span id -> the spans
    under it.  The serving-tier spans tile ``[submit, dispatch]`` by
    construction; inside ``execute`` the chain of op spans is walked
    back from the last-finishing operation, each link split into
    wait/wire/backoff segments.  Any unattributed remainder becomes an
    ``exec.wait`` slice, so the tiling — and the sum — is exact even for
    traces with unusual shapes.
    """
    root, admission, queue, plan, pool, execute, merge = fixed
    # (phase, end, detail) in timeline order; the final tiling below
    # starts each slice where the previous one ended.
    pieces: list[tuple[str, float, str]] = []
    for span, phase in (
        (admission, "admission"),
        (queue, "queue"),
        (plan, "plan"),
        (pool, "pool"),
    ):
        if span is not None and span.end_s - span.start_s > _EPS:
            pieces.append((phase, span.end_s, ""))
    if execute is not None and execute.end_s - execute.start_s > _EPS:
        # Tile gaps (chain not reaching the dispatch instant, or ops
        # finishing before the engine's final clock tick) as wait.
        cursor, execute_end = execute.start_s, execute.end_s
        for op in reversed(_chain_ops(ops)):
            if op.attributes.get("remote", True):
                rows = _op_slices(op, children.get(op.span_id, ()))
            else:
                # A local op is instantaneous merge work.
                rows = (("merge", op.start_s, op.end_s, op.name),)
            for phase, start, end, detail in rows:
                if start > cursor + _EPS:
                    pieces.append(("exec.wait", start, ""))
                elif start < cursor:
                    start = cursor
                if end > execute_end:
                    end = execute_end
                if end > start + _EPS or (phase == "merge" and end >= start):
                    pieces.append((phase, end, detail))
                    cursor = end
        if cursor < execute_end - _EPS:
            pieces.append(("exec.wait", execute_end, ""))
    if merge is not None and merge.end_s - merge.start_s > _EPS:
        pieces.append(("merge", merge.end_s, ""))
    # Exact tiling of [submit, complete]: clamp boundaries so adjacent
    # slices always touch — rounding never creates gaps or overlaps.
    slices: list[PhaseSlice] = []
    cursor, root_end = root.start_s, root.end_s
    for phase, end, detail in pieces:
        if end > root_end:
            end = root_end
        if end < cursor:
            end = cursor
        slices.append(_record(PhaseSlice, (phase, cursor, end, detail)))
        cursor = end
    if cursor < root_end - _EPS or not slices:
        slices.append(_record(PhaseSlice, ("exec.wait", cursor, root_end, "")))
    else:
        phase, start, __, detail = slices[-1]
        slices[-1] = _record(PhaseSlice, (phase, start, root_end, detail))
    return CriticalPath(trace_id=root.trace_id, slices=tuple(slices))


def analyze_trace(spans: Iterable[Span]) -> CriticalPath | None:
    """The :func:`critical_path` of one trace's spans, e.g. read back
    from an exported trace.

    Groups the spans in one pass — the serving-tier spans by id, the op
    spans, each span under its parent — and hands the grouping to the
    core.  Returns ``None`` when the trace has no root span (nothing to
    attribute).
    """
    by_id: dict[int, Span] = {}
    ops: list[tuple[int, Span]] = []
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_id[span.span_id] = span
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
        if span.name == "op" and span.category == "execute":
            ops.append((span.attributes.get("step", 0), span))
    root = by_id.get(ROOT_SPAN_ID)
    if root is None or root.name != "query":
        return None
    fixed = [by_id.get(span_id) for span_id in range(ROOT_SPAN_ID, FIRST_ENGINE_SPAN_ID)]
    return critical_path(fixed, ops, children)


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
    blocked_s: Mapping[str, float], limit: int = 5
) -> list[tuple[str, float]]:
    """The heaviest (phase, detail) contributors across many queries.

    ``blocked_s`` maps ``phase[@detail]`` labels to blocked seconds, as
    :meth:`CriticalPath.by_phase` folds them; returns the ``limit``
    largest — the "where did the p99 go" table of the workload report.
    """
    ranked = sorted(blocked_s.items(), key=lambda item: (-item[1], item[0]))
    return [(label, total) for label, total in ranked[:limit] if total > 0.0]
