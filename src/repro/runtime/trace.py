"""Execution traces of the concurrent runtime, folded from its events.

An engine run's records are its events (:data:`repro.obs.events.EVENT_SCHEMA`):
one ``attempt`` per wire attempt, one ``op`` per operation, and its
send-sets, retries, hedges, tainted answers and health transitions.
:meth:`RuntimeTrace.from_events` is their one fold, live or from a
persisted JSONL log alike: an :class:`OpSpan` per operation — queued/
started/finished timestamps on the virtual clock plus one
:class:`AttemptSpan` per wire attempt (so retries and their backoff
gaps are visible) — and the records in stream order, which
:func:`repro.obs.spans.execute_spans` renders as a span tree;
:meth:`RuntimeTrace.runs` folds a log of many runs into one trace
each.  A :class:`RuntimeTrace` aggregates the spans into
per-source utilization and renders a fixed-width ASCII timeline in the
same spirit as :func:`repro.plans.viz.schedule_gantt` and the
:mod:`repro.bench.report` tables: plain text that diffs cleanly and
pastes into reports unchanged.

Timeline legend: ``#`` successful attempt, ``x`` failed attempt,
``c`` cancelled hedge attempt, ``.`` waiting (queued, blocked on
inputs, or backing off).

With hedged dispatch an operation's attempts may run on *different*
sources (the primary and a replica racing); each :class:`AttemptSpan`
therefore carries the source it actually ran on, and utilization is
accounted per serving source, not per planned source.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Sequence

from repro.errors import ObservabilityError
from repro.obs.events import ROUND_STAMPED
from repro.plans.operations import Operation, condition_sql
from repro.runtime.faults import AttemptFate


class OpStatus(enum.Enum):
    """Terminal state of one operation under the runtime."""

    OK = "ok"
    DEGRADED = "degraded"  # retry budget exhausted; empty result substituted
    RECOVERED = "recovered"  # served by a replica after the planned source failed
    DEADLINE = "deadline"  # query budget expired; empty result substituted


class AttemptSpan(NamedTuple):
    """One wire attempt of a remote operation."""

    attempt: int  # 1-based
    start_s: float
    end_s: float
    fate: AttemptFate
    cost: float
    items_sent: int
    items_received: int
    rows_loaded: int
    messages: int
    #: The source this attempt actually ran on.  Empty means "the
    #: operation's planned source" (pre-hedging traces).
    source: str = ""
    #: True for speculative duplicates launched by hedged dispatch.
    hedge: bool = False
    #: True for cross-replica confirmation fetches launched by the
    #: answer verifier's ``vote`` mode.
    confirm: bool = False

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class OpSpan(NamedTuple):
    """One operation's full history on the virtual clock."""

    step: int  # 1-based plan position
    operation: Operation
    queued_s: float  # inputs ready; waiting for the source connection
    started_s: float  # first attempt began
    finished_s: float  # value produced (or degradation decided)
    attempts: tuple[AttemptSpan, ...]
    status: OpStatus
    output_size: int

    @property
    def source(self) -> str:
        return getattr(self.operation, "source", "")

    @property
    def condition(self) -> str:
        """The operation's condition as SQL (``""`` when it has none)."""
        return condition_sql(self.operation)

    @property
    def retries(self) -> int:
        """Primary-path re-attempts.

        Hedge duplicates and verification confirm-fetches are extra
        reads of the same answer, not retries of a failed one.
        """
        return max(
            0,
            sum(1 for a in self.attempts if not a.hedge and not a.confirm)
            - 1,
        )

    @property
    def busy_s(self) -> float:
        """Time the source connection was actually occupied (no backoff)."""
        return sum(span.duration_s for span in self.attempts)

    @property
    def cost(self) -> float:
        return sum(span.cost for span in self.attempts)

    @property
    def messages(self) -> int:
        return sum(span.messages for span in self.attempts)

    @property
    def served_by(self) -> str:
        """The source whose attempt produced the value (last attempt)."""
        for span in reversed(self.attempts):
            if span.fate is AttemptFate.OK:
                return span.source or self.source
        return self.source

    @property
    def hedged(self) -> bool:
        """True when a speculative duplicate attempt was launched."""
        return any(span.hedge for span in self.attempts)


@dataclass(frozen=True)
class RuntimeTrace:
    """The observable record of one concurrent plan execution, built by
    :meth:`from_events` from a live run's records or a persisted log."""

    spans: tuple[OpSpan, ...]
    makespan_s: float
    #: The round's records in stream order as ``(type, step, entry)``:
    #: entry the :class:`OpSpan` of an ``op``, the :class:`AttemptSpan`
    #: of an ``attempt``, else the record itself; step ``0`` for a
    #: ``breaker`` / ``quarantine`` transition.
    stream: tuple[tuple[str, int, Any], ...] = field(default=(), repr=False, compare=False)

    @staticmethod
    def from_events(
        events: Iterable[Any],
        round_no: int | None = None,
        operations: Sequence[Operation] | None = None,
    ) -> "RuntimeTrace":
        """Fold one round's records into a trace.

        ``events`` are typed events (:mod:`repro.obs.events`): an
        :class:`~repro.obs.events.EventLog`, or an engine run's own
        records.  ``round_no`` ``None`` folds the highest round with an
        ``op`` record, the one whose plan completed; in a log without
        one (a run that raised early), the highest round, without op
        spans.  With the plan's ``operations`` each span carries its real
        :class:`Operation`; without them (a log read back from disk) a
        stand-in built from the ``op`` record.  The makespan is the last
        ``finished``, which ``run_end`` repeats.  A record without a
        round belongs to the one before it; after a ``run_end``, to no
        run until a record names its round (the serving-tier tail of a
        :meth:`runs` chunk is not the run's).

        Raises:
            ObservabilityError: no record for the selected round.
        """
        # One pass: each round's op spans and stream, and attempt spans by
        # (round, step); an op's attempts all precede its ``op`` record.
        # When each step's first answer arrived is kept too: the schema
        # carries no ``confirm`` flag, but an answered step sends nothing
        # further on its primary path, so a non-hedge attempt that starts
        # once the answer is in hand can only be a ``vote`` confirmation.
        ops_of: dict[int, list[OpSpan]] = {}
        attempts: dict[tuple[int, int], list[AttemptSpan]] = {}
        answered_s: dict[tuple[int, int], float] = {}
        streams: dict[int, list[tuple[str, int, Any]]] = {}
        current = 0
        stream: list[tuple[str, int, Any]] | None = streams.setdefault(0, [])
        for event in events:
            kind = event.type
            if kind in ROUND_STAMPED:
                if kind == "run_end":
                    stream = None
                elif event.round != current or stream is None:
                    current = event.round
                    stream = streams.setdefault(current, [])
            if stream is None:
                continue
            if kind == "op":
                step = event.step
                span = _span(
                    OpSpan,
                    (
                        step,
                        operations[step - 1]
                        if operations is not None
                        else _ReplayOperation(
                            _ReplayKind(event.op),
                            event.target,
                            event.source,
                            event.remote,
                            _ReplayCondition(event.condition),
                        ),
                        event.queued,
                        event.started,
                        event.finished,
                        tuple(attempts.get((current, step), ())),
                        _STATUSES[event.status],
                        event.output,
                    ),
                )
                ops_of.setdefault(current, []).append(span)
                stream.append((kind, step, span))
            elif kind == "attempt":
                key = (current, event.step)
                fate = _FATES[event.fate]
                start = event.start
                hedge = event.hedge
                span = _span(
                    AttemptSpan,
                    (
                        event.attempt,
                        start,
                        event.end,
                        fate,
                        event.cost,
                        event.items_sent,
                        event.items_received,
                        event.rows_loaded,
                        event.messages,
                        event.source,
                        hedge,
                        not hedge and start >= answered_s.get(key, math.inf),
                    ),
                )
                attempts.setdefault(key, []).append(span)
                stream.append((kind, key[1], span))
                if fate is AttemptFate.OK:
                    answered_s.setdefault(key, event.end)
            elif kind in _KEPT:
                stream.append((kind, getattr(event, "step", 0), event))
        if round_no is None:
            round_no = max(ops_of) if ops_of else max(streams)
        records = streams.get(round_no)
        if not records:
            raise ObservabilityError(
                f"no 'op' events for round {round_no} — was the run recorded?"
            )
        spans = sorted(ops_of.get(round_no, ()), key=_STEP)
        makespan = max(map(_FINISHED, spans), default=0.0)
        return RuntimeTrace(tuple(spans), makespan, tuple(records))

    @staticmethod
    def runs(events: Iterable[Any]) -> list["RuntimeTrace"]:
        """Fold a log of many runs: one trace per run, in log order.

        The log is split at each ``run_start``, so every engine run and
        every re-plan round is its own trace, one that raised before any
        operation finished included (its attempts and retries, no op
        span).  What precedes the first ``run_start`` is a run only when
        it holds an ``op`` record (a log without ``run_start`` is one
        run); a run with no record to fold gives no trace.
        """
        chunks: list[list[Any]] = [[]]
        for event in events:
            if event.type == "run_start":
                chunks.append([])
            chunks[-1].append(event)
        if not any(event.type == "op" for event in chunks[0]):
            del chunks[0]
        return [
            RuntimeTrace.from_events(chunk)
            for chunk in chunks
            if any(event.type in _FOLDED for event in chunk)
        ]

    @property
    def remote_spans(self) -> tuple[OpSpan, ...]:
        return tuple(s for s in self.spans if s.operation.remote)

    @functools.cached_property
    def _tally(self) -> _Tally:
        """The run's step lists and totals, in one pass over the spans
        (a trace never changes).  A span without attempts adds nothing:
        its retries and cost are ``0``."""
        degraded: list[int] = []
        deadline: list[int] = []
        recovered: list[int] = []
        retries = hedges = 0
        cost = 0
        for span in self.spans:
            status = span.status
            if status is OpStatus.DEGRADED:
                degraded.append(span.step)
            elif status is OpStatus.DEADLINE:
                deadline.append(span.step)
            elif status is OpStatus.RECOVERED:
                recovered.append(span.step)
            if span.attempts:
                retries += span.retries
                cost += span.cost
                hedges += sum(1 for a in span.attempts if a.hedge)
        return _Tally(
            tuple(degraded),
            tuple(deadline),
            tuple(recovered),
            retries,
            hedges,
            cost,
        )

    @property
    def degraded_steps(self) -> tuple[int, ...]:
        return self._tally.degraded

    @property
    def deadline_steps(self) -> tuple[int, ...]:
        """Steps cut short because the query's deadline budget expired."""
        return self._tally.deadline

    @property
    def recovered_steps(self) -> tuple[int, ...]:
        """Steps whose planned source failed but a replica served them."""
        return self._tally.recovered

    @property
    def incomplete_conditions(self) -> tuple[str, ...]:
        """What a partial answer is missing: one mark per condition (or
        load) whose operation was lost — to a spent retry budget or to
        the query deadline — in plan order; empty when nothing was."""
        if not (self.degraded_steps or self.deadline_steps):
            return ()
        incomplete: list[str] = []
        for span in self.spans:
            if span.status is OpStatus.DEGRADED or span.status is OpStatus.DEADLINE:
                mark = span.condition or f"load {span.source}"
                if mark not in incomplete:
                    incomplete.append(mark)
        return tuple(incomplete)

    @property
    def hedge_attempts(self) -> int:
        """Speculative duplicate attempts launched across all steps."""
        return self._tally.hedges

    @property
    def total_retries(self) -> int:
        return self._tally.retries

    @property
    def total_cost(self) -> float:
        return self._tally.cost

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.spans)

    def by_source(self) -> dict[str, list[OpSpan]]:
        grouped: dict[str, list[OpSpan]] = {}
        for span in self.remote_spans:
            grouped.setdefault(span.source, []).append(span)
        return grouped

    def busy_by_serving_source(self) -> dict[str, float]:
        """Connection-busy seconds per source that actually served attempts.

        Unlike :meth:`by_source` (which groups by the *planned* source),
        hedge attempts are charged to the replica they ran on.
        """
        busy: dict[str, float] = {}
        for span in self.remote_spans:
            for attempt in span.attempts:
                name = attempt.source or span.source
                busy[name] = busy.get(name, 0.0) + attempt.duration_s
        return busy

    def per_source_utilization(self) -> dict[str, float]:
        """Fraction of the makespan each source connection was busy."""
        busy = self.busy_by_serving_source()
        if self.makespan_s <= 0:
            return {name: 0.0 for name in busy}
        return {
            name: seconds / self.makespan_s for name, seconds in busy.items()
        }

    # ------------------------------------------------------------------
    # Rendering

    def timeline(self, width: int = 60) -> str:
        """ASCII timeline of remote operations, retries visible.

        One row per remote operation; ``#`` marks time inside a
        successful attempt, ``x`` inside a failed one, ``c`` inside a
        cancelled hedge duplicate, ``.`` waiting.
        """
        remote = self.remote_spans
        if not remote:
            return "(no remote operations)"
        makespan = self.makespan_s or 1.0

        def column(t: float) -> int:
            return min(width, max(0, int(round(t / makespan * width))))

        label_width = max(len(self._label(span)) for span in remote)
        lines = []
        for span in remote:
            cells = ["."] * width
            for attempt in span.attempts:
                start = column(attempt.start_s)
                end = max(start + 1, column(attempt.end_s))
                if attempt.fate is AttemptFate.CANCELLED:
                    mark = "c"
                elif attempt.fate.failed:
                    mark = "x"
                else:
                    mark = "#"
                for i in range(start, min(end, width)):
                    cells[i] = mark
            if span.status is OpStatus.DEGRADED:
                note = " DEGRADED"
            elif span.status is OpStatus.DEADLINE:
                note = " DEADLINE"
            elif span.status is OpStatus.RECOVERED:
                note = f" RECOVERED<-{span.served_by}"
            else:
                note = ""
            lines.append(
                f"{self._label(span).ljust(label_width)} "
                f"|{''.join(cells)}|{note}"
            )
        lines.append(
            f"{'makespan'.ljust(label_width)}  {self.makespan_s:.3f}s, "
            f"{self.total_retries} retries, "
            f"{len(self.degraded_steps) + len(self.deadline_steps)} degraded"
        )
        return "\n".join(lines)

    def utilization_report(self) -> str:
        """Per-source busy time / utilization, fixed width.

        Rows are serving sources: a replica that only ever served hedge
        or rerouted attempts gets its own row; a planned source that
        never actually served (fully rerouted) still shows with zero
        busy time.
        """
        busy = self.busy_by_serving_source()
        utilization = self.per_source_utilization()
        attempts: dict[str, list[AttemptSpan]] = {}
        for span in self.remote_spans:
            attempts.setdefault(span.source, [])
            for attempt in span.attempts:
                name = attempt.source or span.source
                attempts.setdefault(name, []).append(attempt)
        lines = ["source   busy s     util  attempts  hedges"]
        for name in sorted(attempts):
            served = attempts[name]
            hedges = sum(1 for a in served if a.hedge)
            lines.append(
                f"{name:<8} {busy.get(name, 0.0):>7.3f} "
                f"{utilization.get(name, 0.0):>7.1%} "
                f"{len(served):>8} {hedges:>7}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        text = (
            f"makespan {self.makespan_s:.3f}s, "
            f"{len(self.remote_spans)} remote ops, "
            f"{self.total_retries} retries, "
            f"{len(self.degraded_steps)} degraded, "
            f"cost {self.total_cost:.1f}"
        )
        if self.deadline_steps:
            text += f", {len(self.deadline_steps)} cut at deadline"
        if self.recovered_steps or self.hedge_attempts:
            text += (
                f", {len(self.recovered_steps)} recovered, "
                f"{self.hedge_attempts} hedges"
            )
        return text

    @staticmethod
    def _label(span: OpSpan) -> str:
        op = span.operation
        return f"{span.step:>3}) {span.source:<6} {op.kind.value}->{op.target}"


class _Tally(NamedTuple):
    """What :attr:`RuntimeTrace._tally` counts."""

    degraded: tuple[int, ...]
    deadline: tuple[int, ...]
    recovered: tuple[int, ...]
    retries: int
    hedges: int
    cost: float


#: The record types a trace keeps as they are.
_KEPT = frozenset(("sendset", "retry", "hedge", "quality", "breaker", "quarantine"))
#: Every record type a trace is folded from.
_FOLDED = _KEPT | {"op", "attempt"}
_FATES = {fate.value: fate for fate in AttemptFate}
_STATUSES = {status.value: status for status in OpStatus}
_STEP = operator.attrgetter("step")
_FINISHED = operator.attrgetter("finished_s")
#: Builds a span from its fields in declaration order, without the
#: Python-level ``__new__`` a ``NamedTuple`` class generates.
_span = tuple.__new__


@dataclass(frozen=True)
class _ReplayKind:
    value: str


@dataclass(frozen=True)
class _ReplayCondition:
    sql: str


@dataclass(frozen=True)
class _ReplayOperation:
    """Just enough of a plan operation for trace rendering."""

    kind: _ReplayKind
    target: str
    source: str
    remote: bool
    condition: _ReplayCondition

    def render(self, labels=None) -> str:
        text = f"{self.kind.value} -> {self.target}"
        if self.source:
            text += f" @ {self.source}"
        if self.condition.sql:
            text += f" [{self.condition.sql}]"
        return text
