"""The event sink the execution layers report into.

A :class:`Recorder` owns an event log and (optionally) a metrics
registry.  The engine, the sequential executor, the re-planner and the
serving tier build each event as its typed record
(:data:`~repro.obs.events.EVENT_CLASSES`), stamped with this recorder's
clock (``clock_offset_s`` + their own clock) and, where the type has
one, its re-plan ``round``, and hand it to :meth:`Recorder.record`.  The
record's constructor is the schema check (a misspelt field or a wrongly
typed value raises at the call, not at export); :meth:`Recorder.record`
appends that same object to the log and, with a registry attached, to
the registry's pending list — one schema check and two appends per
event, no dict and no second check.  :meth:`Recorder.emit` is the
keyword form of the same thing for callers that name fields: it stamps
the clock and the round, checks the field set, and builds the same
record.  Nothing else is recorded: metrics and runtime traces are
folds of the event stream (:func:`repro.obs.fold.fold_event`,
:meth:`repro.runtime.trace.RuntimeTrace.from_events`), and spans,
profiles and mined statistics read the traces.  The metric fold runs
when the registry is next read (:class:`~repro.obs.metrics.MetricsRegistry`)
and exports what folding each event as it landed would have.  The fold
is not cheaper for it: whoever reads the metrics pays it, per pending
event, at the read.

A recorder is shared across re-plan rounds: the resilient executor bumps
``round`` and ``clock_offset_s`` between rounds, so event timestamps
stay monotone across a whole resilient run even though each engine round
restarts its clock at zero.

With ``Recorder()`` both a metrics registry and an event log are
created; pass ``metrics=None`` to keep events only (the event log is
always on — everything else is derived from it).  The execution layers
accept ``recorder=None`` (their default) and then export nothing.  The
runtime engine keeps its records either way, since its trace is their
fold (without a recorder they carry round 0 and the engine clock); a
recorder is handed those same objects, so attaching one changes no
answer and no trace.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import (
    ROUND_STAMPED,
    BreakerEvent,
    Event,
    EventLog,
    QuarantineEvent,
    event_from_fields,
)
from repro.obs.metrics import MetricsRegistry

_UNSET = object()


class Recorder:
    """Collects events (and queues them for the metric fold) from one
    mediator's executions."""

    def __init__(
        self,
        metrics: MetricsRegistry | None | object = _UNSET,
        events: EventLog | None = None,
    ):
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if metrics is _UNSET else metrics  # type: ignore[assignment]
        )
        self.events: EventLog = EventLog() if events is None else events
        #: Current re-plan round (0 = initial plan), set by the caller.
        self.round = 0
        #: Added to every timestamp — keeps event time monotone across
        #: re-plan rounds whose engine clocks each restart at zero.
        self.clock_offset_s = 0.0
        #: The record list of the engine run in flight on this recorder
        #: (``None`` between runs): a breaker or quarantine transition
        #: observed during a run is one of its records too.
        self.run_records: list[Event] | None = None

    def record(self, event: Event) -> None:
        """Append one typed event, checked by its constructor and on
        this recorder's clock, to the log and the registry's pending list."""
        self.events.events.append(event)
        if self.metrics is not None:
            self.metrics.record(event)

    def emit(self, now_s: float, event_type: str, **fields: Any) -> None:
        """Record one event at engine-clock ``now_s`` from keyword fields;
        ``round`` is stamped here on every type whose schema declares it.

        Raises:
            ObservabilityError: unknown type, non-finite timestamp,
                missing / unexpected field or wrongly typed value —
                nothing is recorded then.
        """
        if event_type in ROUND_STAMPED:
            fields["round"] = self.round
        try:
            ts = float(self.clock_offset_s + now_s)
        except OverflowError:
            ts = now_s  # an int past the float range: refused below
        self.record(event_from_fields(ts, event_type, fields))

    # The two callbacks whose positional signature HealthRegistry
    # dictates (``observer`` / ``quality_observer``).

    def breaker_transition(
        self, now_s: float, source: str, old_state: str, new_state: str
    ) -> None:
        self._observed(
            BreakerEvent(self.clock_offset_s + now_s, source, old_state, new_state)
        )

    def quarantine_changed(
        self, now_s: float, source: str, action: str, score: float,
        answers: int,
    ) -> None:
        self._observed(
            QuarantineEvent(
                self.clock_offset_s + now_s, source, action, score, answers
            )
        )

    def _observed(self, event: Event) -> None:
        self.record(event)
        if self.run_records is not None:
            self.run_records.append(event)
