"""The event sink the execution layers report into.

A :class:`Recorder` owns an event log and (optionally) a metrics
registry and has one method, :meth:`Recorder.emit`: the engine, the
sequential executor, the re-planner and the serving tier name an event
type and its fields, the recorder puts the event on its clock and
validates it against :data:`~repro.obs.events.EVENT_SCHEMA` as it lands
(a misspelt field raises at the call, not at export).  Nothing else is
recorded: metrics, spans and runtime traces are folds of the event
stream (:func:`repro.obs.fold.fold_event`,
:func:`repro.obs.spans.engine_spans`,
:meth:`repro.runtime.trace.RuntimeTrace.from_events`), and profiles and
mined statistics read the traces.  Recording an
event is one schema check and two appends — to the log and, with a
registry attached, to the registry's pending list; the metric fold runs
when the registry is next read (:class:`~repro.obs.metrics.MetricsRegistry`)
and exports what folding each event as it landed would have.  The fold
is not cheaper for it: whoever reads the metrics pays it, per pending
event, at the read.

A recorder is shared across re-plan rounds: the resilient executor bumps
``round`` and ``clock_offset_s`` between rounds, so event timestamps
stay monotone across a whole resilient run even though each engine round
restarts its clock at zero.  ``round`` is stamped here, on every event
type whose schema declares it — callers never pass it.

With ``Recorder()`` both a metrics registry and an event log are
created; pass ``metrics=None`` to keep events only (the event log is
always on — everything else is derived from it).  The execution layers
accept ``recorder=None`` (their default) and then export nothing.  The
runtime engine keeps its ``attempt`` / ``op`` records either way, since
its trace is their fold; a recorder is handed those same records, so
attaching one changes no answer and no trace.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import EVENT_SCHEMA, EventLog
from repro.obs.metrics import MetricsRegistry

_UNSET = object()

#: Event types that carry the recorder's current re-plan round.
ROUND_STAMPED = frozenset(
    event_type
    for event_type, fields in EVENT_SCHEMA.items()
    if "round" in fields
)


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

    def emit(self, now_s: float, event_type: str, **fields: Any) -> None:
        """Record one event at engine-clock ``now_s``.

        Raises:
            ObservabilityError: unknown type, non-finite timestamp,
                missing / unexpected field or wrongly typed value —
                nothing is recorded then.
        """
        if event_type in ROUND_STAMPED:
            fields["round"] = self.round
        event = self.events.emit(
            self.clock_offset_s + now_s, event_type, **fields
        )
        if self.metrics is not None:
            self.metrics.record(event)

    # The two callbacks whose positional signature HealthRegistry
    # dictates (``observer`` / ``quality_observer``).

    def breaker_transition(
        self, now_s: float, source: str, old_state: str, new_state: str
    ) -> None:
        self.emit(
            now_s, "breaker", source=source,
            **{"from": old_state, "to": new_state},
        )

    def quarantine_changed(
        self, now_s: float, source: str, action: str, score: float,
        answers: int,
    ) -> None:
        self.emit(
            now_s, "quarantine",
            source=source, action=action, score=score, answers=answers,
        )
