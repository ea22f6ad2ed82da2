"""Rebuild a :class:`~repro.runtime.trace.RuntimeTrace` from events.

The ASCII timeline used to be producible only by the live engine; with
the structured event log it becomes a *renderer*: ``op`` and ``attempt``
records carry everything :meth:`RuntimeTrace.timeline`,
:meth:`utilization_report`, and :meth:`summary` consume, so a trace
rebuilt from a persisted JSONL file renders byte-for-byte what the
original run printed.

Replayed spans wrap a lightweight stand-in for the plan operation (the
trace only reads ``kind.value``, ``target``, ``remote``, and ``source``
from it), so replay needs no access to the original plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ObservabilityError
from repro.obs.events import Event, EventLog
from repro.runtime.faults import AttemptFate
from repro.runtime.trace import AttemptSpan, OpSpan, OpStatus, RuntimeTrace


@dataclass(frozen=True)
class _ReplayKind:
    value: str


@dataclass(frozen=True)
class _ReplayOperation:
    """Just enough of a plan operation for trace rendering."""

    kind: _ReplayKind
    target: str
    source: str
    remote: bool
    condition_sql: str

    def render(self, labels=None) -> str:
        text = f"{self.kind.value} -> {self.target}"
        if self.source:
            text += f" @ {self.source}"
        if self.condition_sql:
            text += f" [{self.condition_sql}]"
        return text


def trace_from_events(
    events: EventLog | Iterable[Event], round_no: int | None = None
) -> RuntimeTrace:
    """Reconstruct one round's :class:`RuntimeTrace` from an event log.

    Args:
        events: An :class:`EventLog` (or any iterable of events) holding
            at least the ``op`` records of the run; ``attempt`` records
            fill in the per-attempt detail and ``run_end`` the makespan.
        round_no: Which re-plan round to reconstruct.  ``None`` (the
            default) selects the highest round present — the one whose
            plan actually completed.

    Raises:
        ObservabilityError: when the log has no ``op`` events for the
            selected round.
    """
    all_events = list(events)
    op_events = [e for e in all_events if e.type == "op"]
    if round_no is None:
        round_no = max((e["round"] for e in op_events), default=0)
    op_events = [e for e in op_events if e["round"] == round_no]
    if not op_events:
        raise ObservabilityError(
            f"no 'op' events for round {round_no} — was the run recorded?"
        )

    attempts_by_step: dict[int, list[AttemptSpan]] = {}
    # When each step's first answer arrived.  The schema carries no
    # ``confirm`` flag, but an answered step sends nothing further on
    # its primary path, so a non-hedge attempt that starts once the
    # answer is in hand can only be a ``vote`` confirmation fetch.
    answered_s: dict[int, float] = {}
    for event in all_events:
        if event.type != "attempt" or event["round"] != round_no:
            continue
        step = event["step"]
        fate = AttemptFate(event["fate"])
        attempts_by_step.setdefault(step, []).append(
            AttemptSpan(
                attempt=event["attempt"],
                start_s=event["start"],
                end_s=event["end"],
                fate=fate,
                cost=event["cost"],
                items_sent=event["items_sent"],
                items_received=event["items_received"],
                rows_loaded=event["rows_loaded"],
                messages=event["messages"],
                source=event["source"],
                hedge=event["hedge"],
                confirm=not event["hedge"]
                and event["start"] >= answered_s.get(step, math.inf),
            )
        )
        if fate is AttemptFate.OK:
            answered_s.setdefault(step, event["end"])

    spans = []
    for event in sorted(op_events, key=lambda e: e["step"]):
        operation = _ReplayOperation(
            kind=_ReplayKind(event["op"]),
            target=event["target"],
            source=event["source"],
            remote=event["remote"],
            condition_sql=event["condition"],
        )
        spans.append(
            OpSpan(
                step=event["step"],
                operation=operation,  # type: ignore[arg-type]
                queued_s=event["queued"],
                started_s=event["started"],
                finished_s=event["finished"],
                attempts=tuple(attempts_by_step.get(event["step"], ())),
                status=OpStatus(event["status"]),
                output_size=event["output"],
            )
        )

    makespan = max((e["finished"] for e in op_events), default=0.0)
    for event in all_events:
        if event.type == "run_end" and event["round"] == round_no:
            makespan = event["makespan"]
    return RuntimeTrace(spans=tuple(spans), makespan_s=makespan)
