"""Structured event log with a stable, validated JSONL schema.

Every observable incident of one mediator run — a wrapper query going on
the wire, a semijoin send-set, a retry being scheduled, a hedge
launched, a circuit breaker changing state, a re-plan round — is one
:class:`Event`: a virtual-clock timestamp, a type, and typed fields.
The schema (:data:`EVENT_SCHEMA`) is part of the public contract:
emission validates against it, CI validates persisted logs line by
line, and downstream consumers (the trace fold
:meth:`repro.runtime.trace.RuntimeTrace.from_events`, the log-mined
statistics in :mod:`repro.sources.observed`) rely on exactly these
fields.

Records serialize to JSONL with a fixed key order (``ts``, ``type``,
then field names sorted), so two runs with the same seed produce
byte-identical streams.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ObservabilityError

#: Field-type vocabulary used by :data:`EVENT_SCHEMA`.
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "list[str]": lambda v: isinstance(v, list)
    and all(isinstance(item, str) for item in v),
}

#: The stable event schema: ``type -> {field: type}``.  Every record also
#: carries ``ts`` (float, virtual-clock seconds) and ``type`` (str).
EVENT_SCHEMA: dict[str, dict[str, str]] = {
    # One plan execution starting (round 0) or a re-plan round starting.
    "run_start": {
        "backend": "str",  # "runtime" | "sequential"
        "round": "int",
        "plan_ops": "int",
        "remote_ops": "int",
        "result": "str",  # the plan's result register
    },
    # One wire attempt finished (succeeded, failed, or was cancelled).
    "attempt": {
        "round": "int",
        "step": "int",
        "op": "str",  # "sq" | "sjq" | "lq"
        "planned": "str",  # the plan's source
        "source": "str",  # the source that actually served
        "condition": "str",  # condition SQL ("" for lq)
        "attempt": "int",  # 1-based per step
        "start": "float",
        "end": "float",
        "fate": "str",  # AttemptFate value
        "hedge": "bool",
        "cost": "float",
        "items_sent": "int",
        "items_received": "int",
        "rows_loaded": "int",
        "messages": "int",
    },
    # A semijoin shipped its binding set to a source.
    "sendset": {
        "round": "int",
        "step": "int",
        "source": "str",
        "condition": "str",
        "size": "int",
    },
    # A failed attempt scheduled a retry after backoff.
    "retry": {
        "round": "int",
        "step": "int",
        "source": "str",
        "retries": "int",  # retries used after this one fires
        "at": "float",  # virtual time the retry fires
    },
    # A speculative duplicate attempt was launched on a substitute.
    "hedge": {
        "round": "int",
        "step": "int",
        "primary": "str",
        "target": "str",
        "trigger": "str",  # "timer" | "failure"
    },
    # A circuit breaker changed state.
    "breaker": {
        "source": "str",
        "from": "str",  # BreakerState value
        "to": "str",
    },
    # The answer verifier found issues in one delivered answer.
    "quality": {
        "step": "int",
        "source": "str",
        "delivered": "int",  # tuples as delivered (duplicates included)
        "kept": "int",  # tuples that survived verification
        "corrupt": "int",  # schema/type-violating values dropped
        "duplicates": "int",  # duplicate tuples collapsed
        "conflicts": "int",  # values outvoted in a cross-replica vote
        "score": "float",  # the source's quality score after this answer
    },
    # A source entered or left data-quality quarantine.
    "quarantine": {
        "source": "str",
        "action": "str",  # "enter" | "exit"
        "score": "float",  # quality score at the transition
        "answers": "int",  # verified answers the score is based on
    },
    # One plan operation produced its value (remote or local).
    "op": {
        "round": "int",
        "step": "int",
        "op": "str",  # OpKind value
        "target": "str",
        "source": "str",  # "" for local operations
        "remote": "bool",
        "condition": "str",  # "" when the operation has no condition
        "queued": "float",
        "started": "float",
        "finished": "float",
        "status": "str",  # OpStatus value
        "output": "int",
    },
    # One plan execution finished.
    "run_end": {
        "backend": "str",
        "round": "int",
        "makespan": "float",
        "retries": "int",
        "degraded": "int",
        "recovered": "int",
        "hedges": "int",
        "cost": "float",
        "items": "int",
    },
    # The resilient executor planned one round (0 = the initial plan).
    "replan": {
        "round": "int",
        "optimizer": "str",
        "sources": "list[str]",
        "masked": "list[str]",
        "estimated_cost": "float",
    },
    # A query was shed at admission because its deadline is infeasible.
    "shed": {
        "query": "int",  # per-service submission sequence number
        "tenant": "str",
        "reason": "str",  # "infeasible" | "invalid"
        "predicted": "float",  # predicted completion (submit-relative s)
        "deadline": "float",  # the query's deadline budget in seconds
    },
    # A query's deadline budget expired (in queue or mid-execution).
    "deadline": {
        "query": "int",
        "tenant": "str",
        "stage": "str",  # "queue" | "execution"
        "budget": "float",  # the deadline budget in seconds
        "overrun": "float",  # elapsed - budget at expiry (>= 0)
    },
    # The serving tier planned one admitted query (cache hit or miss).
    "plan": {
        "query": "int",  # per-service submission sequence number
        "tenant": "str",
        "trace": "str",  # the query's deterministic trace id
        "cache": "str",  # "hit" | "miss" | "off"
        "strategy": "str",  # OptimizationResult.search_strategy
        "subsets": "int",  # subsets considered by this optimization
        "elapsed": "float",  # wall planning seconds (0.0 on the virtual clock)
        "exhausted": "bool",  # anytime budget cut the search short
    },
    # Critical-path latency attribution of one completed query: the
    # per-phase seconds tile [submit, complete] exactly, so
    # queue + plan + pool + exec_* + merge == total (one sum per query).
    "phases": {
        "query": "int",
        "tenant": "str",
        "trace": "str",
        "queue": "float",
        "plan": "float",
        "pool": "float",
        "exec_wait": "float",  # engine-side source-connection wait
        "exec_wire": "float",  # attempt time on the wire
        "exec_backoff": "float",  # retry backoff gaps
        "merge": "float",  # local set-algebra + answer assembly
        "total": "float",  # end-to-end latency (== the sum above)
    },
    # A serving-tier lifecycle transition of one submitted query.
    "serve": {
        "phase": "str",  # "admitted" | "rejected" | "dispatched" | "completed" | "failed"
        "query": "int",  # per-service submission sequence number
        "tenant": "str",
        "queue_depth": "int",  # run-queue depth after the transition
        "in_flight": "int",  # dispatched-but-unfinished after the transition
        "detail": "str",  # rejection reason / error class ("" otherwise)
        "latency": "float",  # submit->complete seconds (0.0 until completed)
    },
}


def validate_record(record: Mapping[str, Any]) -> None:
    """Check one parsed JSONL record against :data:`EVENT_SCHEMA`.

    Raises:
        ObservabilityError: on an unknown type, a missing or unexpected
            field, or a field of the wrong type.
    """
    event_type = record.get("type")
    if event_type not in EVENT_SCHEMA:
        raise ObservabilityError(f"unknown event type {event_type!r}")
    ts = record.get("ts")
    if not _TYPE_CHECKS["float"](ts):
        raise ObservabilityError(
            f"{event_type}: ts must be a number, got {ts!r}"
        )
    expected = EVENT_SCHEMA[event_type]
    fields = {key for key in record if key not in ("ts", "type")}
    missing = sorted(set(expected) - fields)
    extra = sorted(fields - set(expected))
    if missing or extra:
        raise ObservabilityError(
            f"{event_type}: missing fields {missing}, unexpected {extra}"
        )
    for name, type_name in expected.items():
        if not _TYPE_CHECKS[type_name](record[name]):
            raise ObservabilityError(
                f"{event_type}.{name}: expected {type_name}, "
                f"got {record[name]!r}"
            )


@dataclass(frozen=True)
class Event:
    """One schema-validated telemetry record on the virtual clock."""

    ts: float
    type: str
    fields: Mapping[str, Any]

    def to_record(self) -> dict[str, Any]:
        """Plain dict with the canonical key order (ts, type, sorted)."""
        record: dict[str, Any] = {"ts": self.ts, "type": self.type}
        for key in sorted(self.fields):
            record[key] = self.fields[key]
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))

    def __getitem__(self, key: str) -> Any:
        if key == "ts":
            return self.ts
        if key == "type":
            return self.type
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default


@dataclass
class EventLog:
    """An append-only sequence of :class:`Event`, JSONL in and out.

    Example:
        >>> log = EventLog()
        >>> log.emit(0.0, "breaker", source="R1",
        ...          **{"from": "closed", "to": "open"})
        >>> print(log.to_jsonl())
        {"ts":0.0,"type":"breaker","from":"closed","source":"R1","to":"open"}
    """

    events: list[Event] = field(default_factory=list)

    def emit(self, ts: float, event_type: str, **fields: Any) -> Event:
        """Validate and append one event; returns it."""
        event = Event(ts=float(ts), type=event_type, fields=fields)
        validate_record(event.to_record())
        self.events.append(event)
        return event

    def of_type(self, *event_types: str) -> list[Event]:
        wanted = set(event_types)
        return [event for event in self.events if event.type in wanted]

    def to_jsonl(self) -> str:
        return "\n".join(event.to_json() for event in self.events)

    def write(self, path: str) -> str:
        """Persist as JSONL (one record per line); returns ``path``.

        Parent directories are created on demand so the conventional
        destination (``results/events.jsonl``) works from a fresh
        checkout.
        """
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(event.to_json() + "\n")
        return path

    @staticmethod
    def from_records(records: Iterable[Mapping[str, Any]]) -> "EventLog":
        """Build (and validate) a log from parsed JSONL records."""
        log = EventLog()
        for record in records:
            validate_record(record)
            fields = {
                key: value
                for key, value in record.items()
                if key not in ("ts", "type")
            }
            log.events.append(
                Event(ts=float(record["ts"]), type=record["type"], fields=fields)
            )
        return log

    @staticmethod
    def from_jsonl(text: str) -> "EventLog":
        records = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"line {line_no} is not valid JSON: {exc}"
                ) from exc
        return EventLog.from_records(records)

    @staticmethod
    def read(path: str) -> "EventLog":
        with open(path, "r", encoding="utf-8") as handle:
            return EventLog.from_jsonl(handle.read())

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
