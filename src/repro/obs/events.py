"""Structured event log with a stable, validated JSONL schema.

Every observable incident of one mediator run — a wrapper query going on
the wire, a semijoin send-set, a retry being scheduled, a hedge
launched, a circuit breaker changing state, a re-plan round — is one
:class:`Event`: a virtual-clock timestamp, a type, and typed fields.
The schema (:data:`EVENT_SCHEMA`) is part of the public contract:
emission validates against it, CI validates persisted logs line by
line, and downstream consumers (the trace fold
:meth:`repro.runtime.trace.RuntimeTrace.from_events`, whose traces the
query profiles and the mined statistics read) rely on exactly these
fields.

Records serialize to JSONL with a fixed key order (``ts``, ``type``,
then field names sorted), so two runs with the same seed produce
byte-identical streams.

The schema has one check, :func:`_check`, over the schema compiled once
(:data:`_COMPILED`: per type, the frozenset of its field names and, per
field, the exact types taken without a call): :meth:`EventLog.emit`
runs it on the fields as passed, without building a record, and
:func:`validate_record` / :meth:`EventLog.from_records` on a parsed
record split into ``ts``, ``type`` and the rest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

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


#: The runtime types accepted for each schema type without a call,
#: compared with ``type(value) in allowed``; any other value (a ``bool``
#: for an ``int``, a subclass, every ``list[str]``) goes to the
#: :data:`_TYPE_CHECKS` predicate, which gives the verdict.
_EXACT_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (float, int),
    "str": (str,),
    "bool": (bool,),
    "list[str]": (),
}

#: :data:`EVENT_SCHEMA` compiled once: ``type -> (field names,
#: ((field, type name, exact types, predicate), ...))``.
_COMPILED: dict[
    str,
    tuple[
        frozenset[str],
        tuple[tuple[str, str, tuple[type, ...], Callable[[Any], bool]], ...],
    ],
] = {
    event_type: (
        frozenset(schema),
        tuple(
            (name, kind, _EXACT_TYPES[kind], _TYPE_CHECKS[kind])
            for name, kind in schema.items()
        ),
    )
    for event_type, schema in EVENT_SCHEMA.items()
}


def _check(ts: Any, event_type: Any, fields: Mapping[str, Any]) -> None:
    """The schema check: ``fields`` are the record without ``ts`` / ``type``.

    Raises:
        ObservabilityError: as :func:`validate_record`.
    """
    compiled = _COMPILED.get(event_type)
    if compiled is None:
        raise ObservabilityError(f"unknown event type {event_type!r}")
    if type(ts) is not float and not _TYPE_CHECKS["float"](ts):
        raise ObservabilityError(
            f"{event_type}: ts must be a number, got {ts!r}"
        )
    if isinstance(ts, float) and not math.isfinite(ts):
        # json.dumps would write a bare Infinity / NaN: not JSON.
        raise ObservabilityError(
            f"{event_type}: ts must be finite, got {ts!r}"
        )
    names, typed = compiled
    if fields.keys() != names:
        raise ObservabilityError(
            f"{event_type}: missing fields {sorted(names - fields.keys())}, "
            f"unexpected {sorted(fields.keys() - names)}"
        )
    for name, kind, exact, check in typed:
        value = fields[name]
        if type(value) not in exact and not check(value):
            raise ObservabilityError(
                f"{event_type}.{name}: expected {kind}, got {value!r}"
            )


def validate_record(record: Mapping[str, Any]) -> None:
    """Check one parsed JSONL record against :data:`EVENT_SCHEMA`.

    Raises:
        ObservabilityError: on an unknown type, a ``ts`` that is not a
            finite number, a missing or unexpected field, or a field of
            the wrong type.
    """
    _check(record.get("ts"), record.get("type"), _fields_of(record))


def _fields_of(record: Mapping[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in record.items() if key not in ("ts", "type")}


class Event:
    """One schema-validated telemetry record on the virtual clock.

    A slotted value: construction stores ``fields`` as given (the
    caller hands over a fresh mapping and does not change it after).
    """

    __slots__ = ("ts", "type", "fields")

    def __init__(self, ts: float, type: str, fields: Mapping[str, Any]):
        self.ts = ts
        self.type = type
        self.fields = fields

    def __repr__(self) -> str:
        return (
            f"Event(ts={self.ts!r}, type={self.type!r}, "
            f"fields={self.fields!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Event:
            return NotImplemented
        return (self.ts, self.type, self.fields) == (
            other.ts, other.type, other.fields  # type: ignore[attr-defined]
        )

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
        """Validate and append one event; returns it.

        Raises:
            ObservabilityError: as :func:`validate_record` — nothing is
                appended then.
        """
        event = Event(float(ts), event_type, fields)
        _check(event.ts, event_type, fields)
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
            fields = _fields_of(record)
            _check(record.get("ts"), record.get("type"), fields)
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
