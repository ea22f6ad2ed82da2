"""Structured event log with a stable, validated JSONL schema.

Every observable incident of one mediator run — a wrapper query going on
the wire, a semijoin send-set, a retry being scheduled, a hedge
launched, a circuit breaker changing state, a re-plan round — is one
:class:`Event`: a virtual-clock timestamp, a type, and typed fields.
The schema (:data:`EVENT_SCHEMA`) is part of the public contract:
emission validates against it, CI validates persisted logs line by
line, and downstream consumers (the trace fold
:meth:`repro.runtime.trace.RuntimeTrace.from_events`, whose traces the
span trees, the query profiles and the mined statistics read) rely on
exactly these fields.

Records serialize to JSONL with a fixed key order (``ts``, ``type``,
then field names sorted), so two runs with the same seed produce
byte-identical streams.

Each schema type has one slotted record class generated from the schema
(:data:`EVENT_CLASSES`: :class:`AttemptEvent`, :class:`OpEvent`, ...),
and its constructor is the one schema check, as straight-line code: a
finite ``ts``, then each field's exact type without a call, else the
type's predicate.  The engine, the re-planner and the serving tier
build these classes positionally, and a
:class:`~repro.obs.recorder.Recorder` appends that same object — one
schema check and two appends per event.  Keyword emission
(:meth:`EventLog.emit`, :meth:`Recorder.emit
<repro.obs.recorder.Recorder.emit>`), :func:`validate_record` and
:meth:`EventLog.from_records` first refuse an unknown type or a wrong
field set (:func:`event_from_fields`), then build the same class.
Readers (the trace fold, the metric catalogue) read the attributes.
"""

from __future__ import annotations

import json
import keyword
import math
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
        "backend": "str",  # "runtime" (older logs may read "sequential")
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


#: Event types that carry a re-plan ``round``.
ROUND_STAMPED = frozenset(
    event_type for event_type, fields in EVENT_SCHEMA.items() if "round" in fields
)

#: The runtime types accepted for each schema type without a call,
#: compared with ``type(value) is t``; any other value (a ``bool`` for an
#: ``int``, a subclass, every ``list[str]``) goes to the
#: :data:`_TYPE_CHECKS` predicate, which gives the verdict.
_EXACT_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (float, int),
    "str": (str,),
    "bool": (bool,),
    "list[str]": (),
}


def _check_ts(ts: Any, event_type: str) -> None:
    """Refuse a ``ts`` that is not a finite number: a NaN / ±inf float,
    or an ``int`` past the float range (it has no float to become)."""
    if type(ts) is not float and not _TYPE_CHECKS["float"](ts):
        raise ObservabilityError(f"{event_type}: ts must be a number, got {ts!r}")
    try:
        # json.dumps would write a bare Infinity / NaN: not JSON.
        finite = math.isfinite(ts)
    except OverflowError:
        finite = False
    if not finite:
        raise ObservabilityError(f"{event_type}: ts must be finite, got {ts!r}")


def _wrong_type(event_type: str, key: str, kind: str, value: Any) -> ObservabilityError:
    return ObservabilityError(f"{event_type}.{key}: expected {kind}, got {value!r}")


def field_attribute(key: str) -> str:
    """The attribute a field is stored under: its JSON key, with a ``_``
    appended where the key is a Python keyword (``breaker``'s ``from``)."""
    return key + "_" if keyword.iskeyword(key) else key


class Event:
    """One schema-checked telemetry record on the virtual clock.

    The base of one slotted class per :data:`EVENT_SCHEMA` type
    (:data:`EVENT_CLASSES`), generated from the schema: ``ts``, then the
    type's fields in schema order, as constructor arguments and as
    attributes (a field named by a Python keyword gets a trailing ``_``:
    ``BreakerEvent.from_``).  The constructor is the schema check: it
    refuses a ``ts`` that is not a finite number and a field whose value
    is not of the schema type, with the messages of
    :func:`validate_record`.  Class attributes: ``type`` (the event
    type), ``FIELDS`` (the JSON keys in schema order).
    """

    __slots__ = ("ts",)

    type: str
    FIELDS: tuple[str, ...]
    #: ``FIELDS`` as a set, compared with a field mapping's keys.
    _KEYS: frozenset[str]
    #: ``(attribute, ...)`` in schema order.
    _ATTRS: tuple[str, ...]
    #: ``(JSON key, attribute)`` in the canonical (sorted) key order.
    _SORTED: tuple[tuple[str, str], ...]
    #: JSON key -> attribute.
    _ATTR_OF: dict[str, str]

    def _row(self) -> tuple[Any, ...]:
        return (self.ts, *[getattr(self, attr) for attr in self._ATTRS])

    def __repr__(self) -> str:
        values = ", ".join(
            f"{attr}={getattr(self, attr)!r}" for attr in self._ATTRS
        )
        return f"{type(self).__name__}(ts={self.ts!r}, {values})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._row() == other._row()  # type: ignore[attr-defined]

    def to_record(self) -> dict[str, Any]:
        """Plain dict with the canonical key order (ts, type, sorted)."""
        record: dict[str, Any] = {"ts": self.ts, "type": self.type}
        for key, attr in self._SORTED:
            record[key] = getattr(self, attr)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_record(), separators=(",", ":"))

    def __getitem__(self, key: str) -> Any:
        if key == "ts":
            return self.ts
        if key == "type":
            return self.type
        return getattr(self, self._ATTR_OF[key])

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default


def _event_class(event_type: str) -> type[Event]:
    """The slotted :class:`Event` class of ``event_type``, its
    constructor generated from the schema as straight-line checks."""
    schema = EVENT_SCHEMA[event_type]
    attrs = tuple(map(field_attribute, schema))
    lines = [
        f"def __init__(self, ts, {', '.join(attrs)}):",
        # inf - inf and nan - nan are nan: one test keeps finite floats.
        "    if type(ts) is not float or ts - ts != 0.0:",
        f"        _check_ts(ts, {event_type!r})",
        "    self.ts = ts",
    ]
    for (key, kind), attr in zip(schema.items(), attrs):
        tests = [f"type({attr}) is not {t.__name__}" for t in _EXACT_TYPES[kind]]
        tests.append(f"not _TYPE_CHECKS[{kind!r}]({attr})")
        lines += [
            f"    if {' and '.join(tests)}:",
            f"        raise _wrong_type({event_type!r}, {key!r}, {kind!r}, {attr})",
            f"    self.{attr} = {attr}",
        ]
    namespace: dict[str, Any] = {
        "_check_ts": _check_ts,
        "_wrong_type": _wrong_type,
        "_TYPE_CHECKS": _TYPE_CHECKS,
    }
    exec("\n".join(lines), namespace)
    name = "".join(part.title() for part in event_type.split("_")) + "Event"
    return type(
        name,
        (Event,),
        {
            "__slots__": attrs,
            "__init__": namespace["__init__"],
            "__module__": __name__,
            "__qualname__": name,
            "type": event_type,
            "FIELDS": tuple(schema),
            "_KEYS": frozenset(schema),
            "_ATTRS": attrs,
            "_SORTED": tuple(sorted(zip(schema, attrs))),
            "_ATTR_OF": dict(zip(schema, attrs)),
        },
    )


#: Event type -> its class, one per :data:`EVENT_SCHEMA` entry, in
#: schema order.
EVENT_CLASSES: dict[str, type[Event]] = {
    event_type: _event_class(event_type) for event_type in EVENT_SCHEMA
}

RunStartEvent = EVENT_CLASSES["run_start"]
AttemptEvent = EVENT_CLASSES["attempt"]
SendsetEvent = EVENT_CLASSES["sendset"]
RetryEvent = EVENT_CLASSES["retry"]
HedgeEvent = EVENT_CLASSES["hedge"]
BreakerEvent = EVENT_CLASSES["breaker"]
QualityEvent = EVENT_CLASSES["quality"]
QuarantineEvent = EVENT_CLASSES["quarantine"]
OpEvent = EVENT_CLASSES["op"]
RunEndEvent = EVENT_CLASSES["run_end"]
ReplanEvent = EVENT_CLASSES["replan"]
ShedEvent = EVENT_CLASSES["shed"]
DeadlineEvent = EVENT_CLASSES["deadline"]
PlanEvent = EVENT_CLASSES["plan"]
PhasesEvent = EVENT_CLASSES["phases"]
ServeEvent = EVENT_CLASSES["serve"]


def event_from_fields(ts: Any, event_type: Any, fields: Mapping[str, Any]) -> Event:
    """Build the event of ``event_type`` from a field mapping (the record
    without ``ts`` / ``type``); ``ts`` is kept as given.

    Raises:
        ObservabilityError: as :func:`validate_record`.
    """
    cls = EVENT_CLASSES.get(event_type)
    if cls is None:
        raise ObservabilityError(f"unknown event type {event_type!r}")
    _check_ts(ts, event_type)
    if fields.keys() != cls._KEYS:
        raise ObservabilityError(
            f"{event_type}: missing fields {sorted(cls._KEYS - fields.keys())}, "
            f"unexpected {sorted(fields.keys() - cls._KEYS)}"
        )
    return cls(ts, *[fields[key] for key in cls.FIELDS])


def validate_record(record: Mapping[str, Any]) -> None:
    """Check one parsed JSONL record against :data:`EVENT_SCHEMA`.

    Raises:
        ObservabilityError: on an unknown type, a ``ts`` that is not a
            finite number, a missing or unexpected field, or a field of
            the wrong type — checked in that order, fields in schema
            order.
    """
    event_from_fields(record.get("ts"), record.get("type"), _fields_of(record))


def _fields_of(record: Mapping[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in record.items() if key not in ("ts", "type")}


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
        """Build one event from keyword fields, append it and return it.

        Raises:
            ObservabilityError: as :func:`validate_record` — nothing is
                appended then.
        """
        try:
            ts = float(ts)
        except OverflowError:
            pass  # an int past the float range: refused below
        event = event_from_fields(ts, event_type, fields)
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
            event = event_from_fields(
                record.get("ts"), record.get("type"), _fields_of(record)
            )
            event.ts = float(event.ts)
            log.events.append(event)
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
