"""Every refusal of the four ways an event enters a log, pinned in one table.

``Recorder.emit``, ``EventLog.emit``, ``validate_record`` and
``EventLog.from_jsonl`` build the same checked record.  Each row below
is one malformed event; each entry point must raise exactly the
exception type and message the row names (``None``: accepted) and, when
it refuses, record nothing.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.events import EVENT_SCHEMA, EventLog, validate_record
from repro.obs.recorder import Recorder

#: A valid value of each schema kind.
_VALID = {"int": 1, "float": 0.5, "str": "R1", "bool": True, "list[str]": ["R1"]}


def _fields(event_type: str, **overrides) -> dict:
    fields = {
        name: _VALID[kind] for name, kind in EVENT_SCHEMA.get(event_type, {}).items()
    }
    fields.update(overrides)
    return fields


def _without(event_type: str, *names: str, **overrides) -> dict:
    fields = _fields(event_type, **overrides)
    for name in names:
        del fields[name]
    return fields


def _recorder_emit(ts, event_type, fields):
    recorder = Recorder()
    recorder.emit(ts, event_type, **fields)
    return recorder.events


def _log_emit(ts, event_type, fields):
    log = EventLog()
    log.emit(ts, event_type, **fields)
    return log


def _validate(ts, event_type, fields):
    validate_record({"ts": ts, "type": event_type, **fields})


def _from_jsonl(ts, event_type, fields):
    return EventLog.from_jsonl(json.dumps({"ts": ts, "type": event_type, **fields}))


ENTRY_POINTS = {
    "Recorder.emit": _recorder_emit,
    "EventLog.emit": _log_emit,
    "validate_record": _validate,
    "EventLog.from_jsonl": _from_jsonl,
}

_ERR = ObservabilityError
_EMIT = ("Recorder.emit", "EventLog.emit")
_READ = ("validate_record", "EventLog.from_jsonl")

#: ``case -> (ts, type, fields, verdict)``; a verdict is ``(exception
#: type, message)`` for every entry point, or a dict naming one per
#: entry point.
TABLE = {
    "unknown type": (0.5, "explosion", {}, (_ERR, "unknown event type 'explosion'")),
    "missing field": (
        0.5,
        "breaker",
        _without("breaker", "to"),
        (_ERR, "breaker: missing fields ['to'], unexpected []"),
    ),
    "unexpected field": (
        0.5,
        "breaker",
        _fields("breaker", colour="red"),
        (_ERR, "breaker: missing fields [], unexpected ['colour']"),
    ),
    "missing and unexpected, sorted": (
        0.5,
        "breaker",
        _without("breaker", "to", "from", zeta=1, alpha=2),
        (_ERR, "breaker: missing fields ['from', 'to'], unexpected ['alpha', 'zeta']"),
    ),
    "int given str": (
        0.5,
        "sendset",
        _fields("sendset", size="3"),
        (_ERR, "sendset.size: expected int, got '3'"),
    ),
    "int given bool": (
        0.5,
        "sendset",
        _fields("sendset", size=True),
        (_ERR, "sendset.size: expected int, got True"),
    ),
    "int given float": (
        0.5,
        "sendset",
        _fields("sendset", size=3.0),
        (_ERR, "sendset.size: expected int, got 3.0"),
    ),
    "float given str": (
        0.5,
        "retry",
        _fields("retry", at="soon"),
        (_ERR, "retry.at: expected float, got 'soon'"),
    ),
    "float given bool": (
        0.5,
        "retry",
        _fields("retry", at=False),
        (_ERR, "retry.at: expected float, got False"),
    ),
    "float given null": (
        0.5,
        "run_end",
        _fields("run_end", cost=None),
        (_ERR, "run_end.cost: expected float, got None"),
    ),
    "str given int": (
        0.5,
        "breaker",
        _fields("breaker", source=3),
        (_ERR, "breaker.source: expected str, got 3"),
    ),
    "str given list": (
        0.5,
        "serve",
        _fields("serve", tenant=["a"]),
        (_ERR, "serve.tenant: expected str, got ['a']"),
    ),
    "bool given int": (
        0.5,
        "op",
        _fields("op", remote=1),
        (_ERR, "op.remote: expected bool, got 1"),
    ),
    "bool given str": (
        0.5,
        "plan",
        _fields("plan", exhausted="true"),
        (_ERR, "plan.exhausted: expected bool, got 'true'"),
    ),
    "list[str] given a list holding an int": (
        0.5,
        "replan",
        _fields("replan", sources=["R1", 2]),
        (_ERR, "replan.sources: expected list[str], got ['R1', 2]"),
    ),
    "list[str] given str": (
        0.5,
        "replan",
        _fields("replan", masked="R3"),
        (_ERR, "replan.masked: expected list[str], got 'R3'"),
    ),
    "list[str] given tuple": (
        0.5,
        "replan",
        _fields("replan", masked=("R3",)),
        {
            **dict.fromkeys(_EMIT + ("validate_record",),
                            (_ERR, "replan.masked: expected list[str], got ('R3',)")),
            "EventLog.from_jsonl": None,  # JSON has no tuple: it reads a list
        },
    ),
    "first wrong field in schema order": (
        0.5,
        "attempt",
        _fields("attempt", fate=1, step="2"),
        (_ERR, "attempt.step: expected int, got '2'"),
    ),
    "field set before field types": (
        0.5,
        "attempt",
        _without("attempt", "fate", step="2"),
        (_ERR, "attempt: missing fields ['fate'], unexpected []"),
    ),
    "nan ts": (
        math.nan,
        "breaker",
        _fields("breaker"),
        (_ERR, "breaker: ts must be finite, got nan"),
    ),
    "inf ts": (
        math.inf,
        "breaker",
        _fields("breaker"),
        (_ERR, "breaker: ts must be finite, got inf"),
    ),
    "-inf ts": (
        -math.inf,
        "breaker",
        _fields("breaker"),
        (_ERR, "breaker: ts must be finite, got -inf"),
    ),
    "int ts past the float range": (
        10**400,
        "breaker",
        _fields("breaker"),
        (_ERR, f"breaker: ts must be finite, got {10**400}"),
    ),
    "ts before the field set": (
        math.inf,
        "breaker",
        _without("breaker", "to"),
        (_ERR, "breaker: ts must be finite, got inf"),
    ),
    "type before ts": (
        math.nan,
        "explosion",
        {},
        (_ERR, "unknown event type 'explosion'"),
    ),
    "str ts": (
        "soon",
        "breaker",
        _fields("breaker"),
        {
            "Recorder.emit": (
                TypeError,
                "unsupported operand type(s) for +: 'float' and 'str'",
            ),
            "EventLog.emit": (ValueError, "could not convert string to float: 'soon'"),
            **dict.fromkeys(_READ, (_ERR, "breaker: ts must be a number, got 'soon'")),
        },
    ),
    "bool ts": (
        True,
        "breaker",
        _fields("breaker"),
        {
            **dict.fromkeys(_EMIT, None),  # the emitters take float(ts)
            **dict.fromkeys(_READ, (_ERR, "breaker: ts must be a number, got True")),
        },
    ),
    "int ts": (2, "breaker", _fields("breaker"), None),
    "valid": (0.5, "attempt", _fields("attempt"), None),
}


def _cases():
    for case, (ts, event_type, fields, verdict) in TABLE.items():
        for entry in ENTRY_POINTS:
            expected = verdict.get(entry) if isinstance(verdict, dict) else verdict
            yield pytest.param(entry, ts, event_type, fields, expected, id=f"{case}-{entry}")


@pytest.mark.parametrize("entry, ts, event_type, fields, expected", list(_cases()))
def test_refusal(entry, ts, event_type, fields, expected):
    call = ENTRY_POINTS[entry]
    if expected is None:
        log = call(ts, event_type, dict(fields))
        if log is not None:
            assert len(log) == 1
            assert type(log.events[0].ts) is float
        return
    error, message = expected
    with pytest.raises(Exception) as raised:
        call(ts, event_type, dict(fields))
    assert (type(raised.value), str(raised.value)) == (error, message)


def test_a_refused_emit_records_nothing():
    recorder = Recorder()
    log = recorder.events
    for ts, event_type, fields, verdict in TABLE.values():
        if verdict is None or isinstance(verdict, dict):
            continue
        with pytest.raises(ObservabilityError):
            recorder.emit(ts, event_type, **fields)
        with pytest.raises(ObservabilityError):
            log.emit(ts, event_type, **fields)
    assert len(log) == 0
    assert recorder.metrics is not None and recorder.metrics.to_json() == {}


def test_every_schema_kind_has_a_wrong_type_row():
    kinds = {
        EVENT_SCHEMA[event_type][message.split(":")[0].split(".")[1]]
        for __, event_type, __, verdict in TABLE.values()
        if isinstance(verdict, tuple) and ": expected " in (message := verdict[1])
    }
    assert kinds == set(_VALID)
