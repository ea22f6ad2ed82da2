"""Unit tests for the structured event log and its schema."""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import events as events_module
from repro.obs.events import (
    EVENT_CLASSES,
    EVENT_SCHEMA,
    BreakerEvent,
    EventLog,
    validate_record,
)
from repro.obs.recorder import Recorder


def breaker_record(**overrides):
    record = {
        "ts": 1.5,
        "type": "breaker",
        "source": "R1",
        "from": "closed",
        "to": "open",
    }
    record.update(overrides)
    return record


class TestValidation:
    def test_valid_record_passes(self):
        validate_record(breaker_record())

    def test_unknown_type_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown event type"):
            validate_record(breaker_record(type="explosion"))

    def test_missing_field_rejected(self):
        record = breaker_record()
        del record["to"]
        with pytest.raises(ObservabilityError, match="missing"):
            validate_record(record)

    def test_unexpected_field_rejected(self):
        with pytest.raises(ObservabilityError, match="unexpected"):
            validate_record(breaker_record(color="red"))

    def test_wrong_field_type_rejected(self):
        with pytest.raises(ObservabilityError, match="expected str"):
            validate_record(breaker_record(source=3))

    def test_bool_is_not_an_int(self):
        record = {
            "ts": 0.0,
            "type": "sendset",
            "round": 0,
            "step": 1,
            "source": "R1",
            "condition": "V = 'x'",
            "size": True,
        }
        with pytest.raises(ObservabilityError, match="expected int"):
            validate_record(record)

    def test_ts_must_be_numeric(self):
        with pytest.raises(ObservabilityError, match="ts"):
            validate_record(breaker_record(ts="soon"))

    def test_every_schema_type_names_known_field_types(self):
        known = {"int", "float", "str", "bool", "list[str]"}
        for fields in EVENT_SCHEMA.values():
            assert set(fields.values()) <= known


class TestEventLog:
    def test_emit_validates(self):
        log = EventLog()
        with pytest.raises(ObservabilityError):
            log.emit(0.0, "breaker", source="R1")
        assert len(log) == 0

    def test_canonical_key_order(self):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"to": "open", "from": "closed"})
        line = log.to_jsonl()
        assert line.startswith('{"ts":0.0,"type":"breaker","from":')

    def test_jsonl_roundtrip(self):
        log = EventLog()
        log.emit(
            0.5,
            "replan",
            round=1,
            optimizer="SJA+",
            sources=["R1", "R2"],
            masked=["R3"],
            estimated_cost=42.0,
        )
        log.emit(1.0, "breaker", source="R3", **{"from": "open", "to": "half-open"})
        restored = EventLog.from_jsonl(log.to_jsonl())
        assert [e.to_record() for e in restored] == [
            e.to_record() for e in log
        ]
        assert restored.to_jsonl() == log.to_jsonl()

    def test_write_and_read(self, tmp_path):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"from": "closed", "to": "open"})
        path = str(tmp_path / "events.jsonl")
        assert log.write(path) == path
        assert EventLog.read(path).to_jsonl() == log.to_jsonl()

    def test_from_jsonl_rejects_bad_json(self):
        with pytest.raises(ObservabilityError, match="line 1"):
            EventLog.from_jsonl("{not json")

    def test_from_jsonl_skips_blank_lines(self):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"from": "closed", "to": "open"})
        restored = EventLog.from_jsonl(log.to_jsonl() + "\n\n")
        assert len(restored) == 1

    def test_of_type_filters(self):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"from": "closed", "to": "open"})
        log.emit(
            0.1,
            "retry",
            round=0,
            step=2,
            source="R1",
            retries=1,
            at=0.5,
        )
        assert [e.type for e in log.of_type("retry")] == ["retry"]
        assert len(log.of_type("retry", "breaker")) == 2

    def test_event_getitem_and_get(self):
        log = EventLog()
        event = log.emit(
            0.0, "breaker", source="R1", **{"from": "closed", "to": "open"}
        )
        assert event["ts"] == 0.0
        assert event["type"] == "breaker"
        assert event["source"] == "R1"
        assert event.get("missing", "fallback") == "fallback"


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("ts", [math.inf, -math.inf, math.nan])
    def test_emit_refuses_and_records_nothing(self, ts):
        recorder = Recorder()
        with pytest.raises(ObservabilityError, match="ts must be finite"):
            recorder.emit(
                ts, "breaker", source="R1", **{"from": "closed", "to": "open"}
            )
        assert len(recorder.events) == 0
        assert recorder.metrics.to_json() == {}

    def test_validate_record_refuses(self):
        with pytest.raises(ObservabilityError, match="ts must be finite"):
            validate_record(breaker_record(ts=math.inf))
        with pytest.raises(ObservabilityError, match="ts must be finite"):
            validate_record(breaker_record(ts=10**400))  # no float is that big

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_jsonl_line_with_a_non_finite_ts_fails(self, literal):
        line = (
            f'{{"ts":{literal},"type":"breaker","from":"closed",'
            '"source":"R1","to":"open"}'
        )
        with pytest.raises(ObservabilityError, match="ts must be finite"):
            EventLog.from_jsonl(line)


# ----------------------------------------------------------------------
# The one schema check, record by record


class Count(int):
    """An ``int`` subclass: an ``int`` to the schema, not an exact one."""


_VALUES = {
    "int": st.integers(-(10**6), 10**6),
    "float": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(10**6), 10**6),  # 1 in a float field is accepted
    ),
    "str": st.text(max_size=4),
    "bool": st.booleans(),
    "list[str]": st.lists(st.text(max_size=3), max_size=3),
}

#: Values the schema refuses for each field type.
_WRONG_VALUES = {
    "int": st.sampled_from([True, False, 1.0, "1", None]),
    "float": st.sampled_from([True, "0.5", None]),
    "str": st.sampled_from([1, None, b"R1", ["R1"]]),
    "bool": st.sampled_from([1, 0, "true", None]),
    "list[str]": st.sampled_from(
        [["R1", 2], [None], ("R1",), "R1", [b"R1"], [Count(1)]]
    ),
}

#: Values of a subclass of an accepted type: accepted.
_SUBCLASS_VALUES = {
    "int": Count(7),
    "float": Count(2),
    "str": type("Name", (str,), {})("R1"),
}


@st.composite
def checked_records(draw):
    """A valid record of any event type, at most one mutation, and the
    message the schema check must raise for it (``None``: accepted)."""
    event_type = draw(st.sampled_from(sorted(EVENT_SCHEMA)))
    schema = EVENT_SCHEMA[event_type]
    record = {
        "ts": draw(st.floats(allow_nan=False, allow_infinity=False)),
        "type": event_type,
    }
    for name, kind in schema.items():
        record[name] = draw(_VALUES[kind])
    field = draw(st.sampled_from(sorted(schema)))
    kind = schema[field]
    mutation = draw(
        st.sampled_from(
            ["none", "missing", "extra", "misspelt", "wrong type",
             "subclass", "non-finite ts", "unknown type"]
        )
    )
    expected = None
    if mutation == "missing":
        del record[field]
        expected = f"{event_type}: missing fields [{field!r}], unexpected []"
    elif mutation == "extra":
        record["colour"] = "red"
        expected = f"{event_type}: missing fields [], unexpected ['colour']"
    elif mutation == "misspelt":
        record[field.upper()] = record.pop(field)
        expected = (
            f"{event_type}: missing fields [{field!r}], "
            f"unexpected [{field.upper()!r}]"
        )
    elif mutation == "wrong type":
        record[field] = value = draw(_WRONG_VALUES[kind])
        expected = f"{event_type}.{field}: expected {kind}, got {value!r}"
    elif mutation == "subclass" and kind in _SUBCLASS_VALUES:
        record[field] = _SUBCLASS_VALUES[kind]
    elif mutation == "non-finite ts":
        record["ts"] = ts = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        expected = f"{event_type}: ts must be finite, got {ts!r}"
    elif mutation == "unknown type":
        record["type"] = "explosion"
        expected = "unknown event type 'explosion'"
    return record, expected


def _verdict(check) -> str | None:
    try:
        check()
    except ObservabilityError as exc:
        return str(exc)
    return None


class TestOneSchemaCheck:
    """``validate_record``, ``EventLog.from_records`` and ``EventLog.emit``
    run one check: every record gets the verdict and the message below,
    and a refused emit records nothing."""

    @given(case=checked_records())
    @settings(max_examples=600, deadline=None)
    def test_verdict_and_message(self, case):
        record, expected = case
        assert _verdict(lambda: validate_record(record)) == expected
        assert _verdict(lambda: EventLog.from_records([record])) == expected
        fields = {
            key: value for key, value in record.items()
            if key not in ("ts", "type")
        }
        log = EventLog()
        assert _verdict(
            lambda: log.emit(record["ts"], record["type"], **fields)
        ) == expected
        if expected is None:
            assert [event.to_record() for event in log] == [record]
        else:
            assert len(log) == 0

    @pytest.mark.parametrize(
        "field, value, accepted",
        [
            ("output", True, False),  # a bool is not an int
            ("output", Count(3), True),  # an int subclass is an int
            ("remote", 1, False),  # 1 is not a bool
            ("queued", 1, True),  # 1 in a float field
            ("output", 4, True),
        ],
    )
    def test_python_type_rules(self, field, value, accepted):
        fields = dict(
            round=0, step=1, op="sq", target="X1", source="R1",
            remote=True, condition="", queued=0.0, started=0.5,
            finished=1.0, status="ok", output=2,
        )
        fields[field] = value
        log = EventLog()
        verdict = _verdict(lambda: log.emit(0.0, "op", **fields))
        assert (verdict is None) is accepted
        assert len(log) == int(accepted)
        if accepted:
            assert f'"{field}":{int(value)}' in log.to_jsonl()

    @pytest.mark.parametrize(
        "sources, accepted",
        [
            (["R1", "R2"], True),
            ([], True),
            (["R1", 2], False),
            ([Count(1)], False),
            (("R1",), False),
            ("R1", False),
        ],
    )
    def test_list_of_str_checks_every_item(self, sources, accepted):
        record = {
            "ts": 0.0, "type": "replan", "round": 0, "optimizer": "sja+",
            "sources": sources, "masked": [], "estimated_cost": 1.0,
        }
        expected = None if accepted else (
            f"replan.sources: expected list[str], got {sources!r}"
        )
        assert _verdict(lambda: validate_record(record)) == expected

    def test_missing_and_unexpected_fields_are_listed_sorted(self):
        record = breaker_record(zeta=1, alpha=2)
        del record["to"], record["from"]
        assert _verdict(lambda: validate_record(record)) == (
            "breaker: missing fields ['from', 'to'], "
            "unexpected ['alpha', 'zeta']"
        )


# ----------------------------------------------------------------------
# One generated class per event type


def _sample(event_type):
    """A deterministic valid value per field, in schema order."""
    return {
        name: {
            "int": i,
            "float": i + 0.5,
            "str": name,
            "bool": i % 2 == 0,
            "list[str]": [name, "x"],
        }[kind]
        for i, (name, kind) in enumerate(EVENT_SCHEMA[event_type].items())
    }


#: ``EventLog.emit(1.25, type, **_sample(type))`` as written by the
#: dict-based records these classes replaced: the bytes must not move.
GOLDEN_JSON = {
    "run_start": (
        '{"ts":1.25,"type":"run_start","backend":"backend","plan_ops":2,"remote_ops":3,'
        '"result":"result","round":1}'
    ),
    "attempt": (
        '{"ts":1.25,"type":"attempt","attempt":6,"condition":"condition","cost":11.5,'
        '"end":8.5,"fate":"fate","hedge":true,"items_received":13,"items_sent":12,'
        '"messages":15,"op":"op","planned":"planned","round":0,"rows_loaded":14,'
        '"source":"source","start":7.5,"step":1}'
    ),
    "sendset": (
        '{"ts":1.25,"type":"sendset","condition":"condition","round":0,"size":4,'
        '"source":"source","step":1}'
    ),
    "retry": (
        '{"ts":1.25,"type":"retry","at":4.5,"retries":3,"round":0,"source":"source","step":1}'
    ),
    "hedge": (
        '{"ts":1.25,"type":"hedge","primary":"primary","round":0,"step":1,'
        '"target":"target","trigger":"trigger"}'
    ),
    "breaker": '{"ts":1.25,"type":"breaker","from":"from","source":"source","to":"to"}',
    "quality": (
        '{"ts":1.25,"type":"quality","conflicts":6,"corrupt":4,"delivered":2,'
        '"duplicates":5,"kept":3,"score":7.5,"source":"source","step":0}'
    ),
    "quarantine": (
        '{"ts":1.25,"type":"quarantine","action":"action","answers":3,"score":2.5,'
        '"source":"source"}'
    ),
    "op": (
        '{"ts":1.25,"type":"op","condition":"condition","finished":9.5,"op":"op",'
        '"output":11,"queued":7.5,"remote":false,"round":0,"source":"source",'
        '"started":8.5,"status":"status","step":1,"target":"target"}'
    ),
    "run_end": (
        '{"ts":1.25,"type":"run_end","backend":"backend","cost":7.5,"degraded":4,'
        '"hedges":6,"items":8,"makespan":2.5,"recovered":5,"retries":3,"round":1}'
    ),
    "replan": (
        '{"ts":1.25,"type":"replan","estimated_cost":4.5,"masked":["masked","x"],'
        '"optimizer":"optimizer","round":0,"sources":["sources","x"]}'
    ),
    "shed": (
        '{"ts":1.25,"type":"shed","deadline":4.5,"predicted":3.5,"query":0,'
        '"reason":"reason","tenant":"tenant"}'
    ),
    "deadline": (
        '{"ts":1.25,"type":"deadline","budget":3.5,"overrun":4.5,"query":0,'
        '"stage":"stage","tenant":"tenant"}'
    ),
    "plan": (
        '{"ts":1.25,"type":"plan","cache":"cache","elapsed":6.5,"exhausted":false,'
        '"query":0,"strategy":"strategy","subsets":5,"tenant":"tenant","trace":"trace"}'
    ),
    "phases": (
        '{"ts":1.25,"type":"phases","exec_backoff":8.5,"exec_wait":6.5,"exec_wire":7.5,'
        '"merge":9.5,"plan":4.5,"pool":5.5,"query":0,"queue":3.5,"tenant":"tenant",'
        '"total":10.5,"trace":"trace"}'
    ),
    "serve": (
        '{"ts":1.25,"type":"serve","detail":"detail","in_flight":4,"latency":6.5,'
        '"phase":"phase","query":1,"queue_depth":3,"tenant":"tenant"}'
    ),
}


class TestEventClasses:
    def test_one_class_per_schema_type(self):
        assert list(EVENT_CLASSES) == list(EVENT_SCHEMA) == list(GOLDEN_JSON)
        for event_type, cls in EVENT_CLASSES.items():
            assert cls.type == event_type
            assert cls.__name__ == event_type.title().replace("_", "") + "Event"
            # Importable by its name, so an event pickles by reference.
            assert getattr(events_module, cls.__name__) is cls

    @pytest.mark.parametrize("event_type", sorted(EVENT_SCHEMA))
    def test_fields_are_the_schema_in_order(self, event_type):
        cls = EVENT_CLASSES[event_type]
        assert cls.FIELDS == tuple(EVENT_SCHEMA[event_type])
        parameters = list(inspect.signature(cls).parameters)
        attributes = [name + "_" if name == "from" else name for name in cls.FIELDS]
        assert parameters == ["ts", *attributes]
        assert cls.__slots__ == tuple(attributes)

    @pytest.mark.parametrize("event_type", sorted(EVENT_SCHEMA))
    def test_to_json_keeps_the_bytes(self, event_type):
        cls = EVENT_CLASSES[event_type]
        fields = _sample(event_type)
        event = cls(1.25, *fields.values())
        assert event.to_json() == GOLDEN_JSON[event_type]
        emitted = EventLog().emit(1.25, event_type, **fields)
        assert emitted == event and emitted.__class__ is cls
        (read,) = EventLog.from_jsonl(GOLDEN_JSON[event_type]).events
        assert read == event and read.__class__ is cls

    def test_a_keyword_field_is_an_identifier_attribute(self):
        event = BreakerEvent(0.5, "R1", "closed", "open")
        assert (event.source, event.from_, event.to) == ("R1", "closed", "open")
        assert event["from"] == "closed" and event.get("from_") is None
        assert repr(event) == (
            "BreakerEvent(ts=0.5, source='R1', from_='closed', to='open')"
        )

    def test_equality_is_same_type_same_values(self):
        event = BreakerEvent(0.5, "R1", "closed", "open")
        assert event == BreakerEvent(0.5, "R1", "closed", "open")
        assert event != BreakerEvent(0.5, "R1", "closed", "half-open")
        assert event != BreakerEvent(0.6, "R1", "closed", "open")
        assert event != EVENT_CLASSES["quarantine"](0.5, "R1", "closed", 1.0, 1)

    def test_the_constructor_is_the_schema_check(self):
        with pytest.raises(ObservabilityError) as raised:
            BreakerEvent(math.nan, "R1", "closed", "open")
        assert str(raised.value) == "breaker: ts must be finite, got nan"
        with pytest.raises(ObservabilityError) as raised:
            BreakerEvent(0.5, "R1", None, "open")
        assert str(raised.value) == "breaker.from: expected str, got None"
