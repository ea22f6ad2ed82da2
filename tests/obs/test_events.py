"""Unit tests for the structured event log and its schema."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.events import EVENT_SCHEMA, EventLog, validate_record
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
        validate_record(breaker_record(ts=10**400))  # an int is finite

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
