"""Spans render the runtime trace, the one fold of a run's records:
pinned golden forests for every marker kind, pinned critical paths,
recoverability from a persisted log, and the rendering's id allocation
rules."""

from __future__ import annotations

import ast
import hashlib
import sys
from pathlib import Path

import repro

from repro.obs.events import EVENT_SCHEMA, ROUND_STAMPED, Event, EventLog
from repro.obs.spans import (
    EXECUTE_SPAN_ID,
    FIRST_ENGINE_SPAN_ID,
    PHASES,
    Span,
    analyze_trace,
    execute_spans,
)
from repro.query.fusion import FusionQuery
from repro.runtime.engine import Resilience
from repro.runtime.faults import DataFaultProfile, FaultProfile, Faults
from repro.runtime.health import BreakerConfig
from repro.runtime.policy import OnExhaust, RetryPolicy
from repro.runtime.trace import RuntimeTrace
from repro.serve import MediatorService
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)


def fold_then_render(trace_id: str, events, offset_s: float):
    """The ``execute`` subtree of ``events``: each round present folded
    by :meth:`RuntimeTrace.from_events`, the traces rendered in round
    order.  Returns the spans, the ``(step, op span)`` pairs and the
    children by op span id."""
    events = list(events)
    rounds = sorted({e.round for e in events if e.type in ROUND_STAMPED}) or [0]
    traces = [RuntimeTrace.from_events(events, number) for number in rounds]
    return execute_spans(trace_id, traces, offset_s)


def render(trace_id: str, events, offset_s: float) -> list[Span]:
    return fold_then_render(trace_id, events, offset_s)[0]


def one_condition_query() -> FusionQuery:
    """Fig. 1's first condition alone: three selections and a union —
    the smallest plan that still fans out over every source."""
    __, query = dmv_fig1()
    return FusionQuery("L", query.conditions[:1], name="one")


def resilience_service() -> tuple[MediatorService, object, float]:
    service = MediatorService(
        replicate_federation(dmv_fig1()[0], 2),
        seed=45,
        faults=Faults(wire=FaultProfile.flaky(0.6)),
        resilience=Resilience(
            hedge_delay_s=2.0, breaker=BreakerConfig.aggressive()
        ),
    )
    return service, one_condition_query(), 1.5


def verify_service() -> tuple[MediatorService, object, float]:
    service = MediatorService(
        dmv_fig1()[0],
        seed=2,
        faults=Faults(data={"R2": DataFaultProfile(corrupt_rate=1.0)}),
        resilience=Resilience(quarantine=True, verify="sanitize"),
    )
    # R2 has served two tainted answers before, so the third — inside
    # the served query — is the evidence that quarantines it.
    for __ in range(2):
        service.health.record_quality("R2", 0.0, clean=False)
    return service, one_condition_query(), 0.5


def semijoin_service() -> tuple[MediatorService, object, float]:
    config = SyntheticConfig(n_sources=2, n_entities=40, seed=5, categories=3)
    service = MediatorService(build_synthetic(config), seed=5)
    return service, synthetic_query(config, 2, seed=5), 0.25


def serve_one(scenario):
    service, query, at_s = scenario()
    ticket = service.submit(query, at_s=at_s)
    service.run_until_idle()
    assert ticket.status == "done"
    return service, ticket


def _round(value):
    return round(value, 9) if isinstance(value, float) else value


def engine_forest(spans) -> list[tuple]:
    """Engine spans as plain tuples in append order, floats rounded to
    the nanosecond so the goldens read as the engine's cost arithmetic
    (0.701, not 0.7010000000000001)."""
    return [
        (
            s.span_id, s.parent_id, s.name, _round(s.start_s), _round(s.end_s),
            {key: _round(value) for key, value in s.attributes.items()},
        )
        for s in spans
        if s.span_id >= FIRST_ENGINE_SPAN_ID
    ]


def attempt(number, source, fate, cost, hedge=False) -> dict:
    return {
        "attempt": number, "source": source, "fate": fate,
        "hedge": hedge, "cost": cost,
    }


def op(step, kind, source, status, output, started) -> dict:
    return {
        "step": step, "op": kind, "source": source, "remote": bool(source),
        "status": status, "output": output, "started": started,
    }


EXEC = EXECUTE_SPAN_ID

#: attempt, hedge, backoff, breaker, and an op (step 2, span 8) whose id
#: is reserved by its first attempt and closed three attempts, two
#: backoffs and a hedge later — after every sibling op.
RESILIENCE_FOREST = [
    (9, 8, "attempt", 1.5, 1.7, attempt(1, "R2", "transient", 11.0)),
    (10, 8, "hedge", 1.7, 1.7,
     {"primary": "R2", "target": "R2~1", "trigger": "failure"}),
    (11, 8, "backoff", 1.7, 1.8, {"source": "R2", "retries": 1}),
    (13, 12, "attempt", 1.5, 1.7, attempt(1, "R3", "ok", 10.0)),
    (12, EXEC, "op", 1.5, 1.7, op(3, "sq", "R3", "ok", 0, 1.5)),
    (15, 14, "attempt", 1.5, 1.702, attempt(1, "R1", "ok", 12.0)),
    (14, EXEC, "op", 1.5, 1.702, op(1, "sq", "R1", "ok", 2, 1.5)),
    (16, 8, "attempt", 1.7, 1.9,
     attempt(2, "R2~1", "transient", 11.0, hedge=True)),
    (17, 8, "attempt", 1.8, 2.0, attempt(3, "R2", "transient", 11.0)),
    (18, EXEC, "breaker", 2.0, 2.0,
     {"source": "R2", "from": "closed", "to": "open"}),
    (19, 8, "backoff", 2.0, 2.2, {"source": "R2", "retries": 2}),
    (20, 8, "attempt", 2.2, 2.401, attempt(4, "R2~1", "ok", 11.0)),
    (8, EXEC, "op", 1.5, 2.401, op(2, "sq", "R2", "recovered", 1, 1.5)),
    (21, EXEC, "op", 2.401, 2.401, op(4, "union", "", "ok", 3, 2.401)),
]

#: quarantine (with the breaker transition it forces) and a tainted
#: verify; the clean answers of R1 and R3 emit no event, hence no span.
VERIFY_FOREST = [
    (9, 8, "attempt", 0.5, 0.7, attempt(1, "R3", "ok", 10.0)),
    (8, EXEC, "op", 0.5, 0.7, op(3, "sq", "R3", "ok", 0, 0.5)),
    (11, 10, "attempt", 0.5, 0.701, attempt(1, "R2", "ok", 11.0)),
    (12, EXEC, "breaker", 0.701, 0.701,
     {"source": "R2", "from": "closed", "to": "quarantined"}),
    (13, EXEC, "quarantine", 0.701, 0.701,
     {"source": "R2", "action": "enter"}),
    (14, 10, "verify", 0.701, 0.701,
     {"source": "R2", "outcome": "tainted", "kept": 0, "dropped": 1}),
    (10, EXEC, "op", 0.5, 0.701, op(2, "sq", "R2", "ok", 0, 0.5)),
    (16, 15, "attempt", 0.5, 0.702, attempt(1, "R1", "ok", 12.0)),
    (15, EXEC, "op", 0.5, 0.702, op(1, "sq", "R1", "ok", 2, 0.5)),
    (17, EXEC, "op", 0.702, 0.702, op(4, "union", "", "ok", 2, 0.702)),
]

#: sendset: each semijoin ships its binding set before its attempt (the
#: engine emits the event for ``SemijoinOp`` only, so these two rows are
#: also the proof that the synthetic plan contains semijoins).
SEMIJOIN_FOREST = [
    (9, 8, "attempt", 0.25, 0.451, attempt(1, "S001", "ok", 11.0)),
    (8, EXEC, "op", 0.25, 0.451, op(2, "sq", "S001", "ok", 1, 0.25)),
    (11, 10, "attempt", 0.25, 0.453, attempt(1, "S000", "ok", 13.0)),
    (10, EXEC, "op", 0.25, 0.453, op(1, "sq", "S000", "ok", 3, 0.25)),
    (12, EXEC, "op", 0.453, 0.453, op(3, "union", "", "ok", 4, 0.453)),
    (14, 13, "sendset", 0.453, 0.453, {"source": "S000", "size": 4}),
    (15, 13, "attempt", 0.453, 0.66, attempt(1, "S000", "ok", 17.0)),
    (13, EXEC, "op", 0.453, 0.66, op(4, "sjq", "S000", "ok", 3, 0.453)),
    (16, EXEC, "op", 0.66, 0.66, op(5, "difference", "", "ok", 1, 0.66)),
    (18, 17, "sendset", 0.66, 0.66, {"source": "S001", "size": 1}),
    (19, 17, "attempt", 0.66, 0.861, attempt(1, "S001", "ok", 11.0)),
    (17, EXEC, "op", 0.66, 0.861, op(6, "sjq", "S001", "ok", 0, 0.66)),
    (20, EXEC, "op", 0.861, 0.861, op(7, "union", "", "ok", 3, 0.861)),
    (21, EXEC, "op", 0.861, 0.861, op(8, "intersect", "", "ok", 3, 0.861)),
]

SCENARIOS = [
    (resilience_service, RESILIENCE_FOREST),
    (verify_service, VERIFY_FOREST),
    (semijoin_service, SEMIJOIN_FOREST),
]


class TestGoldenForests:
    def test_served_forests_match_the_pinned_tuples(self):
        for scenario, golden in SCENARIOS:
            service, ticket = serve_one(scenario)
            spans = service.spans.for_trace(ticket.trace_id)
            assert engine_forest(spans) == golden, scenario.__name__
            assert all(
                s.category == "execute"
                for s in spans
                if s.span_id >= FIRST_ENGINE_SPAN_ID
            )

    def test_goldens_cover_every_marker_kind(self):
        names = {row[2] for __, golden in SCENARIOS for row in golden}
        assert names == {
            "op", "attempt", "sendset", "backoff", "hedge",
            "breaker", "verify", "quarantine",
        }


#: Each scenario's ``phases`` record as JSONL, its ``ticket.phases`` and
#: its critical path (phase, start, end, detail), rounded like the
#: forests: the attribution the completion step writes, byte for byte.
RESILIENCE_PHASES = (
    '{"ts":2.401,"type":"phases","exec_backoff":0.20000000000000018,'
    '"exec_wait":0.0,"exec_wire":0.7009999999999996,"merge":0.0,"plan":0.0,'
    '"pool":0.0,"query":0,"queue":0.0,"tenant":"default",'
    '"total":0.9009999999999998,"trace":"38b0f728590780c5"}',
    {
        "admission": 0.0, "queue": 0.0, "plan": 0.0, "pool": 0.0,
        "exec.wait": 0.0, "exec.wire": 0.7009999999999996,
        "exec.backoff": 0.20000000000000018, "merge": 0.0,
    },
    [
        ("exec.wire", 1.5, 2.0, "R2"),
        ("exec.backoff", 2.0, 2.2, "R2"),
        ("exec.wire", 2.2, 2.401, "R2"),
        ("merge", 2.401, 2.401, "op"),
    ],
)

VERIFY_PHASES = (
    '{"ts":0.702,"type":"phases","exec_backoff":0.0,"exec_wait":0.0,'
    '"exec_wire":0.20199999999999996,"merge":0.0,"plan":0.0,"pool":0.0,'
    '"query":0,"queue":0.0,"tenant":"default","total":0.20199999999999996,'
    '"trace":"ee4b135308a7ae87"}',
    {
        "admission": 0.0, "queue": 0.0, "plan": 0.0, "pool": 0.0,
        "exec.wait": 0.0, "exec.wire": 0.20199999999999996,
        "exec.backoff": 0.0, "merge": 0.0,
    },
    [("exec.wire", 0.5, 0.702, "R1"), ("merge", 0.702, 0.702, "op")],
)

SEMIJOIN_PHASES = (
    '{"ts":0.861,"type":"phases","exec_backoff":0.0,"exec_wait":0.0,'
    '"exec_wire":0.611,"merge":0.0,"plan":0.0,"pool":0.0,"query":0,'
    '"queue":0.0,"tenant":"default","total":0.611,'
    '"trace":"7962a0e836648f7f"}',
    {
        "admission": 0.0, "queue": 0.0, "plan": 0.0, "pool": 0.0,
        "exec.wait": 0.0, "exec.wire": 0.611, "exec.backoff": 0.0,
        "merge": 0.0,
    },
    [
        ("exec.wire", 0.25, 0.453, "S000"),
        ("merge", 0.453, 0.453, "op"),
        ("exec.wire", 0.453, 0.66, "S000"),
        ("merge", 0.66, 0.66, "op"),
        ("exec.wire", 0.66, 0.861, "S001"),
        ("merge", 0.861, 0.861, "op"),
        ("merge", 0.861, 0.861, "op"),
    ],
)

PHASE_SCENARIOS = [
    (resilience_service, RESILIENCE_PHASES),
    (verify_service, VERIFY_PHASES),
    (semijoin_service, SEMIJOIN_PHASES),
]

#: sha256 of the ``phases`` JSONL of serve_point's seed-16 smoke
#: arrivals, calm and under wire faults + breakers + deadlines (the
#: configurations of CI's read-back step).
SERVE_POINT_PHASES_SHA256 = {
    "calm": "070aa8aeaaa5229457fc17861ffa18edab187e2a3487d88dc1a5e76d7c3dc3c5",
    "faulty": "f55d8ac305975cd3372e7fa7d504c05d164192587ac70fdf3aaf5a4c221b1f56",
}


class TestGoldenCriticalPaths:
    def test_phases_records_tickets_and_slices_match_the_pins(self):
        for scenario, (record, phases, slices) in PHASE_SCENARIOS:
            service, ticket = serve_one(scenario)
            written = service.recorder.events.of_type("phases")
            assert [e.to_json() for e in written] == [record], scenario.__name__
            assert ticket.phases == phases, scenario.__name__
            path = analyze_trace(service.spans.for_trace(ticket.trace_id))
            assert [
                (s.phase, _round(s.start_s), _round(s.end_s), s.detail)
                for s in path.slices
            ] == slices, scenario.__name__

    def test_serve_point_smoke_phases_match_the_pinned_digest(self):
        root = Path(__file__).resolve().parents[2]
        sys.path.insert(0, str(root / "benchmarks" / "e2e"))
        try:
            from workloads import TENANTS, WORKLOADS, PlainKit
        finally:
            sys.path.remove(str(root / "benchmarks" / "e2e"))
        configs = {
            "calm": ({}, None),
            "faulty": (
                {
                    "faults": Faults(wire=FaultProfile.flaky(0.2)),
                    "shed_policy": "none",
                    "resilience": Resilience(
                        breaker=BreakerConfig.aggressive()
                    ),
                },
                3.0,
            ),
        }
        workload = WORKLOADS["serve_point"](16, smoke=True)
        state = workload.build(PlainKit(), lambda: None)
        for name, (options, deadline) in configs.items():
            service = MediatorService(
                state.federation, mode="deterministic", tenants=TENANTS,
                pool_slots=2, queue_limit=64, seed=16,
                statistics=state.statistics, **options,
            )
            for arrival in workload.arrivals:
                service.submit(
                    arrival.sql, tenant=arrival.tenant, at_s=arrival.at_s,
                    deadline_s=deadline,
                )
            service.run_until_idle()
            lines = [
                e.to_json() for e in service.recorder.events.of_type("phases")
            ]
            assert len(lines) == len(workload.arrivals), name
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            assert digest == SERVE_POINT_PHASES_SHA256[name], name


def failing_service(seed: int) -> tuple[MediatorService, object, float]:
    """Fig. 1 with a retry budget of one and ``on_exhaust=FAIL``: the
    engine raises, and the ticket fails at its dispatch instant."""
    federation, query = dmv_fig1()
    service = MediatorService(
        federation,
        seed=seed,
        faults=Faults(wire=FaultProfile.flaky(0.6)),
        resilience=Resilience(
            policy=RetryPolicy(max_retries=1, on_exhaust=OnExhaust.FAIL)
        ),
    )
    return service, query, 0.5


def aborted(step) -> dict:
    return {"step": step, "status": "aborted"}


#: Seed 0 raises with all three loads still open; seed 2 after R2's
#: load and two local selections closed.  An op the raise left open is
#: closed as ``aborted`` over its children, after every other span.
FAILED_FORESTS = {
    0: [
        (9, 8, "attempt", 0.5, 0.7, attempt(1, "R1", "transient", 16.0)),
        (10, 8, "backoff", 0.7, 0.8, {"source": "R1", "retries": 1}),
        (12, 11, "attempt", 0.5, 0.7, attempt(1, "R2", "transient", 16.0)),
        (13, 11, "backoff", 0.7, 0.8, {"source": "R2", "retries": 1}),
        (15, 14, "attempt", 0.5, 0.7, attempt(1, "R3", "transient", 16.0)),
        (16, 14, "backoff", 0.7, 0.8, {"source": "R3", "retries": 1}),
        (17, 11, "attempt", 0.8, 1.0, attempt(2, "R2", "transient", 16.0)),
        (8, EXEC, "op", 0.5, 0.8, aborted(1)),
        (11, EXEC, "op", 0.5, 1.0, aborted(2)),
        (14, EXEC, "op", 0.5, 0.8, aborted(3)),
    ],
    2: [
        (9, 8, "attempt", 0.5, 0.7, attempt(1, "R1", "transient", 16.0)),
        (10, 8, "backoff", 0.7, 0.8, {"source": "R1", "retries": 1}),
        (12, 11, "attempt", 0.5, 0.7, attempt(1, "R3", "transient", 16.0)),
        (13, 11, "backoff", 0.7, 0.8, {"source": "R3", "retries": 1}),
        (15, 14, "attempt", 0.5, 0.703, attempt(1, "R2", "ok", 16.0)),
        (14, EXEC, "op", 0.5, 0.703, op(2, "lq", "R2", "ok", 3, 0.5)),
        (16, EXEC, "op", 0.703, 0.703, op(5, "local-sq", "", "ok", 1, 0.703)),
        (17, EXEC, "op", 0.703, 0.703, op(9, "local-sq", "", "ok", 2, 0.703)),
        (18, 8, "attempt", 0.8, 1.0, attempt(2, "R1", "transient", 16.0)),
        (8, EXEC, "op", 0.5, 1.0, aborted(1)),
        (11, EXEC, "op", 0.5, 0.8, aborted(3)),
    ],
}

#: A failed ticket completes at its dispatch instant: a zero-length
#: trace, every phase 0.0.
FAILED_PHASES = {
    0: '{"ts":0.5,"type":"phases","exec_backoff":0.0,"exec_wait":0.0,'
    '"exec_wire":0.0,"merge":0.0,"plan":0.0,"pool":0.0,"query":0,'
    '"queue":0.0,"tenant":"default","total":0.0,"trace":"2848d6a4a7b28bc1"}',
    2: '{"ts":0.5,"type":"phases","exec_backoff":0.0,"exec_wait":0.0,'
    '"exec_wire":0.0,"merge":0.0,"plan":0.0,"pool":0.0,"query":0,'
    '"queue":0.0,"tenant":"default","total":0.0,"trace":"ee4b135308a7ae87"}',
}


class TestAServedRunThatRaised:
    def test_forest_phases_and_phases_record_match_the_pins(self):
        for seed, golden in FAILED_FORESTS.items():
            service, query, at_s = failing_service(seed)
            ticket = service.submit(query, at_s=at_s)
            service.run_until_idle()
            assert ticket.status == "failed", seed
            assert ticket.error.startswith("ExecutionError: "), seed
            spans = service.spans.for_trace(ticket.trace_id)
            assert engine_forest(spans) == golden, seed
            assert ticket.phases == dict.fromkeys(PHASES, 0.0), seed
            written = service.recorder.events.of_type("phases")
            assert [e.to_json() for e in written] == [FAILED_PHASES[seed]], seed

    def test_the_persisted_log_renders_the_live_spans(self):
        service, query, at_s = failing_service(0)
        ticket = service.submit(query, at_s=at_s)
        service.run_until_idle()
        assert ticket.status == "failed"
        live = [
            span
            for span in service.spans.for_trace(ticket.trace_id)
            if span.span_id >= FIRST_ENGINE_SPAN_ID
        ]
        log = EventLog.from_jsonl(service.recorder.events.to_jsonl())
        runs = RuntimeTrace.runs(log.events)
        assert len(runs) == 1 and runs[0].spans == ()
        reread = execute_spans(ticket.trace_id, runs, ticket.dispatched_s)[0]
        assert len(live) == 10
        assert reread == live


class TestRecoverableFromAPersistedLog:
    def test_fold_of_reloaded_jsonl_equals_fold_of_live_events(self):
        for scenario, golden in SCENARIOS:
            service, ticket = serve_one(scenario)
            log = service.recorder.events
            # The whole single-query stream is a superset of the run's
            # slice: spanless events are skipped, not counted.
            live = render(
                ticket.trace_id, log.events, ticket.dispatched_s
            )
            reloaded = render(
                ticket.trace_id,
                EventLog.from_jsonl(log.to_jsonl()).events,
                ticket.dispatched_s,
            )
            assert reloaded == live
            assert engine_forest(reloaded) == golden

    def test_a_span_exists_iff_an_event_exists(self):
        for scenario, __ in SCENARIOS:
            service, ticket = serve_one(scenario)
            spanned = service.recorder.events.of_type(
                "sendset", "attempt", "retry", "hedge", "breaker",
                "quality", "quarantine", "op",
            )
            spans = render(
                ticket.trace_id, service.recorder.events, ticket.dispatched_s
            )
            assert len(spans) == len(spanned)


#: A placeholder value of each schema kind, for the fields a test
#: leaves out.
_PLACEHOLDER = {"int": 0, "float": 0.0, "str": "", "bool": False, "list[str]": []}


def _event(ts, event_type, **fields) -> Event:
    schema = EVENT_SCHEMA[event_type]
    full = {name: _PLACEHOLDER[kind] for name, kind in schema.items()}
    full.update(fields)
    return EventLog().emit(ts, event_type, **full)


def _op_event(ts, round_no, step) -> Event:
    return _event(
        ts, "op", round=round_no, step=step, op="sq", target="X",
        source="R1", remote=True, condition="", queued=0.0, started=0.0,
        finished=1.0, status="ok", output=0,
    )


class TestFoldRules:
    def test_rounds_restart_step_numbering_without_sharing_op_ids(self):
        events = [
            _op_event(1.0, 0, 1),
            _event(1.0, "run_end", round=0),
            _op_event(2.0, 1, 1),
            # A quality event carries no round: it inherits round 1.
            _event(
                2.0, "quality", step=1, source="R1", delivered=3, kept=1,
                corrupt=2, duplicates=0, conflicts=0, score=0.5,
            ),
        ]
        first, second, verify = render("t", events, 10.0)
        assert (first.span_id, second.span_id) == (8, 9)
        assert verify.parent_id == second.span_id
        assert verify.attributes["dropped"] == 2
        # Engine-local fields are offset; ``ts`` already was.
        assert (first.start_s, first.end_s) == (10.0, 11.0)
        assert verify.start_s == 2.0

    def test_health_markers_parent_under_execute(self):
        events = [
            _event(0.5, "breaker", source="R1", **{"from": "closed", "to": "open"}),
            _event(0.5, "serve", phase="dispatched"),
        ]
        (marker,) = render("t", events, 0.0)
        assert marker.parent_id == EXECUTE_SPAN_ID
        assert marker.span_id == FIRST_ENGINE_SPAN_ID
        assert dict(marker.attributes) == {
            "source": "R1", "from": "closed", "to": "open",
        }

    def test_ops_left_open_by_a_raising_run_are_closed_as_aborted(self):
        attempt_fields = dict(
            round=0, step=4, op="sq", planned="R1", source="R1",
            condition="", attempt=1, start=0.0, end=0.2, fate="transient",
            hedge=False, cost=1.0, items_sent=0, items_received=0,
            rows_loaded=0, messages=1,
        )
        events = [
            _event(5.2, "attempt", **attempt_fields),
            _event(5.2, "retry", round=0, step=4, source="R1", retries=1, at=0.5),
            # ... and the engine raised: no ``op`` event for step 4.
        ]
        spans = render("t", events, 5.0)
        assert [s.name for s in spans] == ["attempt", "backoff", "op"]
        closing = spans[-1]
        assert closing.span_id == spans[0].parent_id == spans[1].parent_id
        assert closing.parent_id == EXECUTE_SPAN_ID
        assert (closing.start_s, closing.end_s) == (5.0, 5.5)
        assert dict(closing.attributes) == {"step": 4, "status": "aborted"}


# ----------------------------------------------------------------------
# One fold per run: spans are rendered from the trace, never re-read
# from the event stream.

SRC = Path(repro.__file__).parent


def events_imports(tree: ast.AST) -> list[int]:
    """Lines importing ``repro.obs.events`` or anything from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro.obs.events" or (
                module == "repro.obs"
                and any(alias.name == "events" for alias in node.names)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name == "repro.obs.events" for alias in node.names):
                lines.append(node.lineno)
    return lines


def _names_recorder(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "recorder") or (
        isinstance(node, ast.Attribute) and node.attr == "recorder"
    )


def recorder_events_subscripts(tree: ast.AST) -> list[int]:
    """Lines indexing or slicing a recorder's event log (``recorder.events[...]``,
    ``recorder.events.events[...]``, however the recorder is reached)."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            for inner in ast.walk(node.value)
            if isinstance(inner, ast.Attribute)
            and inner.attr == "events"
            and _names_recorder(inner.value)
        }
    )


class TestWrittenInOnePlace:
    def test_spans_import_nothing_from_the_event_schema(self):
        tree = ast.parse((SRC / "obs" / "spans.py").read_text())
        assert events_imports(tree) == []

    def test_the_service_never_slices_a_recorder_stream(self):
        tree = ast.parse((SRC / "serve" / "service.py").read_text())
        assert recorder_events_subscripts(tree) == []

    def test_the_checks_see_each_spelling(self):
        imports = ast.parse(
            "from repro.obs.events import Event\n"
            "from repro.obs import events\n"
            "import repro.obs.events\n"
            "from repro.obs import EventLog\n"
        )
        assert events_imports(imports) == [1, 2, 3]
        slices = ast.parse(
            "recorder.events.events[3:]\n"
            "self.recorder.events[0]\n"
            "mediator.recorder.events.events[start:stop]\n"
            "len(recorder.events)\n"
            "ticket.events[0]\n"
        )
        assert recorder_events_subscripts(slices) == [1, 2, 3]
