"""Causal tracing through the serving tier: trace ids, span trees,
critical-path exactness, and the tracing off-switch."""

from __future__ import annotations

import json

import pytest

from repro.obs.spans import (
    EXECUTE_SPAN_ID,
    ROOT_SPAN_ID,
    analyze_log,
    analyze_trace,
    derive_trace_id,
    validate_chrome_trace,
)
from repro.runtime.engine import Resilience
from repro.runtime.faults import FaultProfile, Faults
from repro.runtime.health import BreakerConfig
from repro.serve import (
    MediatorService,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
)
from repro.sources.generators import dmv_fig1

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


@pytest.fixture()
def federation():
    fed, __ = dmv_fig1()
    return fed


def serve(federation, count=6, seed=11, **kwargs):
    service = MediatorService(
        federation,
        mode="deterministic",
        pool_slots=kwargs.pop("pool_slots", 2),
        seed=seed,
        **kwargs,
    )
    spec = WorkloadSpec(
        queries=(DMV_SQL,), count=count, rate_qps=6.0, seed=seed
    )
    report = run_workload(service, generate_arrivals(spec))
    return service, report


class TestTraceIds:
    def test_every_ticket_gets_a_derived_trace_id(self, federation):
        service, report = serve(federation)
        assert report.completed == report.submitted
        for ticket in service.tickets:
            assert ticket.trace_id == derive_trace_id(
                service.seed, ticket.seq
            )

    def test_trace_ids_partition_the_span_forest(self, federation):
        service, __ = serve(federation)
        expected = {t.trace_id for t in service.tickets}
        assert set(service.spans.trace_ids()) == expected


class TestSpanTrees:
    def test_each_trace_has_the_serve_skeleton(self, federation):
        service, __ = serve(federation)
        for ticket in service.tickets:
            spans = service.spans.for_trace(ticket.trace_id)
            names = {s.name for s in spans if s.span_id <= 7}
            assert names == {
                "query", "admission", "queue", "plan", "pool",
                "execute", "merge",
            }
            root = next(s for s in spans if s.span_id == ROOT_SPAN_ID)
            assert root.start_s == pytest.approx(ticket.submitted_s)
            assert root.end_s == pytest.approx(ticket.completed_s)

    def test_engine_ops_parent_under_execute(self, federation):
        service, __ = serve(federation)
        ops = [
            s
            for s in service.spans
            if s.name == "op" and s.category == "execute"
        ]
        assert ops
        assert all(s.parent_id == EXECUTE_SPAN_ID for s in ops)

    def test_plan_span_carries_cache_attribution(self, federation):
        service, __ = serve(federation)
        cache_values = set()
        for s in service.spans:
            if s.name == "plan":
                cache_values.add(s.attributes.get("cache"))
        # First query misses, repeats hit — both visible as attributes.
        assert {"hit", "miss"} <= cache_values

    def test_chrome_export_round_trips(self, federation, tmp_path):
        service, __ = serve(federation)
        path = service.spans.write_chrome_trace(
            str(tmp_path / "trace.json")
        )
        data = json.loads(open(path, encoding="utf-8").read())
        assert validate_chrome_trace(data) == len(service.spans)


class TestCriticalPathExactness:
    def test_phases_sum_to_latency_for_every_query(self, federation):
        service, __ = serve(federation, count=10, pool_slots=1)
        for ticket in service.tickets:
            assert ticket.phases, f"query #{ticket.seq} has no attribution"
            assert sum(ticket.phases.values()) == pytest.approx(
                ticket.latency_s, abs=1e-9
            )

    def test_report_collects_phase_latencies(self, federation):
        __, report = serve(federation, count=10, pool_slots=1)
        assert report.phase_latencies_s
        assert report.critical_contributors
        assert report.dominant_phase(99)
        assert "critical-path latency by phase" in report.phase_breakdown()

    def test_analyzer_agrees_with_tickets(self, federation):
        service, __ = serve(federation)
        paths = analyze_log(service.spans)
        for ticket in service.tickets:
            path = paths[ticket.trace_id]
            assert path.total_s == pytest.approx(ticket.latency_s, abs=1e-9)
            assert path.by_phase() == ticket.phases

    @pytest.mark.parametrize("seed", range(8))
    def test_analyzer_agrees_with_the_completion_path_under_faults(self, seed):
        # Retries, backoffs, hedges, breakers and deadline cuts on a
        # replicated federation: the attribution written at completion
        # (from the span folds) equals the one read back from the log,
        # float for float, ``phases`` record included.
        from repro.sources.generators import replicate_federation

        service, __ = serve(
            replicate_federation(dmv_fig1()[0], 2),
            count=10,
            seed=seed,
            pool_slots=1 + seed % 3,
            faults=Faults(wire=FaultProfile.flaky(0.2 + 0.1 * (seed % 4))),
            resilience=Resilience(
                hedge_delay_s=2.0 if seed % 2 else None,
                breaker=BreakerConfig.aggressive(),
            ),
        )
        paths = analyze_log(service.spans)
        records = {
            event.trace: event
            for event in service.recorder.events.of_type("phases")
        }
        for ticket in service.tickets:
            path = paths[ticket.trace_id]
            assert path.by_phase() == ticket.phases
            assert path.total_s == records[ticket.trace_id].total


class TestDeterministicReplay:
    def test_same_seed_exports_byte_identical_traces(self, federation):
        exports = []
        for __ in range(2):
            service, __r = serve(federation, count=8, seed=23)
            exports.append(service.spans.to_chrome_json())
        assert exports[0] == exports[1]

    def test_different_seed_diverges(self, federation):
        service_a, __ = serve(federation, count=8, seed=23)
        service_b, __ = serve(federation, count=8, seed=24)
        assert (
            service_a.spans.to_chrome_json()
            != service_b.spans.to_chrome_json()
        )


class TestTracingOff:
    def test_off_switch_disables_spans_and_ids(self, federation):
        service, report = serve(federation, tracing=False)
        assert service.spans is None
        assert report.completed == report.submitted
        for ticket in service.tickets:
            assert ticket.trace_id == ""
            assert ticket.phases == {}
        assert report.phase_latencies_s == {}
        assert "no traced queries" in report.phase_breakdown()

    def test_off_switch_emits_no_plan_or_phase_events(self, federation):
        service, __ = serve(federation, tracing=False)
        assert not service.recorder.events.of_type("plan", "phases")


class TestThreadModeTracing:
    def test_threads_produce_valid_trees_with_exact_sums(self, federation):
        service = MediatorService(
            federation, mode="threads", workers=2, seed=5
        )
        try:
            spec = WorkloadSpec(
                queries=(DMV_SQL,), count=5, rate_qps=50.0, seed=5
            )
            report = run_workload(service, generate_arrivals(spec))
        finally:
            service.close()
        assert report.completed == 5
        assert validate_chrome_trace(
            service.spans.to_chrome_trace()
        ) == len(service.spans)
        for ticket in service.tickets:
            assert ticket.trace_id
            assert sum(ticket.phases.values()) == pytest.approx(
                ticket.latency_s, abs=1e-9
            )

    def test_breaker_transitions_land_on_the_service_stream(self, federation):
        # The shared registry reports to the service's recorder, not to
        # whichever worker happened to build its engine first.
        service = MediatorService(
            federation,
            mode="threads",
            workers=3,
            seed=9,
            resilience=Resilience(breaker=BreakerConfig.default()),
            faults=Faults(wire=FaultProfile.flaky(0.6)),
            queue_limit=64,
        )
        try:
            spec = WorkloadSpec(
                queries=(DMV_SQL,), count=30, rate_qps=200.0, seed=9
            )
            report = run_workload(service, generate_arrivals(spec))
        finally:
            service.close()
        assert report.completed + report.failed == 30
        transitions = service.recorder.events.of_type("breaker")
        assert transitions
        counted = sum(
            entry["value"]
            for name, entry in service.metrics.to_json().items()
            if name.startswith("repro_breaker_transitions_total")
        )
        assert len(transitions) == counted
        # Stamped on the service clock like every other serve event.
        assert all(0.0 <= e.ts <= service.elapsed_s for e in transitions)
        # Thread-mode traces carry no breaker markers (the transitions
        # are not in any worker's slice), and stay valid trees.
        assert not [s for s in service.spans if s.name == "breaker"]
        assert validate_chrome_trace(
            service.spans.to_chrome_trace()
        ) == len(service.spans)
        ids = [(s.trace_id, s.span_id) for s in service.spans]
        assert len(ids) == len(set(ids))
        for ticket in service.tickets:
            if ticket.completed_s is not None:
                assert sum(ticket.phases.values()) == pytest.approx(
                    ticket.latency_s, abs=1e-9
                )


class TestFailureTraces:
    def test_unplannable_query_still_gets_a_trace(self, federation):
        service = MediatorService(
            federation, mode="deterministic", seed=3
        )
        ticket = service.submit(
            "SELECT u1.L FROM U u1 WHERE u1.NOPE = 'x'", at_s=0.0
        )
        service.run_until_idle()
        assert ticket.status == "failed"
        path = analyze_trace(service.spans.for_trace(ticket.trace_id))
        assert path is not None
        assert path.total_s == pytest.approx(ticket.latency_s, abs=1e-9)
