"""Unit tests for SLO specs, parsing, and the monitor."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import EventLog, metrics_from_events
from repro.obs.metrics import DURATION_BUCKETS_S, MetricsRegistry
from repro.obs.slo import (
    SLOMonitor,
    SLOSpec,
    SLOStatus,
    parse_slo_spec,
)
from repro.runtime.faults import FaultProfile, Faults
from repro.serve import (
    MediatorService,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
)


def latency_spec(threshold=1.0, objective=0.9):
    return SLOSpec(
        name="lat", kind="latency", objective=objective, threshold_s=threshold
    )


class TestSLOSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ObservabilityError, match="unknown SLO kind"):
            SLOSpec(name="x", kind="availability", objective=0.9)

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_objective_outside_unit_interval(self, objective):
        with pytest.raises(ObservabilityError, match="objective"):
            SLOSpec(name="x", kind="completeness", objective=objective)

    def test_latency_needs_positive_threshold(self):
        with pytest.raises(ObservabilityError, match="threshold"):
            SLOSpec(name="x", kind="latency", objective=0.9)


class TestSLOStatus:
    def test_compliance_and_burn(self):
        status = SLOStatus(spec=latency_spec(objective=0.9), good=80, total=100)
        assert status.compliance == pytest.approx(0.8)
        assert status.burn_rate == pytest.approx(2.0)
        assert status.budget_remaining == 0.0
        assert not status.met

    def test_empty_window_is_compliant(self):
        status = SLOStatus(spec=latency_spec(), good=0, total=0)
        assert status.compliance == 1.0
        assert status.burn_rate == 0.0
        assert status.met

    def test_describe_names_the_verdict(self):
        status = SLOStatus(spec=latency_spec(), good=95, total=100)
        assert "[OK]" in status.describe()
        bad = SLOStatus(spec=latency_spec(), good=10, total=100)
        assert "[VIOLATED]" in bad.describe()


class TestParseSLOSpec:
    def test_parses_both_kinds(self):
        specs = parse_slo_spec("latency:1.5:0.95,completeness:0.99")
        assert [s.kind for s in specs] == ["latency", "completeness"]
        assert specs[0].threshold_s == 1.5
        assert specs[0].objective == 0.95
        assert specs[1].objective == 0.99

    @pytest.mark.parametrize(
        "text",
        ["", "latency:1.0", "completeness", "latency:a:b", "uptime:0.9"],
    )
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(ObservabilityError):
            parse_slo_spec(text)


class TestSLOMonitor:
    def test_needs_unique_named_specs(self):
        with pytest.raises(ObservabilityError, match="at least one"):
            SLOMonitor([])
        with pytest.raises(ObservabilityError, match="duplicate"):
            SLOMonitor([latency_spec(), latency_spec()])

    def test_latency_objective_from_histograms(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_serve_latency_s", buckets=DURATION_BUCKETS_S, tenant="a"
        )
        # 8 fast answers on a bucket boundary, 2 far past the threshold.
        for __ in range(8):
            histogram.observe(0.05)
        for __ in range(2):
            histogram.observe(30.0)
        monitor = SLOMonitor([latency_spec(threshold=1.0, objective=0.75)])
        (status,) = monitor.evaluate(registry)
        assert status.total == 10
        assert status.compliance == pytest.approx(0.8)
        assert status.met
        gauge = registry.gauge("repro_slo_compliance", slo="lat")
        assert gauge.value == pytest.approx(0.8)

    def test_latency_sums_across_tenant_series(self):
        registry = MetricsRegistry()
        for tenant in ("a", "b"):
            registry.histogram(
                "repro_serve_latency_s",
                buckets=DURATION_BUCKETS_S,
                tenant=tenant,
            ).observe(0.01)
        monitor = SLOMonitor([latency_spec()])
        (status,) = monitor.evaluate(registry)
        assert status.total == 2

    def test_completeness_subtracts_partials_and_errors(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_serve_completed_total", outcome="ok", tenant="a"
        ).inc(8)
        registry.counter(
            "repro_serve_completed_total", outcome="error", tenant="a"
        ).inc(2)
        registry.counter("repro_serve_partial_total", tenant="a").inc(3)
        spec = SLOSpec(name="comp", kind="completeness", objective=0.9)
        (status,) = SLOMonitor([spec]).evaluate(registry)
        assert status.total == 10
        assert status.good == 5  # 8 ok - 3 partial
        assert not status.met

    def test_render_is_deterministic_text(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor([latency_spec()])
        text = SLOMonitor.render(monitor.evaluate(registry))
        assert text.startswith("SLO report:")
        assert "1/1 objectives met" in text


class TestVerdictFromAPersistedLog:
    def test_partial_answers_are_visible_in_the_jsonl(self, dmv_federation):
        # A deadlined, faulty workload: some answers are cut in queue,
        # some mid-run, some degrade — all partial, none an error.  The
        # serve record says which, so the completeness verdict can be
        # recomputed from the log alone.
        sql = (
            "SELECT u1.L FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        )
        service = MediatorService(
            dmv_federation,
            pool_slots=1,
            queue_limit=64,
            seed=8,
            faults=Faults(wire=FaultProfile.flaky(0.4)),
            shed_policy="none",
        )
        spec = WorkloadSpec(
            queries=(sql,), count=24, rate_qps=8.0, seed=8, deadline_s=1.0
        )
        report = run_workload(service, generate_arrivals(spec))
        assert 0 < report.partial_answers < report.completed

        persisted = EventLog.from_jsonl(service.recorder.events.to_jsonl())
        done = [
            event
            for event in persisted.of_type("serve")
            if event["phase"] == "completed"
        ]
        assert len(done) == report.completed
        assert {event["detail"] for event in done} == {"", "partial"}
        assert (
            sum(event["detail"] == "partial" for event in done)
            == report.partial_answers
        )

        monitor = SLOMonitor(parse_slo_spec("latency:0.5:0.75,completeness:0.9"))
        live = SLOMonitor.render(monitor.evaluate(service.metrics))
        replayed = SLOMonitor.render(
            monitor.evaluate(metrics_from_events(persisted))
        )
        assert "[VIOLATED]" in live
        assert replayed == live
