"""R3 — fault injection sweep: completeness, retries, response time."""

from __future__ import annotations

from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy, completeness_report


def test_engine_under_faults(benchmark, medium_kit):
    kit = medium_kit
    plan = build_filter_plan(kit.query, kit.source_names)

    def run():
        # Fresh injector each run: determinism is per (seed, plan), not
        # across the injector's advancing RNG streams.
        kit.federation.reset_traffic()
        engine = RuntimeEngine(
            kit.federation,
            faults=FaultInjector(FaultProfile.flaky(0.3), seed=7),
            resilience=Resilience(
                policy=RetryPolicy(max_retries=3, backoff_base_s=0.1),
            ),
        )
        return engine.run(plan)

    result = benchmark(run)
    # Deterministic under the fixed seed: same outcome on every run.
    reference = run()
    assert result.items == reference.items
    assert result.makespan_s == reference.makespan_s


def test_degradation_never_invents_answers(benchmark, medium_kit):
    kit = medium_kit
    plan = build_filter_plan(kit.query, kit.source_names)
    engine = RuntimeEngine(
        kit.federation,
        faults=FaultInjector(FaultProfile.flaky(0.5), seed=11),
        resilience=Resilience(policy=RetryPolicy.no_retry()),
    )

    def run():
        kit.federation.reset_traffic()
        return engine.run(plan)

    result = benchmark(run)
    report = completeness_report(kit.federation, kit.query, result.items)
    assert not report.spurious
    assert report.completeness <= 1.0


def test_r3_report(benchmark, report_runner):
    report = report_runner(benchmark, "R3")
    assert "completeness" in report
