"""R4 — resilience sweep: hedging, breakers, re-planning vs skip-only."""

from __future__ import annotations

from repro.bench.extensions import run_resilience
from repro.mediator.session import Mediator
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.health import BreakerConfig
from repro.runtime.policy import RetryPolicy, completeness_report
from repro.sources.generators import replicate_federation


def replicated_kit(kit, copies=2):
    federation = replicate_federation(kit.federation, copies)
    return federation, kit.query


def test_hedged_engine_under_faults(benchmark, medium_kit):
    federation, query = replicated_kit(medium_kit)
    plan = build_filter_plan(query, federation.representative_names)

    def run():
        federation.reset_traffic()
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.3), seed=7),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                hedge_delay_s=2.0,
                breaker=BreakerConfig.aggressive(),
            ),
        )
        return engine.run(plan)

    result = benchmark(run)
    reference = run()
    assert result.items == reference.items
    assert result.makespan_s == reference.makespan_s


NO_RETRY = RetryPolicy.no_retry()
SKIP_ONLY = Resilience(policy=NO_RETRY)
RESILIENT = Resilience(
    policy=NO_RETRY, hedge_delay_s=2.0, breaker=BreakerConfig.aggressive()
)


def test_replanning_recovers_without_spurious(benchmark, medium_kit):
    federation, query = replicated_kit(medium_kit)

    def run():
        federation.reset_traffic()
        mediator = Mediator(
            federation,
            backend="runtime",
            faults=FaultInjector(FaultProfile.flaky(0.4), seed=11),
            resilience=RESILIENT,
            replan=2,
        )
        return mediator.answer(query)

    result = benchmark(run)
    report = completeness_report(federation, query, result.items)
    assert not report.spurious
    assert report.completeness <= 1.0


def test_replication_buys_completeness(medium_kit):
    # The acceptance check behind the R4 table, at benchmark scale: with
    # mirrors available the resilient stack strictly beats skip-only.
    federation, query = replicated_kit(medium_kit)

    def completeness(resilience, replan):
        federation.reset_traffic()
        result = Mediator(
            federation,
            backend="runtime",
            faults=FaultInjector(FaultProfile.flaky(0.3), seed=23),
            resilience=resilience,
            replan=replan,
        ).answer(query)
        report = completeness_report(federation, query, result.items)
        assert not report.spurious
        return report.completeness

    skip_only = completeness(SKIP_ONLY, replan=0)
    resilient = completeness(RESILIENT, replan=2)
    assert resilient > skip_only


def test_r4_report(benchmark, report_runner):
    report = report_runner(benchmark, "R4")
    assert "completeness" in report
    assert "resilient" in report


def test_r4_smoke_params():
    # The CI smoke job runs the sweep at tiny parameters; keep that
    # entry point working.
    report = run_resilience(
        fault_rates=(0.0, 0.3),
        replication_factors=(2,),
        n_sources=4,
        n_entities=60,
    )
    assert "skip-only" in report and "resilient" in report
