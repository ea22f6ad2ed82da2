"""R5 — robust planning: completeness-aware optimization under faults."""

from __future__ import annotations

from repro.bench.extensions import run_robust_planning
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.optimize.robust import RobustOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.runtime.availability import (
    AvailabilityModel,
    expected_completeness,
)
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy, completeness_report
from repro.sources.generators import replicate_federation
from repro.sources.statistics import ExactStatistics


def robust_setting(kit, rate=0.3, copies=2):
    federation = replicate_federation(kit.federation, copies)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    availability = AvailabilityModel.from_faults(
        FaultInjector(FaultProfile.flaky(rate), seed=29),
        RetryPolicy.no_retry(),
        federation.source_names,
    )
    return federation, estimator, cost_model, availability


def test_robust_optimizer_overhead(benchmark, medium_kit):
    # The re-ranking pass costs a handful of extra plan costings on top
    # of the base SJA+ search; measure the full robust optimize call.
    federation, estimator, cost_model, availability = robust_setting(
        medium_kit
    )
    optimizer = RobustOptimizer(federation, availability, robustness=2.0)

    result = benchmark(
        optimizer.optimize,
        medium_kit.query,
        federation.representative_names,
        cost_model,
        estimator,
    )
    assert result.candidates
    assert 0.0 <= result.expected_completeness <= 1.0


def test_robust_beats_cost_only_on_skip_engine(medium_kit):
    # The acceptance check behind the R5 table, at benchmark scale: on a
    # skip-only engine (no retries/hedging/breakers) the robust plan's
    # completeness is never below cost-only SJA+, and its expected
    # completeness is strictly higher.
    federation, estimator, cost_model, availability = robust_setting(
        medium_kit
    )
    reps = federation.representative_names
    base = SJAPlusOptimizer().optimize(
        medium_kit.query, reps, cost_model, estimator
    )
    robust = RobustOptimizer(
        federation, availability, robustness=8.0
    ).optimize(medium_kit.query, reps, cost_model, estimator)

    def measured(plan, seed):
        federation.reset_traffic()
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.3), seed=seed),
            resilience=Resilience(policy=RetryPolicy.no_retry()),
        )
        result = engine.run(plan)
        report = completeness_report(
            federation, medium_kit.query, result.items
        )
        assert not report.spurious
        return report.completeness

    seeds = (29, 31, 37)
    base_mean = sum(measured(base.plan, s) for s in seeds) / len(seeds)
    robust_mean = sum(measured(robust.plan, s) for s in seeds) / len(seeds)
    assert robust_mean >= base_mean
    base_expected = expected_completeness(
        base.plan, federation, estimator, availability
    ).overall
    assert robust.expected_completeness > base_expected
    federation.reset_traffic()


def test_r5_report(benchmark, report_runner):
    report = report_runner(benchmark, "R5")
    assert "robust" in report
    assert "SJA+ cost-only" in report


def test_r5_smoke_params():
    # The CI smoke job runs the sweep at tiny parameters; keep that
    # entry point working.
    report = run_robust_planning(
        fault_rates=(0.0, 0.3),
        lambdas=(0.0, 8.0),
        n_sources=4,
        n_entities=60,
    )
    assert "robust" in report and "SJA+ cost-only" in report
    assert "byte-identical traces: yes" in report
