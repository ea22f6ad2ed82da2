"""R6 — observed statistics: mine event logs, close the planning loop."""

from __future__ import annotations

from repro.bench.extensions import run_observed_stats
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.obs.recorder import Recorder
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import RuntimeEngine
from repro.sources.observed import ObservedStatistics


def warmup_events(kit):
    """Record one exploratory FILTER pass over the kit's federation."""
    recorder = Recorder(metrics=None)
    plan = build_filter_plan(
        kit.query, kit.source_names, "exploratory warm-up"
    )
    kit.federation.reset_traffic()
    RuntimeEngine(kit.federation, recorder=recorder).run(plan)
    return recorder.events


def blind_toolkit(stats, kit):
    """Estimator + cost model with no access to the federation's data."""
    estimator = SizeEstimator(stats, kit.source_names)
    model = ChargeCostModel(
        profiles={source.name: source.link for source in kit.federation},
        capabilities={
            source.name: source.capabilities for source in kit.federation
        },
        estimator=estimator,
        cardinalities={
            name: stats.cardinality(name) for name in kit.source_names
        },
    )
    return estimator, model


def test_mining_throughput(benchmark, medium_kit):
    # Mining is a single pass over the event stream; it should stay
    # negligible next to the warm-up execution that produced the log.
    events = warmup_events(medium_kit)

    def mine():
        return ObservedStatistics.from_events(events)

    stats = benchmark(mine)
    assert stats.observations > 0
    assert stats.sources_seen()


def test_blind_planning_overhead(benchmark, medium_kit):
    # Planning from mined statistics costs the same SJA+ search as the
    # oracle path — the provider swap must not change the complexity.
    stats = ObservedStatistics.from_events(warmup_events(medium_kit))
    estimator, model = blind_toolkit(stats, medium_kit)

    result = benchmark(
        SJAPlusOptimizer().optimize,
        medium_kit.query,
        medium_kit.source_names,
        model,
        estimator,
    )
    assert result.plan.operations


def test_mined_plan_quality(medium_kit):
    # The acceptance check behind the R6 table at benchmark scale: the
    # explore-then-exploit warm-up loop (FILTER pass for selectivities,
    # then one mined-plan run for semijoin/universe evidence) must land
    # the blind planner within 20% of the oracle plan's measured wire
    # cost, with the identical answer.
    def measured(plan):
        medium_kit.federation.reset_traffic()
        return RuntimeEngine(medium_kit.federation).run(plan)

    oracle = SJAPlusOptimizer().optimize(
        medium_kit.query,
        medium_kit.source_names,
        medium_kit.cost_model,
        medium_kit.estimator,
    )
    oracle_run = measured(oracle.plan)

    stats = ObservedStatistics.from_events(warmup_events(medium_kit))
    estimator, model = blind_toolkit(stats, medium_kit)
    explore = SJAPlusOptimizer().optimize(
        medium_kit.query, medium_kit.source_names, model, estimator
    )
    medium_kit.federation.reset_traffic()
    stats.observe(RuntimeEngine(medium_kit.federation).run(explore.plan).traces)

    estimator, model = blind_toolkit(stats, medium_kit)
    mined = SJAPlusOptimizer().optimize(
        medium_kit.query, medium_kit.source_names, model, estimator
    )
    mined_run = measured(mined.plan)

    assert mined_run.items == oracle_run.items
    assert mined_run.total_cost <= 1.2 * oracle_run.total_cost
    medium_kit.federation.reset_traffic()


def test_r6_report(benchmark, report_runner):
    report = report_runner(benchmark, "R6")
    assert "mined" in report
    assert "oracle" in report


def test_r6_smoke_params():
    # The CI smoke job runs the loop at tiny parameters; keep that
    # entry point working.
    report = run_observed_stats(
        warmups=(0, 1), n_sources=4, n_entities=80
    )
    assert "prior only" in report
    assert "within 20%" in report
