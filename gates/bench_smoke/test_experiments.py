"""Reduced runs of the extension experiments (R3-R7, R9, R12) and what
their reports and BENCH rows must show."""

from __future__ import annotations

import json
import math
import time

from gates.support import python, repro
from repro.bench.extensions import (
    run_fault_sweep,
    run_observed_stats,
    run_resilience,
    run_robust_planning,
    run_search_scaling,
)
from repro.bench.harness import kit_for_federation, make_kit
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import Executor
from repro.optimize.greedy import (
    GreedySJAOptimizer,
    GreedySJOptimizer,
    SelectivityOrderOptimizer,
)
from repro.optimize.robust import RobustOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.runtime.availability import AvailabilityModel
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy, completeness_report
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)
from repro.sources.statistics import ExactStatistics


def test_fault_sweep_smoke_r3():
    """Fault sweep smoke (R3)"""
    run_fault_sweep(fault_rates=(0.0, 0.3), n_sources=4, n_entities=60)


def test_resilience_sweep_smoke_r4():
    """Resilience sweep smoke (R4)"""
    run_resilience(
        fault_rates=(0.0, 0.3), replication_factors=(2,), n_sources=4, n_entities=60
    )


def test_robust_planning_smoke_r5():
    """Robust planning smoke (R5)"""
    report = run_robust_planning(
        fault_rates=(0.3,), lambdas=(0.0, 8.0), n_sources=4, n_entities=60
    )
    assert "byte-identical traces: yes" in report


def test_observed_statistics_smoke_r6():
    """Observed statistics smoke (R6)"""
    report = run_observed_stats(warmups=(0, 1), n_sources=4, n_entities=80)
    assert "within 20%" in report


def test_plan_search_smoke_r7():
    """Plan-search smoke (R7) — DP exact on DMV, fast at m=10"""
    report = run_search_scaling(
        ms=(3, 4), n_entities=60, cache_queries=2, cache_repeats=2, bench_json=False
    )
    assert "bit-for-bit" in report

    federation, query = dmv_fig1()
    kit = kit_for_federation(federation, query)
    sweep = SJAOptimizer(search="exhaustive").optimize(
        kit.query, kit.source_names, kit.cost_model, kit.estimator
    )
    dp = SJAOptimizer(search="dp").optimize(
        kit.query, kit.source_names, kit.cost_model, kit.estimator
    )
    assert dp.estimated_cost == sweep.estimated_cost, "DP must match the sweep on the DMV example"
    assert sweep.plans_considered == math.factorial(query.arity)

    # The fixed-ordering and greedy-chain members of the staged family.
    for greedy_class in (SelectivityOrderOptimizer, GreedySJOptimizer, GreedySJAOptimizer):
        greedy = greedy_class().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        federation.reset_traffic()
        answer = Executor(federation).execute(greedy.plan).items
        assert answer == DMV_FIG1_ANSWER, (greedy.optimizer, sorted(answer))
        assert greedy.estimated_cost >= sweep.estimated_cost, (
            greedy.optimizer,
            greedy.estimated_cost,
        )

    wide = make_kit(SyntheticConfig(n_sources=4, n_entities=120, seed=900), m=10)
    start = time.perf_counter()
    result = SJAOptimizer(search="dp").optimize(
        wide.query, wide.source_names, wide.cost_model, wide.estimator
    )
    elapsed = time.perf_counter() - start
    assert result.subsets_considered == 2**10 - 1
    assert elapsed < 5.0, f"DP at m=10 took {elapsed:.2f}s (budget 5s; the m! sweep needs ~7s)"
    # Both exact strategies read the same resolved cost terms: same cost, to the bit.
    bnb = SJAOptimizer(search="bnb").optimize(
        wide.query, wide.source_names, wide.cost_model, wide.estimator
    )
    assert bnb.estimated_cost.hex() == result.estimated_cost.hex(), (
        bnb.estimated_cost,
        result.estimated_cost,
    )


def test_deadline_smoke_r9(deadline_rows):
    """Deadline smoke (R9) — shedding holds p95 inside the deadline"""
    __, rows = deadline_rows
    shed = rows["shed"]
    assert shed["shed_total"] > 0, "overload must shed arrivals"
    assert shed["deadline_misses"] == 0
    assert shed["p95_s"] <= 1.0 + 1e-9, f"shed p95 {shed['p95_s']}"
    assert rows["blind"]["p95_s"] > 1.0, "no-deadline baseline must miss"


def test_columnar_smoke_r12(columnar_rows, tmp_path):
    """Columnar smoke (R12) — 3x filter + 5x group-by + 1.5x / 5x semijoin + 100x numpy merge
    + 1.5x value-index selection and slice-form microbench + CLI aggregate query"""
    report, rows = columnar_rows
    assert "acceptance" in report
    groupby = rows["aggregate@100000"]["speedup_columnar"]
    assert groupby >= 5.0, (
        f"pure-python columnar group-by is {groupby:.1f}x the row loop at 1e5 rows (floor 5x)"
    )
    # The numpy group-by must beat the python fold beside it (ROADMAP north star).
    numpy_groupby = rows["aggregate@100000"]["speedup_numpy"]
    if numpy_groupby is not None:
        assert numpy_groupby >= groupby, (
            f"numpy group-by is {numpy_groupby:.1f}x the row loop at 1e5 rows, "
            f"the python fold {groupby:.1f}x"
        )
    # A kernel that does not beat the hash probe it replaced is a bug (ROADMAP 1(e)).
    semijoin = rows["semijoin@100000"]
    assert semijoin["speedup_columnar"] >= 1.5, (
        f"pure-python semijoin is {semijoin['speedup_columnar']:.1f}x "
        "the row hash probe at 1e5 rows (floor 1.5x)"
    )
    if semijoin["speedup_numpy"] is not None:
        assert semijoin["speedup_numpy"] >= 5.0, (
            f"numpy semijoin is {semijoin['speedup_numpy']:.1f}x "
            "the row hash probe at 1e5 rows (floor 5x)"
        )
    # Item sets are bitmaps: the numpy filter + merge measured 203x at
    # 1e5 rows; the floor is half.
    merge = rows["merge@100000"]
    if merge["speedup_numpy"] is not None:
        assert merge["speedup_numpy"] >= 100.0, (
            f"numpy merge is {merge['speedup_numpy']:.1f}x the row path "
            "at 1e5 rows (floor 100x)"
        )
    # A one-attribute leaf through the value index against the row masks it
    # replaces: the public path (the bitmap form at 1e5 rows) and the slice
    # form, which serves the leaves and columns the bitmap form does not.
    for kernel in ("select =", "select range"):
        row = rows.get(f"index {kernel}@100000")
        if row is not None:
            assert row["speedup_index"] >= 1.5, (
                f"index {kernel} is {row['speedup_index']:.2f}x "
                "the row masks at 1e5 rows (floor 1.5x)"
            )
            slice_speedup = row["mask_s"] / row["slice_s"]
            assert slice_speedup >= 1.5, (
                f"the slice form of {kernel} is {slice_speedup:.2f}x "
                "the row masks at 1e5 rows (floor 1.5x)"
            )
    fed = tmp_path / "fed.json"
    repro("export-dmv", fed, timeout=120)
    repro(
        "query", fed,
        "SELECT u1.V, COUNT(*), AVG(u1.D) FROM U u1, U u2 WHERE u1.L = u2.L"
        " AND u1.V = 'dui' AND u2.V = 'sp' GROUP BY u1.V",
        timeout=120,
    )


def test_trajectory_aggregation(bench_dir, deadline_rows, tracing_rows, columnar_rows):
    """Trajectory aggregation — BENCH rows normalized across R7-R12

    Over the committed R7, R8 and R10 rows and the R9, R11 and R12 rows
    the gates above wrote fresh.
    """
    python("benchmarks/trajectory.py", bench_dir)
    document = json.loads((bench_dir / "BENCH_TRAJECTORY.json").read_text(encoding="utf-8"))
    assert "R9" in document["benches"] and "R11" in document["benches"]


def test_robust_plan_beats_cost_only_baseline_under_faults():
    """Robust plan beats cost-only baseline under faults"""
    config = SyntheticConfig(
        n_sources=4, n_entities=60, coverage=(0.3, 0.6), overhead_range=(5.0, 20.0),
        receive_range=(1.0, 3.0), seed=181,
    )
    federation = replicate_federation(build_synthetic(config), 2)
    query = synthetic_query(config, m=3, seed=13)
    estimator = SizeEstimator(ExactStatistics(federation), federation.source_names)
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    reps = federation.representative_names
    policy = RetryPolicy.no_retry()
    availability = AvailabilityModel.from_faults(
        FaultInjector(FaultProfile.flaky(0.3), seed=29), policy, federation.source_names
    )
    base = SJAPlusOptimizer().optimize(query, reps, cost_model, estimator)
    robust = RobustOptimizer(federation, availability, robustness=8.0).optimize(
        query, reps, cost_model, estimator
    )

    def mean_completeness(plan):
        total = 0.0
        for seed in (29, 31, 37):
            federation.reset_traffic()
            engine = RuntimeEngine(
                federation, Resilience(policy=policy),
                faults=FaultInjector(FaultProfile.flaky(0.3), seed=seed),
            )
            total += completeness_report(federation, query, engine.run(plan).items).completeness
        return total / 3

    base_m = mean_completeness(base.plan)
    robust_m = mean_completeness(robust.plan)
    assert robust_m >= base_m, (
        f"robust plan lost completeness vs cost-only baseline: "
        f"SJA+ skip-only {base_m:.3f}, robust lambda=8 {robust_m:.3f}"
    )

