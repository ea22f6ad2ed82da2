"""Extension experiments R1, A1, C7, P1 — the paper's future work, measured.

These go beyond the 1998 paper's own evaluation, implementing what its
Sec. 6 names as future directions (response time in a parallel model;
moving beyond two-phase processing) plus two robustness studies the
paper's caveats invite (dependence of conditions; estimate errors).
"""

from __future__ import annotations

import json
import math
import os

from repro.bench.harness import make_kit
from repro.bench.report import Table, join_sections
from repro.mediator.plan_cache import PlanCache
from repro.costs.charge import ChargeCostModel
from repro.costs.correlation import CorrelatedSizeEstimator, CorrelationModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import Executor
from repro.mediator.phases import (
    PhaseStrategy,
    answer_with_records,
)
from repro.mediator.reference import reference_answer
from repro.mediator.schedule import response_time
from repro.mediator.session import Mediator
from repro.optimize.filter import FilterOptimizer
from repro.optimize.planning import Planning
from repro.optimize.response_time import ResponseTimeSJAOptimizer
from repro.optimize.robust import RobustOptimizer
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import build_filter_plan
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Comparison
from repro.relational.relation import Relation
from repro.relational.schema import dmv_schema
from repro.runtime.availability import (
    AvailabilityModel,
    expected_completeness,
)
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.health import BreakerConfig
from repro.runtime.policy import RetryPolicy, completeness_report
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)
from repro.sources.network import LinkProfile
from repro.sources.observed import ObservedStatistics
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.statistics import ExactStatistics, SampledStatistics
from repro.sources.table_source import TableSource


def run_response_time() -> str:
    """R1 — total work vs response time in a parallel execution model.

    Sec. 6: "One could also consider minimizing the response time of a
    query in a parallel execution model."  Filter plans finish in one
    parallel round; semijoin chains serialize on X_{i-1}.  The SJA-RT
    optimizer trades the two.
    """
    table = Table(
        "total work vs response time (n = 8, m = 3)",
        [
            "latency s",
            "optimizer",
            "actual cost (work)",
            "makespan s",
            "speedup",
        ],
    )
    for latency in (0.05, 0.5, 2.0):
        config = SyntheticConfig(
            n_sources=8,
            n_entities=300,
            coverage=(0.3, 0.6),
            overhead_range=(2.0, 10.0),
            send_range=(0.2, 0.5),
            receive_range=(2.0, 5.0),
            seed=int(latency * 100),
        )
        federation = build_synthetic(config)
        # override latency uniformly
        for source in federation:
            source.link = LinkProfile(
                request_overhead=source.link.request_overhead,
                per_item_send=source.link.per_item_send,
                per_item_receive=source.link.per_item_receive,
                per_row_load=source.link.per_row_load,
                latency_s=latency,
                items_per_s=source.link.items_per_s,
            )
        query = synthetic_query(config, m=3, seed=11)
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        cost_model = ChargeCostModel.for_federation(federation, estimator)
        engine = RuntimeEngine(federation)
        optimizers = {
            "FILTER": FilterOptimizer(),
            "SJA": SJAOptimizer(),
            "SJA-RT": ResponseTimeSJAOptimizer(federation),
        }
        for label, optimizer in optimizers.items():
            plan = optimizer.optimize(
                query, federation.source_names, cost_model, estimator
            ).plan
            federation.reset_traffic()
            execution = engine.run(plan)
            schedule = response_time(plan, execution)
            table.add_row(
                [
                    latency,
                    label,
                    execution.total_cost,
                    schedule.makespan_s,
                    schedule.parallel_speedup,
                ]
            )
    table.add_note(
        "as latency grows, SJA's extra sequential round costs response "
        "time; SJA-RT converges to the parallel-friendly shape"
    )
    return join_sections(
        "=== R1: response time in a parallel execution model ===",
        table.render(),
    )


def _correlated_federation(n_entities: int = 300) -> tuple[Federation, FusionQuery]:
    """A federation where condition A implies condition B."""
    rows = []
    for i in range(n_entities):
        item = f"E{i:04d}"
        if i < n_entities // 3:
            rows.append((item, "dui", 1995))
            rows.append((item, "sp", 1995))
        elif i < 2 * n_entities // 3:
            rows.append((item, "sp", 1990))
        else:
            rows.append((item, "parking", 1990))
    half = len(rows) // 2
    federation = Federation(
        [
            RemoteSource(
                TableSource(Relation("R1", dmv_schema(), rows[:half])),
                link=LinkProfile(request_overhead=5.0, per_item_send=2.0),
            ),
            RemoteSource(
                TableSource(Relation("R2", dmv_schema(), rows[half:])),
                link=LinkProfile(request_overhead=5.0, per_item_send=2.0),
            ),
        ]
    )
    query = FusionQuery(
        "L",
        (Comparison("V", "=", "dui"), Comparison("V", "=", "sp")),
        name="correlated",
    )
    return federation, query


def adaptive_scenarios() -> dict[str, tuple]:
    """A1's four scenarios: label -> (federation, query, statistics)."""
    scenarios = {}
    for label, seed, fraction in (
        ("oracle estimates", 21, None),
        ("sampled estimates (10%)", 25, 0.1),
    ):
        config = SyntheticConfig(n_sources=5, n_entities=400, seed=seed)
        federation = build_synthetic(config)
        statistics = (
            SampledStatistics(federation, fraction, seed=0)
            if fraction
            else ExactStatistics(federation)
        )
        query = synthetic_query(config, m=3, seed=seed + 2)
        scenarios[label] = (federation, query, statistics)
    federation, query = _correlated_federation()
    scenarios["correlated conditions"] = (federation, query, ExactStatistics(federation))
    federation, __ = _correlated_federation()
    values = ("nonexistent", "sp", "dui")
    query = FusionQuery("L", tuple(Comparison("V", "=", value) for value in values))
    scenarios["empty answer (early stop)"] = (federation, query, ExactStatistics(federation))
    return scenarios


def run_adaptive() -> str:
    """A1 — adaptive execution vs static plans under estimate error.

    The static optimizers commit using estimated sizes;
    ``Mediator.answer_adaptive`` re-plans each stage with the *actual*
    X_i and terminates early on empty prefixes.  Both run on the
    mediator's zero-fault engine.
    """
    table = Table(
        "static SJA vs adaptive execution (actual cost)",
        ["scenario", "static SJA", "adaptive", "adaptive/static", "correct"],
    )
    for label, (federation, query, statistics) in adaptive_scenarios().items():
        mediator = Mediator(federation, statistics, planning=Planning(optimizer="sja"))
        federation.reset_traffic()
        static_result = mediator.runtime.run(mediator.plan(query).plan)
        static_cost = static_result.total_cost
        federation.reset_traffic()
        adaptive_result = mediator.answer_adaptive(query)
        expected = reference_answer(federation, query)
        table.add_row(
            [
                label,
                static_cost,
                adaptive_result.total_cost,
                adaptive_result.total_cost / static_cost if static_cost else 1,
                static_result.items == expected
                and adaptive_result.items == expected,
            ]
        )
    table.add_note(
        "the adaptive executor folds in difference pruning and stops on "
        "empty prefixes, so it wins exactly where estimates mislead"
    )
    return join_sections("=== A1: adaptive execution ===", table.render())


def run_correlation() -> str:
    """C7 — the independence assumption vs measured correlations.

    Sec. 1: "we often have no information about the dependence of
    conditions, so using the best semijoin-adaptive plan is as good a
    guess as we can make."  When sampling *is* possible, the corrected
    estimator removes the bias.
    """
    federation, query = _correlated_federation(600)
    statistics = ExactStatistics(federation)
    plain = SizeEstimator(statistics, federation.source_names)
    model = CorrelationModel.from_federation(
        federation, query.conditions, sample_size=300, seed=0
    )
    corrected = CorrelatedSizeEstimator(
        statistics, federation.source_names, model
    )
    truth = len(reference_answer(federation, query))

    table = Table(
        "prefix-size estimates on a correlated query (A implies B)",
        ["estimator", "|X2| estimate", "true |X2|", "relative error"],
    )
    for label, estimator in (("independence", plain), ("pairwise-corrected", corrected)):
        guess = estimator.prefix_size(query.conditions)
        table.add_row(
            [label, guess, truth, abs(guess - truth) / truth if truth else 0]
        )
    dui, sp = query.conditions
    table.add_note(
        f"sampled lift(A, B) = {model.lift(dui, sp):.2f} "
        "(1.0 would mean independent)"
    )
    return join_sections("=== C7: condition correlation ===", table.render())


def run_overlap() -> str:
    """C8 — data overlap ablation (the Sec. 1 motivation).

    "In a traditional distributed database environment ... an
    administrator could determine in advance that all violations for
    licenses issued in a given state go to a particular database.  This
    makes fusion query processing much simpler."  Sweeping per-source
    coverage from near-partitioned to fully replicated measures how
    overlap shapes plan choice and cost.
    """
    table = Table(
        "effect of entity overlap (n = 6, m = 3, 300 entities)",
        [
            "coverage/source",
            "avg copies/entity",
            "FILTER",
            "SJA",
            "FILTER/SJA",
            "SJA semijoins",
            "answer",
        ],
    )
    from repro.plans.operations import OpKind

    for coverage in (1 / 6, 0.33, 0.66, 1.0):
        config = SyntheticConfig(
            n_sources=6,
            n_entities=300,
            coverage=coverage,
            rows_per_entity=(1, 1),
            overhead_range=(5.0, 5.0),
            receive_range=(2.0, 2.0),
            send_range=(0.3, 0.3),
            seed=int(coverage * 100),
        )
        federation = build_synthetic(config)
        query = synthetic_query(config, m=3, seed=61)
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        cost_model = ChargeCostModel.for_federation(federation, estimator)
        engine = RuntimeEngine(federation)
        costs = {}
        semijoin_count = 0
        answer_size = 0
        for label, optimizer in (
            ("FILTER", FilterOptimizer()),
            ("SJA", SJAOptimizer()),
        ):
            plan = optimizer.optimize(
                query, federation.source_names, cost_model, estimator
            ).plan
            federation.reset_traffic()
            execution = engine.run(plan)
            costs[label] = execution.total_cost
            if label == "SJA":
                semijoin_count = plan.count_by_kind().get(OpKind.SEMIJOIN, 0)
                answer_size = len(execution.items)
        copies = sum(
            len(source.table.relation.items()) for source in federation
        ) / max(1, len(federation.all_items()))
        table.add_row(
            [
                coverage,
                copies,
                costs["FILTER"],
                costs["SJA"],
                costs["FILTER"] / costs["SJA"],
                semijoin_count,
                answer_size,
            ]
        )
    table.add_note(
        "sparser coverage keeps intermediate sets small, so semijoins pay "
        "off most there (FILTER/SJA ~2x); with full replication every "
        "condition's item sets and the answer itself grow, and the two "
        "strategies converge — but SJA never loses, which is the paper's "
        "point about unpartitioned Internet data"
    )
    return join_sections("=== C8: overlap ablation ===", table.render())


def run_phases() -> str:
    """P1 — one-phase vs two-phase record retrieval (Sec. 6 future work).

    Sweeps condition selectivity: selective queries favour two-phase
    (tiny second fetch), unselective ones favour one-phase (the items
    were coming anyway — skip the extra round)."""
    table = Table(
        "one-phase vs two-phase actual cost",
        [
            "score threshold",
            "answer size",
            "two-phase",
            "one-phase",
            "auto picked",
            "auto correct?",
        ],
    )
    for threshold in (100, 400, 800, 999):
        config = SyntheticConfig(
            n_sources=4,
            n_entities=400,
            rows_per_entity=(1, 2),
            load_range=(3.0, 3.0),
            seed=threshold,
        )
        federation = build_synthetic(config)
        query = FusionQuery(
            "id",
            (
                Comparison("score", "<", threshold),
                Comparison("year", ">=", 1992),
            ),
        )
        mediator = Mediator(federation)
        costs = {}
        for strategy in (PhaseStrategy.TWO_PHASE, PhaseStrategy.ONE_PHASE):
            federation.reset_traffic()
            result = answer_with_records(mediator, query, strategy)
            costs[strategy] = result.actual_cost
        federation.reset_traffic()
        auto = answer_with_records(mediator, query, PhaseStrategy.AUTO)
        best = min(costs, key=costs.get)
        table.add_row(
            [
                threshold,
                len(auto.items),
                costs[PhaseStrategy.TWO_PHASE],
                costs[PhaseStrategy.ONE_PHASE],
                auto.strategy.value,
                auto.strategy is best
                or abs(costs[auto.strategy] - costs[best])
                <= 0.2 * costs[best],
            ]
        )
    table.add_note(
        "two-phase wins while the answer is small; one-phase takes over "
        "as conditions become unselective (Sec. 1's cost intuition)"
    )
    return join_sections(
        "=== P1: one-phase vs two-phase retrieval ===", table.render()
    )


def _r2_plans(federation, query, estimator, cost_model):
    """The three plan classes R2 cross-validates, as (label, plan)."""
    names = federation.source_names
    return [
        ("FILTER", build_filter_plan(query, names)),
        (
            "SJ",
            SJOptimizer().optimize(query, names, cost_model, estimator).plan,
        ),
        (
            "SJA",
            SJAOptimizer().optimize(query, names, cost_model, estimator).plan,
        ),
    ]


def run_concurrent_runtime() -> str:
    """R2 — simulated vs predicted makespan under zero faults.

    The discrete-event engine and the longest-path scheduler implement
    the same parallel execution model (different sources overlap,
    same-source ops serialize in plan order, local ops are free).  With
    no faults injected they must therefore agree exactly — this
    experiment is the cross-validation, over FILTER/SJ/SJA plans on the
    DMV and a synthetic workload.
    """
    table = Table(
        "simulated (discrete-event) vs predicted (longest-path) makespan",
        [
            "workload",
            "plan",
            "predicted s",
            "simulated s",
            "|delta| s",
            "answer ok",
        ],
    )
    workloads = [("dmv", *dmv_fig1())]
    config = SyntheticConfig(
        n_sources=6,
        n_entities=200,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 25.0),
        receive_range=(1.0, 3.0),
        seed=97,
    )
    workloads.append(
        ("synthetic", build_synthetic(config), synthetic_query(config, m=3, seed=5))
    )
    max_delta = 0.0
    for name, federation, query in workloads:
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        cost_model = ChargeCostModel.for_federation(federation, estimator)
        expected = reference_answer(federation, query)
        executor = Executor(federation)
        engine = RuntimeEngine(federation)
        for label, plan in _r2_plans(federation, query, estimator, cost_model):
            federation.reset_traffic()
            predicted = response_time(plan, executor.execute(plan))
            federation.reset_traffic()
            simulated = engine.run(plan)
            delta = abs(predicted.makespan_s - simulated.makespan_s)
            max_delta = max(max_delta, delta)
            table.add_row(
                [
                    name,
                    label,
                    predicted.makespan_s,
                    simulated.makespan_s,
                    delta,
                    simulated.items == expected,
                ]
            )
        federation.reset_traffic()
    table.add_note(
        f"max |delta| = {max_delta:.2e}s: the engine reproduces the "
        "static analysis exactly when nothing fails"
    )
    return join_sections(
        "=== R2: concurrent runtime vs static schedule ===", table.render()
    )


def run_fault_sweep(
    fault_rates: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5),
    n_sources: int = 8,
    n_entities: int = 300,
) -> str:
    """R3 — answer completeness and response time vs fault rate.

    Sweeps the per-attempt transient-failure rate over a synthetic
    federation and compares a no-retry policy against exponential
    backoff with three retries.  Degradation is graceful: failed
    operations yield empty item sets, so completeness falls but the
    answer never contains a wrong item and execution never errors out.
    CI runs it at tiny parameters as a smoke check.
    """
    config = SyntheticConfig(
        n_sources=n_sources,
        n_entities=n_entities,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 20.0),
        receive_range=(1.0, 3.0),
        seed=181,
    )
    federation = build_synthetic(config)
    query = synthetic_query(config, m=3, seed=13)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    plan = (
        SJAOptimizer()
        .optimize(query, federation.source_names, cost_model, estimator)
        .plan
    )
    policies = [
        ("no retry", RetryPolicy.no_retry()),
        ("retry x3", RetryPolicy(max_retries=3, backoff_base_s=0.1)),
    ]
    table = Table(
        "completeness and response time vs transient-failure rate (SJA plan)",
        [
            "fault rate",
            "policy",
            "completeness",
            "spurious",
            "makespan s",
            "retries",
            "degraded ops",
            "wire cost",
        ],
    )
    for rate in fault_rates:
        for label, policy in policies:
            federation.reset_traffic()
            engine = RuntimeEngine(
                federation,
                Resilience(policy=policy),
                faults=FaultInjector(FaultProfile.flaky(rate), seed=29),
            )
            result = engine.run(plan)
            report = completeness_report(federation, query, result.items)
            table.add_row(
                [
                    rate,
                    label,
                    report.completeness,
                    len(report.spurious),
                    result.makespan_s,
                    result.trace.total_retries,
                    len(result.trace.degraded_steps),
                    result.trace.total_cost,
                ]
            )
    federation.reset_traffic()
    table.add_note(
        "retries trade wire cost and makespan for completeness; spurious "
        "answers stay at zero because degraded ops only lose items"
    )
    return join_sections(
        "=== R3: fault sweep — graceful degradation and retries ===",
        table.render(),
    )


def run_resilience(
    fault_rates: tuple[float, ...] = (0.0, 0.2, 0.4),
    replication_factors: tuple[int, ...] = (1, 2),
    n_sources: int = 6,
    n_entities: int = 200,
) -> str:
    """R4 — what replication buys: skip-only vs hedging+breakers+replan.

    Sweeps the transient-failure rate against the replication factor on
    a synthetic federation.  Both modes plan over one representative per
    replica group (mirrors are failover capacity, not extra planned
    work); the skip-only baseline degrades failed operations to empty
    sets exactly as PR 1's engine did, while the resilient mode hedges
    failed/slow attempts onto mirrors, trips circuit breakers on dead
    sources, and re-plans the residual query with dead sources masked.
    Both stay at zero spurious answers — substitution and re-planning
    only ever union rows the federation already holds.
    """
    config = SyntheticConfig(
        n_sources=n_sources,
        n_entities=n_entities,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 20.0),
        receive_range=(1.0, 3.0),
        seed=181,
    )
    base_federation = build_synthetic(config)
    query = synthetic_query(config, m=3, seed=13)
    table = Table(
        "completeness vs fault rate x replication "
        "(skip-only baseline vs hedge+breaker+replan)",
        [
            "fault rate",
            "replicas",
            "mode",
            "completeness",
            "spurious",
            "skipped",
            "recovered",
            "replans",
            "makespan s",
            "wire cost",
        ],
    )
    no_retry = RetryPolicy.no_retry()
    modes = [
        ("skip-only", Resilience(policy=no_retry), 0),
        (
            "resilient",
            Resilience(
                policy=no_retry,
                hedge_delay_s=2.0,
                breaker=BreakerConfig.aggressive(),
            ),
            2,
        ),
    ]
    for rate in fault_rates:
        for copies in replication_factors:
            federation = replicate_federation(base_federation, copies)
            for label, resilience, max_replans in modes:
                federation.reset_traffic()
                result = Mediator(
                    federation,
                    backend="runtime",
                    faults=FaultInjector(FaultProfile.flaky(rate), seed=29),
                    resilience=resilience,
                    replan=max_replans,
                ).answer(query).execution
                report = completeness_report(federation, query, result.items)
                skipped = sum(
                    len(trace.degraded_steps) for trace in result.traces
                )
                table.add_row(
                    [
                        rate,
                        copies,
                        label,
                        report.completeness,
                        len(report.spurious),
                        skipped,
                        result.recovered,
                        result.replans,
                        result.makespan_s,
                        result.total_cost,
                    ]
                )
    table.add_note(
        "with mirrors (replicas >= 2) hedging + breakers + replanning "
        "recover what skip-only loses; without mirrors the two coincide "
        "up to hedge traffic; spurious stays zero in every cell"
    )
    return join_sections(
        "=== R4: resilience — hedged dispatch, breakers, re-planning ===",
        table.render(),
    )


def run_robust_planning(
    fault_rates: tuple[float, ...] = (0.0, 0.2, 0.4),
    lambdas: tuple[float, ...] = (0.0, 2.0, 8.0),
    n_sources: int = 6,
    n_entities: int = 200,
) -> str:
    """R5 — completeness-aware planning vs cost-only SJA+ under faults.

    The R4 federation (replicated x2), but the *planner* changes instead
    of the executor: every plan runs on the same skip-only engine (no
    retries, no hedging, no breakers), so any completeness difference is
    bought at planning time.  The robust optimizer ranks candidates by
    ``cost + lambda * (1 - E[completeness]) * penalty`` with the
    availability model derived from the injected fault rate; at high
    lambda it pays duplicated wire cost to plan both members of each
    replica group ("dual-path"), keeping two independent paths to every
    condition alive.  Measured completeness is averaged over several
    fault seeds; each individual run is seed-deterministic.
    """
    config = SyntheticConfig(
        n_sources=n_sources,
        n_entities=n_entities,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 20.0),
        receive_range=(1.0, 3.0),
        seed=181,
    )
    federation = replicate_federation(build_synthetic(config), 2)
    query = synthetic_query(config, m=3, seed=13)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    representatives = federation.representative_names
    policy = RetryPolicy.no_retry()
    seeds = (29, 31, 37, 41, 43)
    table = Table(
        "robust planner vs cost-only SJA+ on a skip-only engine "
        "(replicas x2, measured completeness = mean over "
        f"{len(seeds)} fault seeds)",
        [
            "fault rate",
            "lambda",
            "planner",
            "E[compl]",
            "measured compl",
            "est cost",
            "wire cost",
        ],
    )

    def skip_only_run(plan, rate: float, seed: int):
        federation.reset_traffic()
        engine = RuntimeEngine(
            federation,
            Resilience(policy=policy),
            faults=FaultInjector(FaultProfile.flaky(rate), seed=seed),
        )
        return engine.run(plan)

    deterministic = True
    for rate in fault_rates:
        availability = AvailabilityModel.from_faults(
            FaultInjector(FaultProfile.flaky(rate), seed=29),
            policy,
            federation.source_names,
        )
        base = SJAPlusOptimizer().optimize(
            query, representatives, cost_model, estimator
        )
        plans = [("SJA+ cost-only", "-", base)]
        for lam in lambdas:
            robust = RobustOptimizer(
                federation, availability, robustness=lam
            ).optimize(query, representatives, cost_model, estimator)
            if lam == 0.0 and robust.plan != base.plan:
                raise AssertionError(
                    "lambda=0 must reproduce the cost-only plan"
                )
            plans.append(("robust", f"{lam:g}", robust))
        for label, lam, optimization in plans:
            expected = expected_completeness(
                optimization.plan, federation, estimator, availability
            ).overall
            measured = []
            wire = []
            for seed in seeds:
                result = skip_only_run(optimization.plan, rate, seed)
                measured.append(
                    completeness_report(
                        federation, query, result.items
                    ).completeness
                )
                wire.append(result.trace.total_cost)
            replay = skip_only_run(optimization.plan, rate, seeds[0])
            first = skip_only_run(optimization.plan, rate, seeds[0])
            deterministic &= replay.trace == first.trace
            table.add_row(
                [
                    rate,
                    lam,
                    label,
                    expected,
                    sum(measured) / len(measured),
                    optimization.estimated_cost,
                    sum(wire) / len(wire),
                ]
            )
    federation.reset_traffic()
    table.add_note(
        "lambda=0 reproduces the cost-only SJA+ plan exactly (zero-fault "
        "cost overhead = 0); at fault rates >= 0.2 a high lambda flips "
        "to the dual-path plan, buying expected and measured "
        "completeness with duplicated wire cost"
    )
    table.add_note(
        "identical seeds produced byte-identical traces: "
        + ("yes" if deterministic else "NO")
    )
    return join_sections(
        "=== R5: robust planning — optimize for the faulty setting ===",
        table.render(),
    )


def run_observed_stats(
    warmups: tuple[int, ...] = (0, 1, 2, 3),
    n_sources: int = 6,
    n_entities: int = 300,
) -> str:
    """R6 — log-mined statistics close the planning loop.

    Plans the same fusion query with SJA+ under three statistics
    providers: the oracle (:class:`ExactStatistics`), a cold prior
    (:class:`ObservedStatistics` with zero observations), and log-mined
    statistics after ``k`` warm-up queries.  Warm-up 1 is an exploratory
    FILTER pass (every condition at every source, so every successful
    ``sq`` answer count becomes exact selectivity evidence); later
    warm-ups execute whatever plan the current statistics pick, adding
    semijoin hits/trials evidence that pins down the universe size.  The
    mined provider sees only the warm-up runs' traces — no federation
    internals — yet its cost model for planning uses its *own*
    cardinality estimates, so the whole loop is oracle-free.  Every
    chosen plan is then executed on the live federation; the score is
    its measured wire cost relative to the oracle plan's.
    """
    config = SyntheticConfig(
        n_sources=n_sources,
        n_entities=n_entities,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 20.0),
        receive_range=(1.0, 3.0),
        seed=211,
    )
    federation = build_synthetic(config)
    query = synthetic_query(config, m=3, seed=17)
    names = federation.source_names
    oracle_estimator = SizeEstimator(ExactStatistics(federation), names)
    oracle_model = ChargeCostModel.for_federation(
        federation, oracle_estimator
    )

    def measured(plan):
        federation.reset_traffic()
        return RuntimeEngine(federation).run(plan)

    def blind_toolkit(stats: ObservedStatistics):
        """Estimator + cost model that never touch the federation's data."""
        estimator = SizeEstimator(stats, names)
        model = ChargeCostModel(
            profiles={source.name: source.link for source in federation},
            capabilities={
                source.name: source.capabilities for source in federation
            },
            estimator=estimator,
            cardinalities={name: stats.cardinality(name) for name in names},
        )
        return estimator, model

    oracle_opt = SJAPlusOptimizer().optimize(
        query, names, oracle_model, oracle_estimator
    )
    oracle_run = measured(oracle_opt.plan)
    oracle_cost = oracle_run.total_cost

    table = Table(
        "SJA+ planned from log-mined statistics vs the oracle "
        "(score = measured wire cost of the chosen plan / oracle's)",
        [
            "warm-ups",
            "statistics",
            "mined",
            "universe ~",
            "est cost",
            "wire cost",
            "vs oracle",
        ],
    )
    table.add_row(
        [
            "-",
            "oracle",
            "-",
            oracle_estimator.statistics.universe_size(),
            oracle_opt.estimated_cost,
            oracle_cost,
            1.0,
        ]
    )

    worst_warm_ratio = 0.0
    for budget in warmups:
        stats = ObservedStatistics()
        for i in range(budget):
            estimator, model = blind_toolkit(stats)
            if i == 0:
                warm_plan = build_filter_plan(
                    query, names, "exploratory warm-up"
                )
            else:
                warm_plan = (
                    SJAPlusOptimizer()
                    .optimize(query, names, model, estimator)
                    .plan
                )
            federation.reset_traffic()
            stats.observe(RuntimeEngine(federation).run(warm_plan).traces)
        estimator, model = blind_toolkit(stats)
        optimization = SJAPlusOptimizer().optimize(
            query, names, model, estimator
        )
        run = measured(optimization.plan)
        if run.items != oracle_run.items:
            raise AssertionError(
                "statistics only steer plan choice; answers must match"
            )
        ratio = run.total_cost / oracle_cost
        if budget >= 1:
            worst_warm_ratio = max(worst_warm_ratio, ratio)
        table.add_row(
            [
                budget,
                "mined" if budget else "prior only",
                stats.observations,
                stats.universe_size(),
                optimization.estimated_cost,
                run.total_cost,
                ratio,
            ]
        )
    if worst_warm_ratio > 1.2:
        raise AssertionError(
            "observed-statistics plan drifted beyond 20% of the oracle "
            f"plan cost after warm-up (worst ratio {worst_warm_ratio:.3f})"
        )
    federation.reset_traffic()
    table.add_note(
        "every plan returns the oracle plan's exact answer — statistics "
        "only steer which plan gets picked, never what it computes"
    )
    table.add_note(
        "acceptance: after >= 1 warm-up the chosen plan's measured wire "
        f"cost stays within 20% of the oracle's (worst observed "
        f"{worst_warm_ratio:.3f}x)"
    )
    return join_sections(
        "=== R6: observed statistics — mine the logs, close the loop ===",
        table.render(),
    )


def run_search_scaling(
    ms: tuple[int, ...] = (4, 7, 10),
    strategies: tuple[str, ...] = ("exhaustive", "dp", "bnb", "beam"),
    n_sources: int = 4,
    n_entities: int = 120,
    seed: int = 900,
    cache_queries: int = 5,
    cache_repeats: int = 4,
    bench_json: bool = True,
) -> str:
    """R7: subset-DP plan search vs the m! sweep, plus plan-cache hit rate.

    Sweeps query arity ``m`` across search strategies on one synthetic
    federation, recording optimizer wall-clock, states considered
    (orderings for the factorial sweep, subsets for DP/B&B/beam), and the
    chosen plan's estimated cost.  Every exact strategy must agree with
    the exhaustive sweep's cost bit-for-bit; beam is reported separately
    as inexact.  A second table measures the mediator plan cache under a
    repeated-query workload: repeats must never re-enter the optimizer.

    When ``bench_json`` is true the per-cell rows are also written to
    ``BENCH_R7.json`` in the current directory for CI trend tracking.
    """
    config = SyntheticConfig(
        n_sources=n_sources, n_entities=n_entities, seed=seed
    )
    table = Table(
        "plan search scaling (synthetic federation, "
        f"n={n_sources} sources, {n_entities} entities)",
        [
            "m",
            "strategy",
            "states",
            "optimize ms",
            "estimated cost",
            "vs m! sweep",
            "exact",
        ],
    )
    rows: list[dict] = []
    worst_ratio = 0.0
    for m in ms:
        kit = make_kit(config, m)
        baseline_cost: float | None = None
        baseline_states: int | None = None
        baseline_ms: float | None = None
        for strategy in strategies:
            optimizer = SJAOptimizer(search=strategy)
            result = optimizer.optimize(
                kit.query, kit.source_names, kit.cost_model, kit.estimator
            )
            states = result.plans_considered or result.subsets_considered
            elapsed_ms = result.elapsed_s * 1e3
            if strategy == "exhaustive":
                baseline_cost = result.estimated_cost
                baseline_states = states
                baseline_ms = elapsed_ms
            exact = result.search_strategy != "beam"
            if exact and baseline_cost is not None:
                if result.estimated_cost != baseline_cost:
                    raise AssertionError(
                        f"{strategy} at m={m} found cost "
                        f"{result.estimated_cost!r}, exhaustive found "
                        f"{baseline_cost!r} — exact strategies must agree"
                    )
            speedup = "-"
            if strategy != "exhaustive" and baseline_states:
                speedup = f"{baseline_states / states:.0f}x fewer"
            table.add_row(
                [
                    m,
                    result.search_strategy,
                    states,
                    elapsed_ms,
                    result.estimated_cost,
                    speedup,
                    "yes" if exact else "no",
                ]
            )
            if not exact and baseline_cost:
                worst_ratio = max(
                    worst_ratio, result.estimated_cost / baseline_cost
                )
            rows.append(
                {
                    "bench": "R7",
                    "scenario": f"m={m} {result.search_strategy}",
                    "m": m,
                    "strategy": result.search_strategy,
                    "elapsed_s": result.elapsed_s,
                    "plans_considered": states,
                    "cost": result.estimated_cost,
                }
            )
        if baseline_states is not None and "dp" in strategies:
            dp_states = next(
                r["plans_considered"]
                for r in rows
                if r["m"] == m and r["strategy"] == "dp"
            )
            if baseline_states >= math.factorial(10):
                ratio = baseline_states / dp_states
                if ratio < 100:
                    raise AssertionError(
                        f"DP considered only {ratio:.0f}x fewer states "
                        f"than the m! sweep at m={m}; expected >= 100x"
                    )
        del baseline_ms
    table.add_note(
        "states = orderings enumerated (exhaustive) or subset-DP / "
        "branch-and-bound states expanded (dp, bnb, beam)"
    )
    table.add_note(
        "acceptance: every exact strategy matches the m! sweep's cost "
        "bit-for-bit; DP considers >= 100x fewer states by m=10"
    )
    if worst_ratio:
        table.add_note(
            f"beam (inexact) stayed within {worst_ratio:.3f}x of optimal"
        )

    cache_table = Table(
        "mediator plan cache under a repeated-query workload",
        [
            "distinct queries",
            "lookups",
            "optimizer calls",
            "hits",
            "misses",
            "hit rate",
        ],
    )
    kit = make_kit(config, 3)
    calls = {"n": 0}

    class _CountingOptimizer(SJAOptimizer):
        def optimize(self, query, source_names, cost_model, estimator):
            calls["n"] += 1
            return super().optimize(
                query, source_names, cost_model, estimator
            )

    mediator = Mediator(
        kit.federation,
        planning=Planning(optimizer=_CountingOptimizer(search="dp")),
        plan_cache=PlanCache(),
    )
    queries = [
        synthetic_query(config, m=3, seed=seed + 2000 + i)
        for i in range(cache_queries)
    ]
    lookups = 0
    for _ in range(cache_repeats):
        for query in queries:
            mediator.plan(query)
            lookups += 1
    cache = mediator.plan_cache
    if calls["n"] != len(queries):
        raise AssertionError(
            f"{calls['n']} optimizer calls for {len(queries)} distinct "
            "queries — repeats must be served from the plan cache"
        )
    cache_table.add_row(
        [
            len(queries),
            lookups,
            calls["n"],
            cache.hits,
            cache.misses,
            cache.hit_rate,
        ]
    )
    cache_table.add_note(
        "acceptance: optimizer calls == distinct queries; every repeat "
        "is a cache hit (zero optimizer invocations)"
    )
    cache_table.add_note(cache.summary())

    if bench_json:
        path = os.path.join(os.getcwd(), "BENCH_R7.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")

    return join_sections(
        "=== R7: plan-search scaling — retiring the m! sweep ===",
        table.render(),
        cache_table.render(),
    )
