"""Experiments C1–C6 and E1: the paper's quantitative claims, measured."""

from __future__ import annotations

import math
import random
import statistics as stats
import time

from repro.bench.harness import make_kit, run_optimizers
from repro.bench.report import Table, join_sections
from repro.optimize.exhaustive import (
    ExhaustiveAdaptiveOptimizer,
    ExhaustiveSemijoinOptimizer,
)
from repro.optimize.filter import FilterOptimizer
from repro.optimize.greedy import GreedySJAOptimizer, SelectivityOrderOptimizer
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.optimize.union_pushdown import JoinOverUnionOptimizer
from repro.plans.cost import estimate_plan_cost
from repro.plans.space import (
    count_distinct_semijoin_plans,
    random_simple_plan,
    raw_adaptive_space_size,
    raw_semijoin_space_size,
)
from repro.sources.generators import SyntheticConfig


def run_claim_plan_space() -> str:
    """C1 — plan-space sizes and SJA's optimality within its space.

    Reproduces Sec. 3's counting — ``O(m!·2^(m-2))`` semijoin plans vs
    ``O(m!·2^(n(m-2)))`` semijoin-adaptive plans — and verifies by brute
    force that SJ/SJA find the space optima while inspecting only
    ``m!`` candidate plans.
    """
    sizes = Table(
        "plan-space sizes",
        [
            "m",
            "raw SJ specs (m!·2^(m-1))",
            "cost-distinct SJ plans",
            "paper bound m!·2^(m-2)",
            "adaptive specs, n=5",
            "adaptive specs, n=10",
        ],
    )
    for m in (2, 3, 4, 5):
        sizes.add_row(
            [
                m,
                raw_semijoin_space_size(m),
                count_distinct_semijoin_plans(m),
                math.factorial(m) * 2 ** max(0, m - 2),
                raw_adaptive_space_size(m, 5),
                raw_adaptive_space_size(m, 10),
            ]
        )
    sizes.add_note(
        "the adaptive space explodes with n, yet SJA searches it in the "
        "same O(m!·m·n) time as SJ"
    )

    optimality = Table(
        "brute-force validation (searched plans vs inspected plans)",
        [
            "m",
            "n",
            "SJ = exhaustive?",
            "SJA = exhaustive?",
            "specs enumerated",
            "SJA plans costed",
        ],
    )
    for m, n in ((2, 3), (3, 3), (3, 4)):
        config = SyntheticConfig(
            n_sources=n,
            n_entities=150,
            overhead_range=(2.0, 40.0),
            receive_range=(0.5, 3.0),
            seed=m * 10 + n,
        )
        kit = make_kit(config, m=m)
        args = (kit.query, kit.source_names, kit.cost_model, kit.estimator)
        sj = SJOptimizer().optimize(*args)
        sj_brute = ExhaustiveSemijoinOptimizer().optimize(*args)
        sja = SJAOptimizer().optimize(*args)
        sja_brute = ExhaustiveAdaptiveOptimizer().optimize(*args)
        optimality.add_row(
            [
                m,
                n,
                abs(sj.estimated_cost - sj_brute.estimated_cost) < 1e-6,
                abs(sja.estimated_cost - sja_brute.estimated_cost) < 1e-6,
                sja_brute.plans_considered,
                sja.plans_considered,
            ]
        )
    return join_sections(
        "=== C1: plan-space sizes and optimality ===",
        sizes.render(),
        optimality.render(),
    )


def run_claim_dominance() -> str:
    """C2 — cost dominance FILTER >= SJ >= SJA >= SJA+ across a grid.

    Sweeps answer-transfer weight, request overhead, and the fraction of
    emulated-semijoin sources; reports estimated and actual executed
    costs.  The paper's qualitative claim: SJA is never worse and "often
    much better"; postoptimization "can boost performance significantly".
    """
    table = Table(
        "estimated (actual) cost by optimizer",
        [
            "receive weight",
            "overhead",
            "emulated frac",
            "FILTER",
            "SJ",
            "SJA",
            "SJA+",
            "FILTER/SJA",
        ],
    )
    optimizers = [
        FilterOptimizer(),
        SJOptimizer(),
        SJAOptimizer(),
        SJAPlusOptimizer(),
    ]
    wins = {"SJA<SJ": 0, "SJ<FILTER": 0, "SJA+<=SJA": 0, "trials": 0}
    for receive in (1.0, 5.0):
        for overhead in (5.0, 50.0):
            for emulated in (0.0, 0.5):
                config = SyntheticConfig(
                    n_sources=8,
                    n_entities=400,
                    coverage=(0.2, 0.6),
                    native_fraction=1.0 - emulated,
                    emulated_fraction=emulated,
                    overhead_range=(overhead, overhead),
                    receive_range=(receive, receive),
                    send_range=(0.5, 0.5),
                    seed=int(receive * 10 + overhead + emulated * 3),
                )
                kit = make_kit(config, m=3)
                runs = {
                    run.name: run for run in run_optimizers(kit, optimizers)
                }
                assert all(run.correct for run in runs.values())
                wins["trials"] += 1
                if runs["SJA"].actual_cost < runs["SJ"].actual_cost - 1e-9:
                    wins["SJA<SJ"] += 1
                if runs["SJ"].actual_cost < runs["FILTER"].actual_cost - 1e-9:
                    wins["SJ<FILTER"] += 1
                if runs["SJA+"].actual_cost <= runs["SJA"].actual_cost + 1e-9:
                    wins["SJA+<=SJA"] += 1
                table.add_row(
                    [
                        receive,
                        overhead,
                        emulated,
                        f"{runs['FILTER'].estimated_cost:.0f} "
                        f"({runs['FILTER'].actual_cost:.0f})",
                        f"{runs['SJ'].estimated_cost:.0f} "
                        f"({runs['SJ'].actual_cost:.0f})",
                        f"{runs['SJA'].estimated_cost:.0f} "
                        f"({runs['SJA'].actual_cost:.0f})",
                        f"{runs['SJA+'].estimated_cost:.0f} "
                        f"({runs['SJA+'].actual_cost:.0f})",
                        runs["FILTER"].estimated_cost
                        / runs["SJA"].estimated_cost,
                    ]
                )
    table.add_note(
        f"SJA strictly beat SJ in {wins['SJA<SJ']}/{wins['trials']} "
        f"configurations; SJA+ <= SJA in {wins['SJA+<=SJA']}/{wins['trials']}"
    )
    return join_sections("=== C2: cost dominance ===", table.render())


def run_claim_sja_optimal() -> str:
    """C3 — for m = 2, no sampled simple plan beats SJA (Sec. 3 via [24])."""
    table = Table(
        "SJA vs 200 sampled general simple plans (m = 2)",
        [
            "trial",
            "SJA cost",
            "best sampled",
            "median sampled",
            "SJA optimal?",
        ],
    )
    for trial in range(6):
        config = SyntheticConfig(
            n_sources=4,
            n_entities=200,
            overhead_range=(2.0, 40.0),
            receive_range=(0.5, 3.0),
            seed=trial * 97,
        )
        kit = make_kit(config, m=2)
        sja = SJAOptimizer().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        sja_cost = estimate_plan_cost(
            sja.plan, kit.cost_model, kit.estimator
        ).total
        rng = random.Random(trial)
        sampled = [
            estimate_plan_cost(
                random_simple_plan(kit.query, kit.source_names, rng),
                kit.cost_model,
                kit.estimator,
            ).total
            for __ in range(200)
        ]
        table.add_row(
            [
                trial,
                sja_cost,
                min(sampled),
                stats.median(sampled),
                sja_cost <= min(sampled) + 1e-6,
            ]
        )
    table.add_note(
        "claim (Sec. 3, proved in [24]): with two conditions the best "
        "semijoin-adaptive plan is the best simple plan"
    )
    return join_sections("=== C3: SJA optimal among simple plans (m=2) ===",
                         table.render())


def run_claim_scaling() -> str:
    """C4 — optimizer runtimes: linear in n, factorial in m; greedy quality."""
    by_n = Table(
        "optimization time vs n (m = 3)",
        ["n", "SJA ms", "greedy(SJA-G2) ms", "FILTER ms"],
    )
    for n in (10, 50, 100, 250, 500):
        config = SyntheticConfig(
            n_sources=n, n_entities=100, coverage=(0.1, 0.3), seed=n
        )
        kit = make_kit(config, m=3)
        times = {}
        for optimizer in (SJAOptimizer(), GreedySJAOptimizer(), FilterOptimizer()):
            start = time.perf_counter()
            optimizer.optimize(
                kit.query, kit.source_names, kit.cost_model, kit.estimator
            )
            times[optimizer.name] = (time.perf_counter() - start) * 1e3
        by_n.add_row([n, times["SJA"], times["SJA-G2"], times["FILTER"]])

    by_m = Table(
        "optimization time vs m (n = 15) and greedy plan quality",
        ["m", "SJA ms", "greedy ms", "greedy cost / SJA cost"],
    )
    for m in (2, 3, 4, 5, 6, 7):
        config = SyntheticConfig(
            n_sources=15, n_entities=150, coverage=(0.2, 0.5),
            overhead_range=(2.0, 40.0), seed=m * 13,
        )
        kit = make_kit(config, m=m)
        start = time.perf_counter()
        sja = SJAOptimizer().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        sja_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        greedy = GreedySJAOptimizer().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        greedy_ms = (time.perf_counter() - start) * 1e3
        by_m.add_row(
            [m, sja_ms, greedy_ms, greedy.estimated_cost / sja.estimated_cost]
        )
    by_m.add_note(
        "SJA grows with m! while greedy stays polynomial; the quality "
        "ratio stays near 1 (Sec. 3's 'still very good plans')"
    )
    return join_sections(
        "=== C4: optimizer scaling and greedy quality ===",
        by_n.render(),
        by_m.render(),
    )


def run_sec5_existing() -> str:
    """C5 — the Sec. 5 baseline: distributing the join over the union."""
    table = Table(
        "join-over-union expansion vs the Sec. 3 algorithms",
        [
            "n",
            "m",
            "SPJ subqueries",
            "JOIN/UNION",
            "JOIN/UNION+CSE",
            "FILTER",
            "SJA",
            "naive / SJA",
        ],
    )
    for n, m in ((2, 2), (3, 2), (3, 3), (4, 3)):
        config = SyntheticConfig(
            n_sources=n,
            n_entities=250,
            coverage=(0.3, 0.6),
            overhead_range=(10.0, 10.0),
            seed=n * 10 + m,
        )
        kit = make_kit(config, m=m)
        args = (kit.query, kit.source_names, kit.cost_model, kit.estimator)
        naive = JoinOverUnionOptimizer().optimize(*args)
        cse = JoinOverUnionOptimizer(eliminate_common=True).optimize(*args)
        flt = FilterOptimizer().optimize(*args)
        sja = SJAOptimizer().optimize(*args)
        table.add_row(
            [
                n,
                m,
                n**m,
                naive.estimated_cost,
                cse.estimated_cost,
                flt.estimated_cost,
                sja.estimated_cost,
                naive.estimated_cost / sja.estimated_cost,
            ]
        )
    table.add_note(
        "the expansion re-evaluates common subexpressions n^(m-1) times; "
        "CSE helps but cannot dedupe semijoins with distinct binding sets "
        "(Sec. 5)"
    )
    return join_sections(
        "=== C5: existing optimizers (join over union) ===", table.render()
    )


def run_ablation_postopt() -> str:
    """C6 — ablation of the two SJA+ techniques (Sec. 4).

    Loading wins on "extremely small source databases or large number of
    conditions"; difference pruning needs semijoin stages to bite.
    """
    table = Table(
        "actual executed cost by postoptimization variant",
        [
            "entities/source",
            "m",
            "SJA",
            "+difference",
            "+loading",
            "SJA+ (both)",
            "loads fired",
        ],
    )
    from repro.optimize.postopt import (
        apply_difference_pruning,
        apply_source_loading,
    )
    from repro.plans.operations import OpKind
    from repro.runtime.engine import RuntimeEngine

    for entities, m in ((40, 2), (40, 4), (400, 2), (400, 4), (2000, 3)):
        config = SyntheticConfig(
            n_sources=5,
            n_entities=entities,
            coverage=(0.4, 0.8),
            rows_per_entity=(1, 2),
            overhead_range=(20.0, 20.0),
            receive_range=(2.0, 2.0),
            load_range=(1.0, 1.0),
            seed=entities + m,
        )
        kit = make_kit(config, m=m)
        base = SJAOptimizer().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        ).plan
        pruned = apply_difference_pruning(base)
        loaded = apply_source_loading(base, kit.cost_model, kit.estimator)
        both = apply_source_loading(pruned, kit.cost_model, kit.estimator)
        engine = RuntimeEngine(kit.federation)
        costs = []
        for plan in (base, pruned, loaded, both):
            kit.federation.reset_traffic()
            costs.append(engine.run(plan).total_cost)
        table.add_row(
            [
                entities,
                m,
                costs[0],
                costs[1],
                costs[2],
                costs[3],
                both.count_by_kind().get(OpKind.LOAD, 0),
            ]
        )
    table.add_note(
        "loading fires on small sources / many conditions; pruning helps "
        "whenever the plan ships semijoin sets (Sec. 4)"
    )
    return join_sections("=== C6: postoptimization ablation ===", table.render())


def run_e2e() -> str:
    """E1 — estimated vs actual cost and correctness across workloads."""
    table = Table(
        "estimated vs actual execution cost",
        [
            "workload",
            "optimizer",
            "est. cost",
            "actual cost",
            "act/est",
            "messages",
            "correct",
        ],
    )
    workloads = {
        "balanced": SyntheticConfig(
            n_sources=6, n_entities=300, seed=1,
        ),
        "heterogeneous": SyntheticConfig(
            n_sources=6,
            n_entities=300,
            native_fraction=0.5,
            emulated_fraction=0.3,
            overhead_range=(2.0, 60.0),
            receive_range=(0.5, 4.0),
            seed=2,
        ),
        "overlapping": SyntheticConfig(
            n_sources=6, n_entities=150, coverage=(0.7, 1.0), seed=3,
        ),
        "partitioned": SyntheticConfig(
            n_sources=6, n_entities=600, coverage=(0.08, 0.15), seed=4,
        ),
    }
    optimizers = [
        FilterOptimizer(),
        SJOptimizer(),
        SJAOptimizer(),
        SJAPlusOptimizer(),
        SelectivityOrderOptimizer(),
    ]
    for name, config in workloads.items():
        kit = make_kit(config, m=3)
        for run in run_optimizers(kit, optimizers):
            table.add_row(
                [
                    name,
                    run.name,
                    run.estimated_cost,
                    run.actual_cost,
                    run.actual_cost / run.estimated_cost
                    if run.estimated_cost
                    else float("nan"),
                    run.messages,
                    run.correct,
                ]
            )
    table.add_note(
        "act/est deviates from 1 only through the independence assumption "
        "on intermediate sizes — the cost shapes are identical by design"
    )
    return join_sections(
        "=== E1: end-to-end estimated vs actual ===", table.render()
    )
