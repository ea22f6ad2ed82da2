"""Experiments F1–F5: regenerate the paper's figures as runnable artifacts."""

from __future__ import annotations

import time

from repro.bench.harness import kit_for_federation, make_kit, run_optimizers
from repro.bench.report import Table, join_sections
from repro.mediator.executor import Executor
from repro.optimize.filter import FilterOptimizer
from repro.optimize.postopt import (
    apply_difference_pruning,
    apply_source_loading,
)
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import (
    StagedChoice,
    build_filter_plan,
    build_staged_plan,
    uniform_choices,
)
from repro.plans.classify import classify
from repro.plans.cost import estimate_plan_cost
from repro.query.fusion import FusionQuery
from repro.sources.generators import (
    SyntheticConfig,
    dmv_fig1,
)
from repro.sources.network import LinkProfile


def run_fig1() -> str:
    """F1 — the Fig. 1 DMV example, end to end.

    Prints the three source relations exactly as the paper does, the
    fusion query in SQL, the optimized plan, the execution trace, and
    the fused answer {J55, T21}.
    """
    federation, query = dmv_fig1()
    sections = ["=== F1: Fig. 1 DMV example ==="]
    for source in federation:
        sections.append(source.table.relation.pretty())
    sections.append("query: " + query.to_sql())

    kit = kit_for_federation(federation, query)
    result = SJAPlusOptimizer().optimize(
        query, kit.source_names, kit.cost_model, kit.estimator
    )
    sections.append("chosen plan (SJA+):")
    sections.append(result.plan.pretty())
    federation.reset_traffic()
    execution = Executor(federation).execute(result.plan)
    sections.append("execution trace:")
    sections.append(execution.render_steps(result.plan))
    sections.append(
        "answer: " + ", ".join(sorted(execution.items))
        + "   (paper: J55, T21 — fused across sources)"
    )
    return join_sections(*sections)


def _fig2_plans():
    query = FusionQuery.from_strings(
        "L", ["V = 'dui'", "V = 'sp'", "D >= 1994"], name="fig2"
    )
    sources = ["R1", "R2"]
    filter_plan = build_filter_plan(query, sources, description="Fig. 2(a)")
    semijoin_plan = build_staged_plan(
        query,
        [0, 1, 2],
        uniform_choices(3, 2, [False, True, False]),
        sources,
        description="Fig. 2(b)",
    )
    adaptive_plan = build_staged_plan(
        query,
        [0, 1, 2],
        [
            [StagedChoice.SELECTION] * 2,
            [StagedChoice.SEMIJOIN, StagedChoice.SELECTION],
            [StagedChoice.SELECTION] * 2,
        ],
        sources,
        description="Fig. 2(c)",
    )
    return query, [filter_plan, semijoin_plan, adaptive_plan]


def run_fig2() -> str:
    """F2 — the three plan classes of Fig. 2, with classification."""
    __, plans = _fig2_plans()
    sections = ["=== F2: Fig. 2 plan classes ==="]
    table = Table(
        "plan classes", ["figure", "class", "steps", "source queries"]
    )
    for plan in plans:
        sections.append(plan.pretty())
        table.add_row(
            [
                plan.description,
                classify(plan).value,
                len(plan),
                plan.remote_op_count,
            ]
        )
    sections.append(table.render())
    return join_sections(*sections)


def _optimizer_scaling(optimizer_factory, label: str) -> str:
    """Shared scaling sweeps for F3/F4: wall time vs n and vs m."""
    by_n = Table(
        f"{label} optimization time vs number of sources (m = 3)",
        ["n sources", "optimize ms", "ms per source"],
    )
    for n in (5, 10, 25, 50, 100, 200):
        config = SyntheticConfig(
            n_sources=n, n_entities=120, coverage=(0.2, 0.5), seed=n
        )
        kit = make_kit(config, m=3)
        start = time.perf_counter()
        optimizer_factory().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        by_n.add_row([n, elapsed_ms, elapsed_ms / n])
    by_n.add_note(
        "ms per source should be roughly flat: runtime is O(m!·m·n), "
        "linear in n (Sec. 3)"
    )

    by_m = Table(
        f"{label} optimization time vs number of conditions (n = 20)",
        ["m conditions", "orderings (m!)", "optimize ms"],
    )
    import math

    for m in (2, 3, 4, 5, 6):
        config = SyntheticConfig(
            n_sources=20, n_entities=120, coverage=(0.2, 0.5), seed=m
        )
        kit = make_kit(config, m=m)
        start = time.perf_counter()
        optimizer_factory().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        by_m.add_row([m, math.factorial(m), elapsed_ms])
    by_m.add_note("growth tracks m! — exponential in m, as analyzed")
    return join_sections(by_n.render(), by_m.render())


def run_fig3() -> str:
    """F3 — the SJ algorithm (Fig. 3): optimal semijoin plan + scaling."""
    sections = ["=== F3: Fig. 3 — the SJ algorithm ==="]
    config = SyntheticConfig(
        n_sources=6,
        n_entities=300,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 30.0),
        receive_range=(1.0, 3.0),
        seed=333,
    )
    kit = make_kit(config, m=3)
    runs = run_optimizers(kit, [FilterOptimizer(), SJOptimizer()])
    table = Table(
        "FILTER vs SJ on a 6-source federation",
        ["optimizer", "est. cost", "actual cost", "messages", "correct"],
    )
    for run in runs:
        table.add_row(
            [run.name, run.estimated_cost, run.actual_cost, run.messages,
             run.correct]
        )
    sections.append(table.render())
    sections.append(_optimizer_scaling(SJOptimizer, "SJ"))
    return join_sections(*sections)


def run_fig4() -> str:
    """F4 — the SJA algorithm (Fig. 4): per-source adaptivity + scaling."""
    sections = ["=== F4: Fig. 4 — the SJA algorithm ==="]
    table = Table(
        "SJ vs SJA across source heterogeneity (n = 8, m = 3)",
        [
            "emulated fraction",
            "FILTER cost",
            "SJ cost",
            "SJA cost",
            "SJ / SJA",
        ],
    )
    for emulated in (0.0, 0.25, 0.5, 0.75):
        config = SyntheticConfig(
            n_sources=8,
            n_entities=300,
            coverage=(0.3, 0.6),
            native_fraction=1.0 - emulated,
            emulated_fraction=emulated,
            overhead_range=(5.0, 15.0),
            send_range=(0.2, 0.5),
            receive_range=(4.0, 8.0),
            seed=int(emulated * 100) + 7,
        )
        kit = make_kit(config, m=3)
        runs = {
            run.name: run
            for run in run_optimizers(
                kit, [FilterOptimizer(), SJOptimizer(), SJAOptimizer()]
            )
        }
        table.add_row(
            [
                emulated,
                runs["FILTER"].estimated_cost,
                runs["SJ"].estimated_cost,
                runs["SJA"].estimated_cost,
                runs["SJ"].estimated_cost / runs["SJA"].estimated_cost,
            ]
        )
    table.add_note(
        "SJA's advantage grows with heterogeneity: it can still use the "
        "cheap semijoins while routing selections to emulated sources "
        "(Sec. 2.5)"
    )
    sections.append(table.render())
    sections.append(_optimizer_scaling(SJAOptimizer, "SJA"))
    return join_sections(*sections)


def run_fig5() -> str:
    """F5 — Fig. 5 postoptimization: difference pruning and source loads."""
    sections = ["=== F5: Fig. 5 — postoptimization (SJA+) ==="]
    # A Fig. 5-flavoured setup: m = 2, n = 3, semijoin-friendly links so
    # the SJA plan (our P1) contains semijoin queries worth pruning.
    federation, query = dmv_fig1(
        link=LinkProfile(
            request_overhead=1.0,
            per_item_send=5.0,
            per_item_receive=50.0,
            per_row_load=40.0,
        )
    )
    kit = kit_for_federation(federation, query)
    executor = Executor(federation)

    base = SJAOptimizer().optimize(
        query, kit.source_names, kit.cost_model, kit.estimator
    ).plan.with_description("P1 (SJA output)")
    pruned = apply_difference_pruning(base).with_description(
        "P2b (difference pruning)"
    )
    loaded = apply_source_loading(
        base, kit.cost_model, kit.estimator
    ).with_description("P2a (source loading)")
    both = apply_source_loading(
        pruned, kit.cost_model, kit.estimator
    ).with_description("P3 (both)")

    table = Table(
        "postoptimizing P1",
        ["plan", "est. cost", "actual cost", "items sent", "answer"],
    )
    for plan in (base, pruned, loaded, both):
        sections.append(plan.pretty())
        estimated = estimate_plan_cost(
            plan, kit.cost_model, kit.estimator
        ).total
        federation.reset_traffic()
        execution = executor.execute(plan)
        table.add_row(
            [
                plan.description,
                estimated,
                execution.total_cost,
                sum(source.traffic.items_sent for source in federation),
                ", ".join(sorted(execution.items)),
            ]
        )
    table.add_note(
        "difference pruning shrinks semijoin send-sets; loading replaces "
        "per-query charges on tiny sources (Sec. 4)"
    )
    sections.append(table.render())
    return join_sections(*sections)
