"""C6 — ablation of the two SJA+ postoptimization techniques."""

from __future__ import annotations

import pytest

from repro.bench.harness import make_kit
from repro.optimize.postopt import apply_difference_pruning, apply_source_loading
from repro.optimize.sja import SJAOptimizer
from repro.runtime.engine import RuntimeEngine
from repro.sources.generators import SyntheticConfig


@pytest.fixture(scope="module")
def tiny_sources_kit():
    """Tiny sources with heavy per-query overhead: lq territory (Sec. 4)."""
    config = SyntheticConfig(
        n_sources=5,
        n_entities=40,
        coverage=(0.5, 0.9),
        overhead_range=(25.0, 25.0),
        load_range=(1.0, 1.0),
        seed=66,
    )
    return make_kit(config, m=4)


#: The four SJA+ variants of C6, each as the passes applied to SJA's plan.
VARIANTS = {
    "none": lambda plan, kit: plan,
    "diff-only": lambda plan, kit: apply_difference_pruning(plan),
    "load-only": lambda plan, kit: apply_source_loading(
        plan, kit.cost_model, kit.estimator
    ),
    "both": lambda plan, kit: apply_source_loading(
        apply_difference_pruning(plan), kit.cost_model, kit.estimator
    ),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_sja_plus_variants_execute(benchmark, tiny_sources_kit, variant):
    kit = tiny_sources_kit
    base_plan = SJAOptimizer().optimize(
        kit.query, kit.source_names, kit.cost_model, kit.estimator
    ).plan
    plan = VARIANTS[variant](base_plan, kit)
    engine = RuntimeEngine(kit.federation)

    def run():
        kit.federation.reset_traffic()
        return engine.run(plan).total_cost

    kit.federation.reset_traffic()
    base_cost = engine.run(base_plan).total_cost
    assert benchmark(run) <= base_cost + 1e-6


def test_ablation_postopt_report(benchmark, report_runner):
    report = report_runner(benchmark, "C6")
    assert "loads fired" in report
