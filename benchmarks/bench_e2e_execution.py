"""E1 — end-to-end execution: estimated vs actual cost, correctness."""

from __future__ import annotations

from repro.mediator.reference import reference_answer
from repro.optimize.filter import FilterOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import RuntimeEngine


def test_execute_filter_plan(benchmark, medium_kit):
    kit = medium_kit
    plan = build_filter_plan(kit.query, kit.source_names)
    engine = RuntimeEngine(kit.federation)

    def run():
        kit.federation.reset_traffic()
        return engine.run(plan).items

    assert benchmark(run) == reference_answer(kit.federation, kit.query)


def test_execute_sja_plus_plan(benchmark, hetero_kit):
    kit = hetero_kit
    plan = SJAPlusOptimizer().optimize(
        kit.query, kit.source_names, kit.cost_model, kit.estimator
    ).plan
    engine = RuntimeEngine(kit.federation)

    def run():
        kit.federation.reset_traffic()
        return engine.run(plan).items

    assert benchmark(run) == reference_answer(kit.federation, kit.query)


def test_optimize_and_execute_end_to_end(benchmark, medium_kit):
    kit = medium_kit
    engine = RuntimeEngine(kit.federation)
    optimizer = FilterOptimizer()

    def run():
        kit.federation.reset_traffic()
        result = optimizer.optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        return engine.run(result.plan).items

    assert benchmark(run) == reference_answer(kit.federation, kit.query)


def test_e2e_report(benchmark, report_runner):
    report = report_runner(benchmark, "E1")
    assert "act/est" in report
    assert "False" not in report
