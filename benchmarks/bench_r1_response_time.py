"""R1 — response time in a parallel execution model (Sec. 6 future work)."""

from __future__ import annotations

from repro.mediator.schedule import estimated_response_time, response_time
from repro.optimize.response_time import ResponseTimeSJAOptimizer
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import RuntimeEngine


def test_schedule_executed_plan(benchmark, medium_kit):
    kit = medium_kit
    plan = build_filter_plan(kit.query, kit.source_names)
    execution = RuntimeEngine(kit.federation).run(plan)
    schedule = benchmark(response_time, plan, execution)
    assert schedule.makespan_s <= schedule.total_time_s


def test_estimate_schedule(benchmark, medium_kit):
    kit = medium_kit
    plan = build_filter_plan(kit.query, kit.source_names)
    schedule = benchmark(
        estimated_response_time, plan, kit.federation, kit.estimator
    )
    assert schedule.makespan_s > 0


def test_response_time_optimizer(benchmark, hetero_kit):
    kit = hetero_kit
    optimizer = ResponseTimeSJAOptimizer(kit.federation)
    result = benchmark(
        optimizer.optimize,
        kit.query,
        kit.source_names,
        kit.cost_model,
        kit.estimator,
    )
    assert result.estimated_cost > 0


def test_r1_report(benchmark, report_runner):
    report = report_runner(benchmark, "R1")
    assert "makespan" in report
