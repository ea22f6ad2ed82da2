"""Unit tests for the parallel-execution response-time model."""

from __future__ import annotations

import pytest

from repro.costs.estimates import SizeEstimator
from repro.errors import PlanValidationError
from repro.mediator.executor import Executor
from repro.mediator.schedule import (
    estimated_response_time,
    response_time,
)
from repro.plans.builder import (
    build_filter_plan,
    build_staged_plan,
    uniform_choices,
)
from repro.plans.operations import SelectionOp, UnionOp
from repro.plans.plan import Plan
from repro.relational.parser import parse_condition
from repro.sources.generators import dmv_fig1
from repro.sources.statistics import ExactStatistics


@pytest.fixture
def kit():
    federation, query = dmv_fig1()
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    return federation, query, estimator


class TestActualScheduling:
    def test_filter_plan_parallelizes_across_sources(self, kit):
        federation, query, __ = kit
        plan = build_filter_plan(query, federation.source_names)
        execution = Executor(federation).execute(plan)
        schedule = response_time(plan, execution)
        # 6 selections over 3 sources: 2 rounds per source in parallel.
        assert schedule.makespan_s < schedule.total_time_s
        assert schedule.parallel_speedup == pytest.approx(3.0, rel=0.05)

    def test_semijoin_stage_waits_for_binding_set(self, kit):
        federation, query, __ = kit
        plan = build_staged_plan(
            query,
            [0, 1],
            uniform_choices(2, 3, [False, True]),
            federation.source_names,
        )
        execution = Executor(federation).execute(plan)
        schedule = response_time(plan, execution)
        # Every semijoin starts only after all stage-1 selections finished.
        stage1_finish = max(
            op.finish_s
            for op in schedule.ops
            if op.operation.remote and op.operation.kind.value == "sq"
        )
        for op in schedule.ops:
            if op.operation.remote and op.operation.kind.value == "sjq":
                assert op.start_s >= stage1_finish - 1e-12

    def test_same_source_ops_serialize(self, kit):
        federation, query, __ = kit
        plan = build_filter_plan(query, federation.source_names)
        execution = Executor(federation).execute(plan)
        schedule = response_time(plan, execution)
        by_source: dict[str, list] = {}
        for op in schedule.ops:
            if op.operation.remote:
                by_source.setdefault(op.operation.source, []).append(op)
        for ops in by_source.values():
            ops.sort(key=lambda op: op.start_s)
            for earlier, later in zip(ops, ops[1:]):
                assert later.start_s >= earlier.finish_s - 1e-12

    def test_makespan_bounds(self, kit):
        federation, query, __ = kit
        plan = build_filter_plan(query, federation.source_names)
        execution = Executor(federation).execute(plan)
        schedule = response_time(plan, execution)
        longest_single = max(
            step.elapsed_s for step in execution.steps
        )
        assert longest_single <= schedule.makespan_s <= schedule.total_time_s

    def test_mismatched_trace_rejected(self, kit):
        federation, query, __ = kit
        plan = build_filter_plan(query, federation.source_names)
        execution = Executor(federation).execute(plan)
        execution.steps.pop()
        with pytest.raises(ValueError, match="does not match"):
            response_time(plan, execution)


class TestEstimatedScheduling:
    def test_estimate_matches_actual_with_oracle_stats(self, kit):
        """The filter plan's traffic is exactly predictable, so the
        estimated makespan must equal the measured one."""
        federation, query, estimator = kit
        plan = build_filter_plan(query, federation.source_names)
        execution = Executor(federation).execute(plan)
        actual = response_time(plan, execution)
        estimated = estimated_response_time(plan, federation, estimator)
        assert estimated.makespan_s == pytest.approx(
            actual.makespan_s, rel=0.01
        )

    def test_emulated_semijoins_serialize_in_estimate(self, kit):
        from repro.sources.capabilities import SourceCapabilities

        federation, query, estimator = kit
        for source in federation:
            source.capabilities = SourceCapabilities.selection_only()
        plan = build_staged_plan(
            query,
            [0, 1],
            uniform_choices(2, 3, [False, True]),
            federation.source_names,
        )
        schedule = estimated_response_time(plan, federation, estimator)
        native_federation, __ = dmv_fig1()
        native = estimated_response_time(
            plan, native_federation, estimator
        )
        # Per-binding round trips dominate: emulation is much slower.
        assert schedule.makespan_s > native.makespan_s


class TestEdgeCases:
    def test_empty_plan_is_unconstructible(self):
        with pytest.raises(PlanValidationError, match="at least one"):
            Plan([], result="X")

    def test_single_op_plan_makespan_is_its_duration(self, kit):
        federation, __, ___ = kit
        condition = parse_condition("V = 'dui'")
        plan = Plan([SelectionOp("X", condition, "R1")], result="X")
        execution = Executor(federation).execute(plan)
        schedule = response_time(plan, execution)
        assert len(schedule.ops) == 1
        assert schedule.makespan_s == pytest.approx(
            execution.steps[0].elapsed_s
        )
        assert schedule.makespan_s == pytest.approx(schedule.total_time_s)
        assert schedule.parallel_speedup == pytest.approx(1.0)

    def test_all_ops_on_one_source_fully_serialize(self, kit):
        federation, __, ___ = kit
        conditions = [
            parse_condition("V = 'dui'"),
            parse_condition("V = 'sp'"),
            parse_condition("D > 1990"),
        ]
        ops = [
            SelectionOp(f"X{i}", condition, "R1")
            for i, condition in enumerate(conditions, start=1)
        ]
        plan = Plan(
            [*ops, UnionOp("X", ("X1", "X2", "X3"))], result="X"
        )
        execution = Executor(federation).execute(plan)
        schedule = response_time(plan, execution)
        # One connection, no overlap: makespan is the sum of durations.
        assert schedule.makespan_s == pytest.approx(schedule.total_time_s)
        assert schedule.parallel_speedup == pytest.approx(1.0)
