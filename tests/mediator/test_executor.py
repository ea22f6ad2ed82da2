"""Unit tests for the plan executor."""

from __future__ import annotations

import pytest

from repro.mediator.executor import ExecutionResult, Executor
from repro.plans.builder import build_filter_plan, build_staged_plan, uniform_choices
from repro.plans.operations import (
    DifferenceOp,
    IntersectOp,
    LoadOp,
    LocalSelectionOp,
    SelectionOp,
    SemijoinOp,
    UnionOp,
)
from repro.plans.plan import Plan
from repro.runtime.faults import AttemptFate
from repro.runtime.trace import AttemptSpan, OpSpan, OpStatus, RuntimeTrace
from repro.sources.generators import DMV_FIG1_ANSWER, dmv_fig1


class TestBasicExecution:
    def test_filter_plan_answer(self, dmv):
        federation, query = dmv
        plan = build_filter_plan(query, federation.source_names)
        result = Executor(federation).execute(plan)
        assert result.items == DMV_FIG1_ANSWER

    def test_semijoin_plan_answer(self, dmv):
        federation, query = dmv
        plan = build_staged_plan(
            query, [0, 1], uniform_choices(2, 3, [False, True]),
            federation.source_names,
        )
        result = Executor(federation).execute(plan)
        assert result.items == DMV_FIG1_ANSWER

    def test_all_plan_steps_traced(self, dmv):
        federation, query = dmv
        plan = build_filter_plan(query, federation.source_names)
        result = Executor(federation).execute(plan)
        assert len(result.steps) == len(plan)
        assert [step.step for step in result.steps] == list(
            range(1, len(plan) + 1)
        )

    def test_actual_cost_matches_traffic_logs(self, dmv):
        federation, query = dmv
        federation.reset_traffic()
        plan = build_filter_plan(query, federation.source_names)
        result = Executor(federation).execute(plan)
        assert result.total_cost == pytest.approx(
            federation.total_traffic_cost()
        )
        assert result.total_messages == federation.total_messages()

    def test_local_steps_cost_nothing(self, dmv):
        federation, query = dmv
        plan = build_filter_plan(query, federation.source_names)
        result = Executor(federation).execute(plan)
        for step in result.steps:
            if not step.operation.remote:
                assert step.actual_cost == 0.0
                assert step.messages == 0

    def test_cost_by_source(self, dmv):
        federation, query = dmv
        plan = build_filter_plan(query, federation.source_names)
        result = Executor(federation).execute(plan)
        per_source = result.cost_by_source()
        assert set(per_source) == set(federation.source_names)
        assert sum(per_source.values()) == pytest.approx(result.total_cost)


class TestExtendedOps:
    def test_load_and_local_selection(self, dmv):
        federation, query = dmv
        c1, c2 = query.conditions
        plan = Plan(
            [
                LoadOp("T1", "R1"),
                LocalSelectionOp("A", c1, "T1"),
                LocalSelectionOp("B", c2, "T1"),
                IntersectOp("X", ("A", "B")),
            ],
            result="X",
        )
        result = Executor(federation).execute(plan)
        # Only R1 locally: nobody has both dui and sp in R1 alone.
        assert result.items == frozenset()
        assert result.total_messages == 1  # the single lq

    def test_difference_op(self, dmv):
        federation, query = dmv
        c1, c2 = query.conditions
        plan = Plan(
            [
                SelectionOp("A", c1, "R1"),
                SelectionOp("B", c2, "R1"),
                DifferenceOp("D", "A", "B"),
                UnionOp("X", ("D",)),
            ],
            result="X",
        )
        result = Executor(federation).execute(plan)
        assert result.items == frozenset({"J55", "T80"})  # dui-only at R1

    def test_semijoin_against_computed_register(self, dmv):
        federation, query = dmv
        c1, c2 = query.conditions
        plan = Plan(
            [
                SelectionOp("A", c1, "R1"),
                SemijoinOp("B", c2, "R2", "A"),
                UnionOp("X", ("B",)),
            ],
            result="X",
        )
        result = Executor(federation).execute(plan)
        assert result.items == frozenset({"J55"})


class TestTraceRendering:
    def test_trace_text(self, dmv):
        federation, query = dmv
        plan = build_filter_plan(query, federation.source_names)
        result = Executor(federation).execute(plan)
        text = result.render_steps(plan)
        assert "sq(c1, R1)" in text
        assert "answer: 2 items" in text


class TestResultSummary:
    def test_summary_and_repr(self):
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        result = Executor(federation).execute(plan)
        summary = result.summary()
        assert "2 items" in summary
        assert f"{len(result.steps)} steps" in summary
        assert "6 messages" in summary
        assert "0 retries" in summary
        assert repr(result) == f"ExecutionResult({summary})"


def _round(hedges: int = 0, recovered: int = 0, degraded: int = 0) -> RuntimeTrace:
    """A stand-in engine round: ``hedges`` hedge attempts on one
    operation, then ``recovered`` recovered and ``degraded`` degraded
    operations, all on the first operation of the Fig. 1 filter plan."""
    federation, query = dmv_fig1()
    op = build_filter_plan(query, federation.source_names).operations[0]
    hedge = AttemptSpan(1, 0.0, 0.1, AttemptFate.OK, 0.0, 0, 0, 0, 1, hedge=True)
    statuses = [OpStatus.OK] + [OpStatus.RECOVERED] * recovered + [OpStatus.DEGRADED] * degraded
    spans = [
        OpSpan(step, op, 0.0, 0.0, 0.1, (hedge,) * hedges if step == 1 else (), status, 0)
        for step, status in enumerate(statuses, start=1)
    ]
    return RuntimeTrace(spans=tuple(spans), makespan_s=0.1)


class TestResilienceCounters:
    """summary() regression: the resilience counters, read off the
    rounds' traces, show up when nonzero and stay silent when zero,
    leaving the base text untouched."""

    def test_zero_counters_keep_the_base_summary(self):
        result = ExecutionResult(item_set=frozenset())
        summary = result.summary()
        assert summary == (
            "0 items in 0 steps; cost 0.0, 0 messages, 0 retries, "
            "0.000s on the wire"
        )

    def test_nonzero_counters_are_appended_in_order(self):
        result = ExecutionResult(
            item_set=frozenset({"a"}),
            traces=(_round(hedges=2, degraded=1), _round(recovered=1), _round(degraded=3)),
            breaker_trips=1,
        )
        summary = result.summary()
        assert summary.endswith(
            "; 2 hedges, 1 recovered, 3 degraded, 1 breaker trips, "
            "2 replans"
        )

    def test_partial_counters_skip_zero_entries(self):
        result = ExecutionResult(
            item_set=frozenset(), traces=(_round(hedges=1, degraded=1), *[_round()] * 4)
        )
        summary = result.summary()
        assert summary.endswith("; 1 hedges, 4 replans")
        assert "degraded" not in summary
        assert "breaker" not in summary
