"""Adaptive execution is rounds of one-stage plans on the mediator's engine.

Each round is a :func:`~repro.plans.builder.build_stage_plan` plan run
by ``Mediator.runtime``; the observed ``X_{i-1}`` enters it through an
:class:`~repro.plans.operations.ObservedOp`.  So only the plan
operations ask a source for a selection or a semijoin, and an adaptive
answer gets the engine's retries, trace and events.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import repro
import repro.mediator.session as session
from repro.errors import CostModelError, ExecutionError, PlanValidationError
from repro.mediator.adaptive import AdaptiveResult, AdaptiveStage
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator
from repro.obs.recorder import Recorder
from repro.plans.builder import StagedChoice, build_stage_plan
from repro.plans.cost import estimate_plan_cost
from repro.plans.operations import ObservedOp, OpKind
from repro.plans.serialize import plan_to_dict
from repro.relational.parser import parse_condition
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultProfile, Faults
from repro.runtime.policy import RetryPolicy
from repro.runtime.trace import RuntimeTrace
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)

ROOT = pathlib.Path(repro.__file__).parent
SQ, SJQ = StagedChoice.SELECTION, StagedChoice.SEMIJOIN


def source_calls(tree: ast.AST) -> list[int]:
    """Lines calling a ``selection`` or ``semijoin`` method."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("selection", "semijoin")
    ]


class TestWrittenInOnePlace:
    def test_only_the_plan_operations_ask_a_source(self):
        offenders = {}
        for path in sorted(ROOT.rglob("*.py")):
            name = path.relative_to(ROOT).as_posix()
            if name.startswith("sources/") or name == "plans/operations.py":
                continue
            lines = source_calls(ast.parse(path.read_text()))
            if lines:
                offenders[name] = lines
        assert offenders == {}

    def test_the_scanner_sees_a_call(self):
        assert source_calls(ast.parse("source.selection(c)"))
        assert source_calls(ast.parse("self.federation.source(n).semijoin(c, x)"))
        assert not source_calls(ast.parse("selection(c)"))

    def test_no_adaptive_executor_is_left(self):
        # mediator/adaptive.py keeps only the stage-log records.
        adaptive = importlib.import_module("repro.mediator.adaptive")
        assert not hasattr(repro, "AdaptiveExecutor")
        assert not hasattr(adaptive, "AdaptiveExecutor")
        assert not hasattr(adaptive, "_run_stage")
        assert AdaptiveResult.__module__ == AdaptiveStage.__module__ == adaptive.__name__


class TestStagePlan:
    condition = parse_condition("V = 'sp'")

    def test_a_later_stage_prunes_by_dataflow(self):
        plan = build_stage_plan(
            self.condition, (SQ, SJQ, SJQ), ("R1", "R2", "R3"), frozenset({"a"})
        )
        assert [op.render() for op in plan] == [
            "X := observed(1 items)",
            "Y1 := sq(V = 'sp', R1)",
            "Y1 := Y1 ∩ X",
            "D2 := X − Y1",
            "Y2 := sjq(V = 'sp', R2, D2)",
            "C2 := Y1 ∪ Y2",
            "D3 := X − C2",
            "Y3 := sjq(V = 'sp', R3, D3)",
            "C3 := C2 ∪ Y3",
        ]
        assert plan.result == "C3"

    def test_the_opening_stage_is_selections_only(self):
        plan = build_stage_plan(self.condition, (SQ, SQ), ("R1", "R2"))
        assert [op.render() for op in plan] == [
            "Y1 := sq(V = 'sp', R1)",
            "Y2 := sq(V = 'sp', R2)",
            "C2 := Y1 ∪ Y2",
        ]
        with pytest.raises(PlanValidationError):
            build_stage_plan(self.condition, (SQ, SJQ), ("R1", "R2"))

    def test_an_observed_set_is_neither_serialized_nor_costed(self):
        federation, __ = dmv_fig1()
        plan = build_stage_plan(
            self.condition, (SQ, SQ, SQ), federation.source_names, frozenset({"J55"})
        )
        with pytest.raises(PlanValidationError):
            plan_to_dict(plan)
        mediator = Mediator(federation)
        with pytest.raises(PlanValidationError):
            estimate_plan_cost(plan, mediator.cost_model, mediator.estimator)

    def test_the_engine_reads_an_observed_set_at_time_zero(self):
        federation, __ = dmv_fig1()
        held = frozenset({"J55", "T21", "T80"})
        plan = build_stage_plan(self.condition, (SQ, SQ, SQ), federation.source_names, held)
        result = RuntimeEngine(federation).run(plan)
        observed = result.trace.spans[0]
        assert observed.operation == ObservedOp("X", held)
        assert observed.operation.kind is OpKind.OBSERVED
        assert (observed.started_s, observed.finished_s, observed.output_size) == (0.0, 0.0, 3)
        assert result.items == {"J55", "T21"}


def faulty(federation, seed, retries, **options):
    return Mediator(
        federation,
        backend="runtime",
        faults=Faults(wire=FaultProfile.flaky(0.4)).injector(seed),
        resilience=Resilience(policy=RetryPolicy(max_retries=retries)),
        **options,
    )


def kits():
    federation, query = dmv_fig1()
    yield replicate_federation(federation, 2), query
    config = SyntheticConfig(n_sources=4, n_entities=200, seed=3)
    yield build_synthetic(config), synthetic_query(config, m=3, seed=5)


class TestOnTheEngine:
    @pytest.mark.parametrize("retries", [0, 2])
    def test_a_wire_faulty_answer_never_gains_an_item(self, retries):
        lost = 0
        for federation, query in kits():
            truth = reference_answer(federation, query)
            for seed in range(8):
                result = faulty(federation, seed, retries).answer_adaptive(query)
                assert result.items <= truth, seed
                assert len(result.execution.traces) == len(result.stages) >= 1
                if result.items != truth:
                    # Stages are chained: a loss in any stage is reported.
                    assert not result.execution.complete, seed
                    assert result.execution.partial, seed
                    assert "PARTIAL" in result.summary(), seed
                    assert not result.terminated_early, seed
                lost += result.items != truth
        if retries == 0:
            assert lost  # the faults did bite

    def test_every_stage_run_is_traced_and_recorded(self):
        federation, query = dmv_fig1()
        recorder = Recorder()
        result = Mediator(federation, recorder=recorder).answer_adaptive(query)
        runs = RuntimeTrace.runs(recorder.events)
        assert len(runs) == len(result.stages) == len(result.execution.traces) == 2
        assert [trace.total_cost for trace in runs] == [
            stage.actual_cost for stage in result.stages
        ]
        assert [event.round for event in recorder.events.of_type("run_start")] == [0, 1]
        # A stage is not a re-plan: no replan record, no re-plan round.
        assert recorder.events.of_type("replan") == []
        assert "repro_replan_rounds_total" not in recorder.metrics.to_prometheus()
        assert result.execution.replans == 0


class TestTheMediatorsSettings:
    """``verify=True`` checks an adaptive answer; ``replan > 0`` is refused."""

    @pytest.mark.parametrize("seed, answer", [(1, ["T21"]), (3, ["T21"]), (7, [])])
    def test_a_short_answer_after_a_loss_is_checked_and_marked(self, seed, answer):
        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 2)
        result = faulty(federation, seed, 0, verify=True).answer_adaptive(query)
        assert sorted(reference_answer(federation, query)) == ["J55", "T21"]
        assert sorted(result.items) == answer
        assert result.verified is False
        assert not result.execution.complete
        assert "(MISMATCH!)" in result.summary() and "PARTIAL" in result.summary()

    def test_a_right_answer_is_verified(self):
        federation, query = dmv_fig1()
        assert Mediator(federation).answer_adaptive(query).verified is None
        result = Mediator(federation, verify=True).answer_adaptive(query)
        assert result.verified is True
        assert result.summary().startswith("2 items (verified), ")

    def test_a_wrong_answer_with_no_loss_raises(self, monkeypatch):
        federation, query = dmv_fig1()
        monkeypatch.setattr(session, "reference_answer", lambda *_: frozenset({"X99"}))
        with pytest.raises(ExecutionError, match="differs from reference"):
            Mediator(federation, verify=True).answer_adaptive(query)

    def test_replanning_rounds_are_refused(self):
        federation, query = dmv_fig1()
        mediator = Mediator(federation, backend="runtime", verify=True, replan=2)
        with pytest.raises(CostModelError, match="replan=2"):
            mediator.answer_adaptive(query)
