"""An engine run's fixed cost, written in one place each.

What the plan alone fixes — its dataflow and how records name each
operation — is derived once per :class:`~repro.plans.plan.Plan` object
(``Plan.steps``) and shared by every run of it; a run keeps only mutable
state.  ``RuntimeTrace.from_events`` is the one builder of the trace's
spans, and builds them as tuples.  The serving tier reads a run's answer,
completeness and incomplete-condition marks off the engine's
``ExecutionResult`` without ever projecting its op spans into steps.
"""

from __future__ import annotations

import ast
import pathlib

import repro
from repro.mediator.session import Mediator
from repro.obs.recorder import Recorder
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.trace import AttemptSpan, OpSpan
from repro.serve.service import MediatorService
from repro.sources.generators import dmv_fig1

ROOT = pathlib.Path(repro.__file__).parent


def _sources():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())


class TestPlanDerivedOncePerPlan:
    def test_two_runs_of_one_plan_derive_its_dataflow_once(self, monkeypatch):
        federation, query = dmv_fig1()
        plan = Mediator(federation).plan(query).plan
        engine = RuntimeEngine(federation)
        reads = []
        for cls in {type(op) for op in plan.operations}:
            original = cls.reads

            def counting(op, original=original):
                reads.append(op)
                return original(op)

            monkeypatch.setattr(cls, "reads", counting)
        first = engine.run(plan)
        assert len(reads) == len(plan.operations)  # the one derivation
        second = engine.run(plan)
        assert len(reads) == len(plan.operations)  # nothing re-derived
        assert first.items == second.items
        assert repr(first.trace) == repr(second.trace)

    def test_a_renamed_copy_shares_the_derivation(self):
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        steps = plan.steps
        assert plan.with_description("renamed").steps is steps

    def test_steps_name_each_operation_as_its_records_do(self):
        federation, query = dmv_fig1()
        plan = Mediator(federation).plan(query).plan
        recorder = Recorder()
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.5), seed=3),
            recorder=recorder,
        )
        engine.run(plan)
        ops = recorder.events.of_type("op")
        assert len(ops) == len(plan.operations)
        for event in ops:
            step = plan.steps[event.step - 1]
            assert (step.kind, step.target, step.source, step.remote, step.condition) == (
                event.op,
                event.target,
                event.source,
                event.remote,
                event.condition,
            )


class TestSpansBuiltInOnePlace:
    def test_no_module_but_the_trace_fold_constructs_spans(self):
        builders = []
        for name, tree in _sources():
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.Lambda)):
                    continue
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and any(
                        isinstance(part, ast.Name) and part.id in ("OpSpan", "AttemptSpan")
                        for part in [node.func, *node.args]
                    ):
                        builders.append((name, getattr(function, "name", "<lambda>")))
        assert sorted(set(builders)) == [("runtime/trace.py", "from_events")]

    def test_spans_are_tuples_not_per_field_setattr(self):
        # A frozen dataclass pays one ``object.__setattr__`` per field;
        # the fold builds each span as one tuple.
        assert issubclass(OpSpan, tuple) and issubclass(AttemptSpan, tuple)


class TestServiceReadsTheRunResult:
    def test_service_never_projects_the_steps(self, monkeypatch):
        results = []
        run = RuntimeEngine.run

        def recording(engine, *args, **kwargs):
            results.append(run(engine, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(RuntimeEngine, "run", recording)
        federation, query = dmv_fig1()
        service = MediatorService(federation)
        for at_s in (0.0, 0.5):
            service.submit(query.to_sql(), at_s=at_s)
        service.run_until_idle()
        assert len(results) == 2
        assert all("steps" not in vars(result) for result in results)

    def test_marks_live_on_the_run_result(self):
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(federation)
        result = engine.run(plan, budget_s=0.0)  # every remote op cut
        assert not result.complete
        assert result.incomplete_conditions
        assert result.partial is (not result.complete)
        assert "steps" not in vars(result)
        assert engine.run(plan).incomplete_conditions == ()
