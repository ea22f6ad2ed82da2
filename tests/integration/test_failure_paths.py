"""Negative-path integration tests: failures surface cleanly.

A production library is judged by its error behaviour as much as its
happy path; these tests pin the failure contracts down.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CapabilityError,
    ExecutionError,
    OptimizationError,
    PlanValidationError,
    UnknownSourceError,
)
from repro.mediator.executor import Executor
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator
from repro.optimize.sja import SJAOptimizer
from repro.plans.builder import (
    build_filter_plan,
    build_staged_plan,
    uniform_choices,
)
from repro.plans.operations import SelectionOp, UnionOp
from repro.plans.plan import Plan
from repro.query.fusion import FusionQuery
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultProfile, Faults
from repro.runtime.policy import RetryPolicy
from repro.sources.capabilities import SourceCapabilities
from repro.sources.generators import dmv_fig1
from repro.optimize.planning import Planning


class TestExecutorFailures:
    def test_unknown_source_in_plan(self, dmv_federation, dmv_query):
        plan = Plan(
            [
                SelectionOp("X", dmv_query.conditions[0], "R99"),
                UnionOp("Y", ("X",)),
            ],
            result="Y",
        )
        with pytest.raises(UnknownSourceError):
            Executor(dmv_federation).execute(plan)

    def test_semijoin_routed_to_incapable_source(self, dmv_query):
        """A hand-built plan that violates capabilities fails loudly."""
        federation, query = dmv_fig1(
            capabilities=SourceCapabilities.minimal()
        )
        plan = build_staged_plan(
            query,
            [0, 1],
            uniform_choices(2, 3, [False, True]),
            federation.source_names,
        )
        with pytest.raises(CapabilityError):
            Executor(federation).execute(plan)

    def test_permanently_down_source(self):
        """A source that never answers degrades its steps; the engine
        returns what the others confirmed and raises nothing."""
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        faults = Faults(wire={"R3": FaultProfile(transient_rate=1.0)})
        result = RuntimeEngine(
            federation,
            Resilience(policy=RetryPolicy(max_retries=1)),
            faults=faults.injector(0),
        ).run(plan)
        assert result.items <= reference_answer(federation, query)
        on_r3 = {
            index
            for index, op in enumerate(plan.operations, start=1)
            if op.remote and op.source == "R3"
        }
        assert on_r3 and set(result.degraded_steps) == on_r3


class TestOptimizerFailures:
    def test_no_feasible_plan_when_everything_is_infinite(
        self, dmv_query, dmv_estimator
    ):
        from repro.costs.model import INFINITE_COST, TableCostModel

        model = TableCostModel(
            default_sq=INFINITE_COST, default_sjq=(INFINITE_COST, 0.0)
        )
        with pytest.raises(OptimizationError, match="infinite"):
            SJAOptimizer().optimize(
                dmv_query, ["R1", "R2", "R3"], model, dmv_estimator
            )


class TestMediatorFailures:
    def test_verify_catches_wrong_answers(self, dmv_federation, dmv_query):
        """A broken optimizer is caught by the verification oracle."""
        from repro.optimize.base import OptimizationResult, Optimizer

        class BrokenOptimizer(Optimizer):
            name = "broken"

            def optimize(self, query, source_names, cost_model, estimator):
                # Evaluates only the first condition: answer too large.
                partial = FusionQuery(
                    query.merge_attribute, (query.conditions[0],)
                )
                plan = build_filter_plan(partial, source_names)
                return OptimizationResult(
                    plan=plan, estimated_cost=1.0, optimizer=self.name
                )

        mediator = Mediator(
            dmv_federation, planning=Planning(optimizer=BrokenOptimizer()), verify=True
        )
        with pytest.raises(ExecutionError, match="differs"):
            mediator.answer(dmv_query)

    def test_malformed_plan_never_constructs(self, dmv_query):
        with pytest.raises(PlanValidationError):
            Plan(
                [UnionOp("X", ("NOPE",))],
                result="X",
            )
