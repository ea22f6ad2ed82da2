"""Unit tests for the SJ algorithm (Fig. 3)."""

from __future__ import annotations

import math


from repro.mediator.executor import Executor
from repro.mediator.reference import reference_answer
from repro.optimize.filter import FilterOptimizer
from repro.optimize.sj import SJOptimizer
from repro.plans.classify import PlanClass, classify
from tests.costs.table_model import TableCostModel


class TestSearch:
    def test_considers_all_orderings(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        result = SJOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert result.orderings_considered == math.factorial(query.arity)

    def test_never_worse_than_filter(self, synthetic_setup):
        """SJ can always fall back to all-selections, whose cost equals
        the filter plan's — so optimal SJ <= FILTER."""
        federation, query, model, estimator = synthetic_setup
        sj = SJOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        flt = FilterOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert sj.estimated_cost <= flt.estimated_cost + 1e-9

    def test_plan_is_semijoin_class(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        result = SJOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert classify(result.plan) in (PlanClass.SEMIJOIN, PlanClass.FILTER)

    def test_executed_answer_matches_reference(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        result = SJOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        execution = Executor(federation).execute(result.plan)
        assert execution.items == reference_answer(federation, query)


class TestDecisions:
    def test_prefers_semijoins_when_selections_are_expensive(
        self, dmv_query, dmv_estimator
    ):
        model = TableCostModel(default_sq=1000.0, default_sjq=(1.0, 0.1))
        result = SJOptimizer().optimize(
            dmv_query, ["R1", "R2", "R3"], model, dmv_estimator
        )
        # First stage must still be selections; the second should be
        # semijoins: 3 sq + 3 sjq.
        kinds = [op.kind.value for op in result.plan.remote_operations]
        assert kinds == ["sq", "sq", "sq", "sjq", "sjq", "sjq"]

    def test_prefers_selections_when_semijoins_are_expensive(
        self, dmv_query, dmv_estimator
    ):
        model = TableCostModel(default_sq=1.0, default_sjq=(1000.0, 10.0))
        result = SJOptimizer().optimize(
            dmv_query, ["R1", "R2", "R3"], model, dmv_estimator
        )
        kinds = {op.kind.value for op in result.plan.remote_operations}
        assert kinds == {"sq"}

    def test_uniform_choice_even_when_mixed_would_win(
        self, dmv_query, dmv_estimator
    ):
        """The defining SJ limitation (Sec. 2.5): per-stage uniformity.

        Make semijoins cheap at R1 but ruinous at R2/R3; SJ must pick one
        uniform option for the stage, so its plan contains either zero
        semijoins or semijoins at every source — never a mix.
        """
        c2 = dmv_query.conditions[1]
        model = TableCostModel(
            default_sq=100.0,
            sjq_table={
                (c2, "R1"): (1.0, 0.01),
                (c2, "R2"): (10_000.0, 10.0),
                (c2, "R3"): (10_000.0, 10.0),
            },
        )
        result = SJOptimizer().optimize(
            dmv_query, ["R1", "R2", "R3"], model, dmv_estimator
        )
        per_stage_kinds = {}
        for op in result.plan.remote_operations:
            per_stage_kinds.setdefault(op.condition, set()).add(op.kind.value)
        for kinds in per_stage_kinds.values():
            assert len(kinds) == 1  # uniform within every stage
