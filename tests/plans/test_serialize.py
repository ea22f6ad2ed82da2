"""Unit tests for plan serialization."""

from __future__ import annotations

import pytest

from repro.errors import PlanValidationError
from repro.mediator.executor import Executor
from repro.optimize.postopt import (
    apply_difference_pruning,
    apply_source_loading,
)
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import build_filter_plan
from repro.plans.serialize import (
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)
from repro.sources.generators import DMV_FIG1_ANSWER


@pytest.fixture
def dmv_plans(dmv_federation, dmv_query, dmv_cost_model, dmv_estimator):
    """A representative set: filter, SJA, pruned, loaded."""
    filter_plan = build_filter_plan(dmv_query, dmv_federation.source_names)
    sja_plan = SJAOptimizer().optimize(
        dmv_query, dmv_federation.source_names, dmv_cost_model, dmv_estimator
    ).plan
    sja_plus_plan = SJAPlusOptimizer().optimize(
        dmv_query, dmv_federation.source_names, dmv_cost_model, dmv_estimator
    ).plan
    return [filter_plan, sja_plan, sja_plus_plan]


class TestRoundTrip:
    def test_dict_roundtrip_exact(self, dmv_plans):
        for plan in dmv_plans:
            rebuilt = plan_from_dict(plan_to_dict(plan))
            assert rebuilt == plan
            assert rebuilt.description == plan.description
            assert rebuilt.stages == plan.stages
            if plan.query is not None:
                assert rebuilt.query == plan.query

    def test_json_roundtrip(self, dmv_plans):
        for plan in dmv_plans:
            assert plan_from_json(plan_to_json(plan)) == plan

    def test_extended_ops_roundtrip(
        self, dmv_query, dmv_cost_model, dmv_estimator, dmv_federation
    ):
        from tests.costs.table_model import TableCostModel
        from repro.plans.builder import StagedChoice, build_staged_plan

        base = build_staged_plan(
            dmv_query,
            [0, 1],
            [
                [StagedChoice.SELECTION] * 3,
                [
                    StagedChoice.SELECTION,
                    StagedChoice.SEMIJOIN,
                    StagedChoice.SEMIJOIN,
                ],
            ],
            dmv_federation.source_names,
        )
        pruned = apply_difference_pruning(base)
        loaded = apply_source_loading(
            pruned,
            TableCostModel(default_sq=100.0, lq_table={"R3": 1.0}),
            dmv_estimator,
        )
        assert plan_from_dict(plan_to_dict(loaded)) == loaded

    def test_deserialized_plan_executes(self, dmv_plans, dmv_federation):
        executor = Executor(dmv_federation)
        for plan in dmv_plans:
            rebuilt = plan_from_json(plan_to_json(plan))
            assert executor.execute(rebuilt).items == DMV_FIG1_ANSWER


class TestErrors:
    def test_unknown_op_kind(self):
        with pytest.raises(PlanValidationError, match="unknown operation"):
            plan_from_dict(
                {"operations": [{"op": "teleport", "target": "X"}], "result": "X"}
            )

    def test_missing_key(self):
        with pytest.raises(PlanValidationError, match="missing key"):
            plan_from_dict(
                {"operations": [{"op": "sq", "target": "X"}], "result": "X"}
            )

    def test_invalid_plan_rejected_on_rebuild(self):
        # structurally broken: result register never defined
        with pytest.raises(PlanValidationError):
            plan_from_dict(
                {
                    "operations": [
                        {"op": "sq", "target": "X", "condition": "V = 'a'",
                         "source": "R1"}
                    ],
                    "result": "Y",
                }
            )
