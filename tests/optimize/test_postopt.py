"""Unit tests for the Sec. 4 postoptimization transformations."""

from __future__ import annotations

import pytest

from repro.mediator.executor import Executor
from repro.mediator.reference import reference_answer
from repro.optimize.postopt import (
    apply_difference_pruning,
    apply_source_loading,
)
from repro.plans.builder import (
    StagedChoice,
    build_staged_plan,
    uniform_choices,
)
from repro.plans.classify import PlanClass, classify
from repro.plans.cost import estimate_plan_cost
from repro.plans.operations import (
    DifferenceOp,
    LoadOp,
    LocalSelectionOp,
    OpKind,
    SemijoinOp,
)
from tests.costs.table_model import TableCostModel


@pytest.fixture
def mixed_stage_plan(dmv_query):
    """A staged plan whose second stage mixes sq (R1) and sjq (R2, R3)."""
    choices = [
        [StagedChoice.SELECTION] * 3,
        [StagedChoice.SELECTION, StagedChoice.SEMIJOIN, StagedChoice.SEMIJOIN],
    ]
    return build_staged_plan(
        dmv_query, [0, 1], choices, ["R1", "R2", "R3"]
    )


class TestDifferencePruning:
    def test_introduces_difference_ops(self, mixed_stage_plan):
        pruned = apply_difference_pruning(mixed_stage_plan)
        counts = pruned.count_by_kind()
        # R2's semijoin pruned by X2_1; R3's by X2_1 ∪ X2_2.
        assert counts[OpKind.DIFFERENCE] == 2
        assert counts.get(OpKind.UNION, 0) >= 3
        assert classify(pruned) is PlanClass.EXTENDED

    def test_semijoins_rebound_to_difference_registers(self, mixed_stage_plan):
        pruned = apply_difference_pruning(mixed_stage_plan)
        semijoins = [
            op for op in pruned.operations if isinstance(op, SemijoinOp)
        ]
        inputs = {op.input_register for op in semijoins}
        assert all(register.startswith("D") for register in inputs)

    def test_preserves_answer(self, dmv_federation, mixed_stage_plan, dmv_query):
        pruned = apply_difference_pruning(mixed_stage_plan)
        expected = reference_answer(dmv_federation, dmv_query)
        executor = Executor(dmv_federation)
        assert executor.execute(pruned).items == expected
        assert executor.execute(mixed_stage_plan).items == expected

    def test_reduces_items_actually_sent(self, dmv_federation, mixed_stage_plan):
        executor = Executor(dmv_federation)
        dmv_federation.reset_traffic()
        executor.execute(mixed_stage_plan)
        sent_before = sum(
            source.traffic.items_sent for source in dmv_federation
        )
        dmv_federation.reset_traffic()
        executor.execute(apply_difference_pruning(mixed_stage_plan))
        sent_after = sum(
            source.traffic.items_sent for source in dmv_federation
        )
        assert sent_after <= sent_before

    def test_never_increases_estimated_cost(
        self, mixed_stage_plan, dmv_cost_model, dmv_estimator
    ):
        before = estimate_plan_cost(
            mixed_stage_plan, dmv_cost_model, dmv_estimator
        ).total
        after = estimate_plan_cost(
            apply_difference_pruning(mixed_stage_plan),
            dmv_cost_model,
            dmv_estimator,
        ).total
        assert after <= before + 1e-9

    def test_idempotent(self, mixed_stage_plan):
        once = apply_difference_pruning(mixed_stage_plan)
        twice = apply_difference_pruning(once)
        assert once.operations == twice.operations

    def test_noop_without_stages(self, dmv_query):
        from repro.plans.operations import SelectionOp, UnionOp
        from repro.plans.plan import Plan

        plan = Plan(
            [
                SelectionOp("X", dmv_query.conditions[0], "R1"),
                UnionOp("Y", ("X",)),
            ],
            result="Y",
        )
        assert apply_difference_pruning(plan) is plan

    def test_noop_on_pure_selection_plan(self, dmv_query):
        plan = build_staged_plan(
            dmv_query,
            [0, 1],
            uniform_choices(2, 3, [False, False]),
            ["R1", "R2", "R3"],
        )
        assert apply_difference_pruning(plan) is plan

    def test_first_semijoin_in_stage_not_pruned_when_nothing_prior(
        self, dmv_query
    ):
        plan = build_staged_plan(
            dmv_query,
            [0, 1],
            uniform_choices(2, 3, [False, True]),
            ["R1", "R2", "R3"],
        )
        pruned = apply_difference_pruning(plan)
        semijoins = [
            op for op in pruned.operations if isinstance(op, SemijoinOp)
        ]
        # R1's semijoin keeps X1; R2 and R3 get pruned inputs.
        assert semijoins[0].input_register == "X1"
        assert semijoins[1].input_register.startswith("D")


class TestSourceLoading:
    def test_loads_when_lq_is_cheap(
        self, dmv_query, dmv_estimator, mixed_stage_plan
    ):
        model = TableCostModel(
            default_sq=100.0,
            default_sjq=(50.0, 1.0),
            lq_table={"R1": 5.0, "R2": 5.0, "R3": 5.0},
        )
        loaded = apply_source_loading(mixed_stage_plan, model, dmv_estimator)
        counts = loaded.count_by_kind()
        assert counts[OpKind.LOAD] == 3
        assert counts[OpKind.LOCAL_SELECTION] == 6
        assert counts.get(OpKind.SELECTION, 0) == 0
        assert counts.get(OpKind.SEMIJOIN, 0) == 0

    def test_loads_only_beneficial_sources(
        self, dmv_query, dmv_estimator, mixed_stage_plan
    ):
        model = TableCostModel(
            default_sq=100.0,
            default_sjq=(50.0, 1.0),
            lq_table={"R1": 5.0},  # others default to infinite
        )
        loaded = apply_source_loading(mixed_stage_plan, model, dmv_estimator)
        load_targets = {
            op.source for op in loaded.operations if isinstance(op, LoadOp)
        }
        assert load_targets == {"R1"}

    def test_noop_when_loading_never_pays(
        self, dmv_query, dmv_estimator, mixed_stage_plan
    ):
        model = TableCostModel(
            default_sq=1.0, default_sjq=(1.0, 0.1), lq_table={}
        )
        assert (
            apply_source_loading(mixed_stage_plan, model, dmv_estimator)
            is mixed_stage_plan
        )

    def test_accepts_the_breakdown_the_caller_already_has(
        self, dmv_estimator, mixed_stage_plan
    ):
        for lq_table in ({"R1": 5.0, "R3": 5.0}, {}):
            model = TableCostModel(
                default_sq=100.0, default_sjq=(50.0, 1.0), lq_table=lq_table
            )
            breakdown = estimate_plan_cost(
                mixed_stage_plan, model, dmv_estimator
            )
            handed = apply_source_loading(
                mixed_stage_plan, model, dmv_estimator, breakdown=breakdown
            )
            computed = apply_source_loading(
                mixed_stage_plan, model, dmv_estimator
            )
            assert handed.operations == computed.operations
            assert (handed is mixed_stage_plan) == (not lq_table)

    def test_preserves_answer(self, dmv_federation, dmv_query, dmv_estimator):
        plan = build_staged_plan(
            dmv_query,
            [0, 1],
            uniform_choices(2, 3, [False, True]),
            ["R1", "R2", "R3"],
        )
        model = TableCostModel(
            default_sq=100.0,
            default_sjq=(50.0, 1.0),
            lq_table={"R1": 5.0, "R2": 5.0, "R3": 5.0},
        )
        loaded = apply_source_loading(plan, model, dmv_estimator)
        expected = reference_answer(dmv_federation, dmv_query)
        assert Executor(dmv_federation).execute(loaded).items == expected

    def test_semijoin_replacement_intersects_binding_register(
        self, dmv_query, dmv_estimator, mixed_stage_plan
    ):
        model = TableCostModel(
            default_sq=100.0,
            default_sjq=(50.0, 1.0),
            lq_table={"R2": 1.0},
        )
        loaded = apply_source_loading(mixed_stage_plan, model, dmv_estimator)
        locals_ = [
            op for op in loaded.operations if isinstance(op, LocalSelectionOp)
        ]
        assert len(locals_) == 2  # R2's two ops (c1 sq + c2 sjq)
        intersects = [
            op
            for op in loaded.operations
            if op.kind is OpKind.INTERSECT and "X1" in op.reads()
        ]
        assert intersects  # the sjq replacement re-binds against X1

    def test_only_sources_filter(
        self, dmv_query, dmv_estimator, mixed_stage_plan
    ):
        model = TableCostModel(
            default_sq=100.0,
            default_sjq=(50.0, 1.0),
            lq_table={"R1": 1.0, "R2": 1.0, "R3": 1.0},
        )
        loaded = apply_source_loading(
            mixed_stage_plan, model, dmv_estimator, only_sources=["R2"]
        )
        load_targets = {
            op.source for op in loaded.operations if isinstance(op, LoadOp)
        }
        assert load_targets == {"R2"}


class TestCombined:
    def test_prune_then_load_preserves_answer(
        self, dmv_federation, dmv_query, dmv_estimator
    ):
        plan = build_staged_plan(
            dmv_query,
            [0, 1],
            uniform_choices(2, 3, [False, True]),
            ["R1", "R2", "R3"],
        )
        model = TableCostModel(
            default_sq=100.0,
            default_sjq=(50.0, 1.0),
            lq_table={"R3": 1.0},
        )
        combined = apply_source_loading(
            apply_difference_pruning(plan), model, dmv_estimator
        )
        expected = reference_answer(dmv_federation, dmv_query)
        assert Executor(dmv_federation).execute(combined).items == expected
        assert any(isinstance(op, DifferenceOp) for op in combined.operations)
        assert any(isinstance(op, LoadOp) for op in combined.operations)
