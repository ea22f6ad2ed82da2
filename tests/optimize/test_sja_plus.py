"""Unit tests for the SJA+ algorithm (Sec. 4.1)."""

from __future__ import annotations

import pytest

from repro.mediator.executor import Executor
from repro.mediator.reference import reference_answer
from repro.optimize.postopt import apply_difference_pruning, apply_source_loading
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.classify import PlanClass, classify
from repro.plans.cost import estimate_plan_cost
from repro.plans.operations import OpKind
from repro.plans.plan import Plan
from repro.sources.generators import dmv_fig1
from repro.sources.network import LinkProfile
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.sources.statistics import ExactStatistics


def semijoin_heavy_kit():
    """A DMV variant where answers are expensive, making semijoins (and
    hence difference pruning) attractive, while loads stay expensive."""
    federation, query = dmv_fig1(
        link=LinkProfile(
            request_overhead=1.0,
            per_item_send=5.0,
            per_item_receive=50.0,
            per_row_load=10_000.0,
        )
    )
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    model = ChargeCostModel.for_federation(federation, estimator)
    return federation, query, model, estimator


class TestSJAPlus:
    def test_never_worse_than_sja_under_generic_coster(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        sja = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        sja_plus = SJAPlusOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        sja_generic = estimate_plan_cost(sja.plan, model, estimator).total
        assert sja_plus.estimated_cost <= sja_generic + 1e-9

    def test_answer_preserved(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        result = SJAPlusOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        execution = Executor(federation).execute(result.plan)
        assert execution.items == reference_answer(federation, query)

    def test_difference_pruning_applied_when_semijoins_present(self):
        federation, query, model, estimator = semijoin_heavy_kit()
        sja = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        pruned = apply_difference_pruning(sja.plan)
        counts = pruned.count_by_kind()
        assert counts.get(OpKind.SEMIJOIN, 0) > 0
        assert counts.get(OpKind.DIFFERENCE, 0) > 0
        assert classify(pruned) is PlanClass.EXTENDED

    def test_source_loading_applied_on_tiny_sources(self, dmv):
        federation, query = dmv  # default link: loads are cheap vs queries
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        result = SJAPlusOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert result.plan.count_by_kind().get(OpKind.LOAD, 0) == 3

    def test_sja_plus_is_both_passes_over_sja(self, synthetic_setup):
        # SJA+ always runs both passes; the C6 ablation applies them one
        # at a time through the same two functions.
        federation, query, model, estimator = synthetic_setup
        sja = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        both = apply_source_loading(
            apply_difference_pruning(sja.plan), model, estimator
        )
        plus = SJAPlusOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert plus.plan.operations == both.operations

    def test_search_statistics_propagated(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        sja = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        plus = SJAPlusOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert plus.orderings_considered == sja.orderings_considered
        assert plus.plans_considered == sja.plans_considered + 1
        assert plus.optimizer == "SJA+"

    @pytest.mark.parametrize("loading_rewrites", [False, True])
    def test_finished_plan_is_priced_once(self, monkeypatch, loading_rewrites):
        # The loading pass needs the candidate's breakdown and the
        # result needs its total: one pricing serves both unless loading
        # built a different plan, which is then priced afresh.
        if loading_rewrites:
            federation, query = dmv_fig1()  # default link: loads are cheap
            estimator = SizeEstimator(
                ExactStatistics(federation), federation.source_names
            )
            model = ChargeCostModel.for_federation(federation, estimator)
        else:
            federation, query, model, estimator = semijoin_heavy_kit()
        priced = []

        def counting(plan, cost_model, size_estimator):
            priced.append(plan)
            return estimate_plan_cost(plan, cost_model, size_estimator)

        monkeypatch.setattr(
            "repro.optimize.sja_plus.estimate_plan_cost", counting
        )
        monkeypatch.setattr(
            "repro.optimize.postopt.estimate_plan_cost", counting
        )
        result = SJAPlusOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        loads = result.plan.count_by_kind().get(OpKind.LOAD, 0)
        assert (loads > 0) == loading_rewrites
        assert len(priced) == (2 if loading_rewrites else 1)
        assert priced[-1].operations == result.plan.operations
        assert (
            result.estimated_cost.hex()
            == estimate_plan_cost(result.plan, model, estimator).total.hex()
        )

    def test_actual_cost_improves_on_dmv(self, dmv):
        """End to end on Fig. 1: SJA+'s executed cost <= SJA's."""
        federation, query = dmv
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        executor = Executor(federation)
        sja_plan = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        ).plan
        plus_plan = SJAPlusOptimizer().optimize(
            query, federation.source_names, model, estimator
        ).plan
        sja_cost = executor.execute(sja_plan).total_cost
        plus_cost = executor.execute(plus_plan).total_cost
        assert plus_cost <= sja_cost + 1e-9


def test_a_fresh_query_validates_each_operation_list_once(monkeypatch, plan_fresh_kit):
    # The staged builder and each postoptimization pass that rewrites
    # the plan build one new operation list apiece, validated when it is
    # built; renaming the finished plan copies it unvalidated.
    kit = plan_fresh_kit
    names = kit.source_names
    base = SJAOptimizer().optimize(
        kit.query, names, kit.cost_model, kit.estimator
    ).plan
    pruned = apply_difference_pruning(base)
    loaded = apply_source_loading(pruned, kit.cost_model, kit.estimator)
    built = 1 + (pruned is not base) + (loaded is not pruned)
    validated = []
    check = Plan._validate
    monkeypatch.setattr(
        Plan, "_validate", lambda plan: validated.append(plan) or check(plan)
    )
    result = SJAPlusOptimizer().optimize(
        kit.query, names, kit.cost_model, kit.estimator
    )
    assert len(validated) == built >= 2
    assert result.plan.operations == loaded.operations
    assert result.plan.description != validated[-1].description
