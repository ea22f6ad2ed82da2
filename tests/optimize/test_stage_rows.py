"""The subset DP prices each condition's later stages as one row.

``later_stage_costs`` asks the cost model for one sources × sizes price
table per condition and folds it with the stage rule's own comparison
and summation order, so a row holds the very floats ``later_stage``
would give, and the DP, the m! sweep and branch-and-bound (which still
price stage by stage) agree to the bit.  Checked on the property kits,
on Fig. 1 and on a federation shaped like the ``plan_fresh`` benchmark
(m = 7, n = 16), with the numpy table and the list table alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.bench.harness import PlanningKit, kit_for_federation
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.optimize.search import StagedCostFunction, search_ordering
from repro.optimize.sj import SJStagedProblem
from repro.optimize.sja import SJAStagedProblem
from repro.relational.columnar import set_numpy_enabled
from repro.sources.generators import dmv_fig1, synthetic_query
from repro.sources.statistics import ExactStatistics
from tests.property.strategies import synthetic_kits

RULES = (SJStagedProblem, SJAStagedProblem)


class _ScalarSJ(SJStagedProblem):
    later_stage_costs = StagedCostFunction.later_stage_costs


class _ScalarSJA(SJAStagedProblem):
    later_stage_costs = StagedCostFunction.later_stage_costs


SCALAR = {SJStagedProblem: _ScalarSJ, SJAStagedProblem: _ScalarSJA}


def _outcomes(kit: PlanningKit, numpy_on: bool) -> dict:
    """Per rule: the row DP, the scalar DP, the sweep and B&B."""
    previous = set_numpy_enabled(numpy_on)
    try:
        arguments = (
            kit.query.conditions,
            kit.source_names,
            kit.cost_model,
            kit.estimator,
        )
        m = kit.query.arity
        found = {}
        for rule in RULES:
            for label, problem, strategy in (
                ("dp", rule(*arguments), "dp"),
                ("scalar dp", SCALAR[rule](*arguments), "dp"),
                ("sweep", rule(*arguments), "exhaustive"),
                ("bnb", rule(*arguments), "bnb"),
            ):
                outcome = search_ordering(problem, m, strategy)
                found[rule.__name__, label] = (
                    outcome.ordering,
                    outcome.payloads,
                    outcome.cost.hex(),
                )
        return found
    finally:
        set_numpy_enabled(previous)


def _assert_rows_agree(kit: PlanningKit) -> None:
    with_numpy = _outcomes(kit, True)
    assert _outcomes(kit, False) == with_numpy
    for rule in RULES:
        name = rule.__name__
        assert with_numpy[name, "dp"] == with_numpy[name, "scalar dp"], name
        costs = {with_numpy[name, label][2] for label in ("dp", "sweep", "bnb")}
        assert len(costs) == 1, (name, costs)


@given(synthetic_kits(max_sources=6, max_m=5))
@settings(max_examples=15, deadline=None)
def test_rows_agree_on_synthetic_kits(drawn):
    federation, config, m = drawn
    query = synthetic_query(config, m=m, seed=config.seed + 1)
    _assert_rows_agree(kit_for_federation(federation, query))


def test_rows_agree_on_fig1():
    _assert_rows_agree(kit_for_federation(*dmv_fig1()))


def test_rows_agree_on_a_plan_fresh_shaped_federation(plan_fresh_kit):
    _assert_rows_agree(plan_fresh_kit)


@pytest.mark.parametrize("numpy_on", [True, False], ids=["numpy", "lists"])
@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_dp_prices_only_the_winner_stage_by_stage(rule, numpy_on, plan_fresh_kit):
    # 7 conditions have 7 · 63 later stages; the DP reads them all from
    # rows and asks ``later_stage`` only for the m - 1 it returns.
    kit = plan_fresh_kit
    calls = []

    class Counting(rule):
        def later_stage(self, index, prefix_size):
            calls.append(index)
            return super().later_stage(index, prefix_size)

    previous = set_numpy_enabled(numpy_on)
    try:
        outcome = search_ordering(
            Counting(
                kit.query.conditions,
                kit.source_names,
                kit.cost_model,
                kit.estimator,
            ),
            kit.query.arity,
            "dp",
        )
    finally:
        set_numpy_enabled(previous)
    assert outcome.subsets_considered == 2**7 - 1
    assert sorted(calls) == sorted(outcome.ordering[1:])


def test_rows_resolve_no_semijoin_pricer_they_do_not_read(plan_fresh_kit):
    # The rows read the model's table; only the winner's later stages
    # resolve pricers, one per source each.
    kit = plan_fresh_kit
    estimator = SizeEstimator(
        ExactStatistics(kit.federation), kit.federation.source_names
    )
    model = ChargeCostModel.for_federation(kit.federation, estimator)
    resolved = []
    pricer = model.sjq_pricer
    model.sjq_pricer = lambda *args: resolved.append(args) or pricer(*args)
    problem = SJAStagedProblem(
        kit.query.conditions, kit.source_names, model, estimator
    )
    outcome = search_ordering(problem, kit.query.arity, "dp")
    assert len(resolved) == len(kit.source_names) * (kit.query.arity - 1)
    assert {condition for condition, __ in resolved} == {
        kit.query.conditions[index] for index in outcome.ordering[1:]
    }
