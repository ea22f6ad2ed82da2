"""The subset DP prices every later stage of a query in one pass.

``later_stage_rows`` asks the cost model for one conditions × sources ×
sizes price table per search and folds it with the stage rule's own
comparison and summation order, so a row holds the very floats
``later_stage`` would give, the payload at a column is the choice
``later_stage`` would make there, and the DP, the m! sweep and
branch-and-bound (which still price stage by stage) agree to the bit.
Checked on the property kits, on Fig. 1, on a federation shaped like the
``plan_fresh`` benchmark (m = 7, n = 16, a quarter of its sources
without semijoins), on a federation with no semijoin at all and under a
tie-heavy uniform model, with the numpy table and the list table alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.bench.harness import PlanningKit, kit_for_federation, make_kit
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.costs.model import UniformCostModel
from repro.optimize.search import (
    StagedCostFunction,
    _SubsetContext,
    search_ordering,
)
from repro.optimize.sj import SJStagedProblem
from repro.optimize.sja import SJAStagedProblem
from repro.relational.columnar import set_numpy_enabled
from repro.sources.capabilities import SemijoinSupport
from repro.sources.generators import SyntheticConfig, dmv_fig1, synthetic_query
from repro.sources.statistics import ExactStatistics
from tests.property.strategies import synthetic_kits

RULES = (SJStagedProblem, SJAStagedProblem)


class _ScalarSJ(SJStagedProblem):
    later_stage_rows = StagedCostFunction.later_stage_rows


class _ScalarSJA(SJAStagedProblem):
    later_stage_rows = StagedCostFunction.later_stage_rows


SCALAR = {SJStagedProblem: _ScalarSJ, SJAStagedProblem: _ScalarSJA}


def _problem(rule, kit: PlanningKit):
    return rule(
        kit.query.conditions, kit.source_names, kit.cost_model, kit.estimator
    )


def _outcomes(kit: PlanningKit, numpy_on: bool) -> dict:
    """Per rule: the row DP, the scalar DP, the sweep and B&B."""
    previous = set_numpy_enabled(numpy_on)
    try:
        m = kit.query.arity
        found = {}
        for rule in RULES:
            for label, problem, strategy in (
                ("dp", _problem(rule, kit), "dp"),
                ("scalar dp", _problem(SCALAR[rule], kit), "dp"),
                ("sweep", _problem(rule, kit), "exhaustive"),
                ("bnb", _problem(rule, kit), "bnb"),
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


def _assert_winner_is_its_stages(kit: PlanningKit) -> None:
    # The DP's payloads and cost come from the rows; priced again stage
    # by stage with ``later_stage`` (the prefixes the strategies share),
    # the winner must read the same, bit for bit.
    m = kit.query.arity
    for numpy_on in (True, False):
        previous = set_numpy_enabled(numpy_on)
        try:
            for rule in RULES:
                outcome = search_ordering(_problem(rule, kit), m, "dp")
                problem = _problem(rule, kit)
                prefixes = _SubsetContext(problem, m)
                first, *later = outcome.ordering
                stage = problem.first_stage(first)
                total, payloads = 0.0 + stage.cost, [stage.payload]
                premask = 1 << first
                for index in later:
                    stage = problem.later_stage(index, prefixes.prefix_of(premask))
                    total += stage.cost
                    payloads.append(stage.payload)
                    premask |= 1 << index
                assert (outcome.cost.hex(), outcome.payloads) == (
                    total.hex(),
                    tuple(payloads),
                ), (rule.__name__, numpy_on)
        finally:
            set_numpy_enabled(previous)


def _assert_rows_are_the_stage_rule(kit: PlanningKit) -> None:
    # Every cell of the row pass, cost and payload, against later_stage.
    m = kit.query.arity
    for numpy_on in (True, False):
        previous = set_numpy_enabled(numpy_on)
        try:
            for rule in RULES:
                problem = _problem(rule, kit)
                prefixes = _SubsetContext(problem, m)
                premasks = [
                    [p for p in range(1, 1 << m) if not p & (1 << index)]
                    for index in range(m)
                ]
                rows = problem.later_stage_rows(
                    [[prefixes.prefix_of(p) for p in row] for row in premasks]
                )
                for index, row in enumerate(premasks):
                    for column, premask in enumerate(row):
                        stage = problem.later_stage(index, prefixes.prefix_of(premask))
                        assert (
                            rows.costs[index][column].hex(),
                            rows.payload(index, column),
                        ) == (stage.cost.hex(), stage.payload), (
                            rule.__name__,
                            numpy_on,
                            index,
                            premask,
                        )
        finally:
            set_numpy_enabled(previous)


def _assert_all(kit: PlanningKit) -> None:
    _assert_rows_agree(kit)
    _assert_winner_is_its_stages(kit)
    _assert_rows_are_the_stage_rule(kit)


@given(synthetic_kits(max_sources=6, max_m=5))
@settings(max_examples=15, deadline=None)
def test_rows_agree_on_synthetic_kits(drawn):
    federation, config, m = drawn
    query = synthetic_query(config, m=m, seed=config.seed + 1)
    _assert_all(kit_for_federation(federation, query))


def test_rows_agree_on_fig1():
    _assert_all(kit_for_federation(*dmv_fig1()))


def test_rows_agree_on_a_plan_fresh_shaped_federation(plan_fresh_kit):
    assert any(
        declared.semijoin is SemijoinSupport.UNSUPPORTED
        for declared in plan_fresh_kit.cost_model.capabilities.values()
    )
    _assert_all(plan_fresh_kit)


def test_rows_agree_where_no_source_takes_a_semijoin():
    # Every semijoin cell is inf: each stage must fall back to selections.
    kit = make_kit(
        SyntheticConfig(
            n_sources=6,
            n_entities=120,
            native_fraction=0.0,
            emulated_fraction=0.0,
            seed=41,
        ),
        m=5,
    )
    assert {
        declared.semijoin for declared in kit.cost_model.capabilities.values()
    } == {SemijoinSupport.UNSUPPORTED}
    _assert_all(kit)


@pytest.mark.parametrize(
    "model",
    [
        UniformCostModel(),
        UniformCostModel(sq=10.0, sjq_fixed=10.0, sjq_per_item=0.0),
    ],
    ids=["uniform", "every-choice-tied"],
)
def test_rows_agree_under_a_tie_heavy_uniform_model(model, plan_fresh_kit):
    # Stage costs depend on the prefix size alone, so many orderings
    # tie; with a flat semijoin price equal to the selection price every
    # per-source comparison ties too (and must pick the semijoin).
    _assert_all(replace(plan_fresh_kit, cost_model=model))


class _CountingModel(ChargeCostModel):
    """The charge model, counting what a search asks of it."""

    def __init__(self, kit: PlanningKit):
        estimator = SizeEstimator(
            ExactStatistics(kit.federation), kit.federation.source_names
        )
        base = ChargeCostModel.for_federation(kit.federation, estimator)
        super().__init__(
            base.profiles, base.capabilities, estimator, base.cardinalities
        )
        self.pricers = []
        self.tables = []
        self.fractions = Counter()
        self.in_table = False
        fraction = estimator.match_fraction

        def counted(condition, source):
            if self.in_table:
                self.fractions[condition, source] += 1
            return fraction(condition, source)

        estimator.match_fraction = counted

    def sjq_pricer(self, condition, source_name):
        self.pricers.append((condition, source_name))
        return super().sjq_pricer(condition, source_name)

    def sjq_price_table(self, conditions, source_names, sizes):
        self.tables.append(tuple(conditions))
        self.in_table = True
        try:
            return super().sjq_price_table(conditions, source_names, sizes)
        finally:
            self.in_table = False


@pytest.mark.parametrize("numpy_on", [True, False], ids=["numpy", "lists"])
@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_dp_prices_only_the_winner_stage_by_stage(rule, numpy_on, plan_fresh_kit):
    # 7 conditions have 7 · 63 later stages; the DP reads them all, and
    # the winner's choices too, from one price table: not one stage,
    # the winner's included, is priced by ``later_stage``.
    kit = plan_fresh_kit
    model = _CountingModel(kit)
    calls = []

    class Counting(rule):
        def later_stage(self, index, prefix_size):
            calls.append(index)
            return super().later_stage(index, prefix_size)

    previous = set_numpy_enabled(numpy_on)
    try:
        outcome = search_ordering(
            Counting(kit.query.conditions, kit.source_names, model, model.estimator),
            kit.query.arity,
            "dp",
        )
    finally:
        set_numpy_enabled(previous)
    assert outcome.subsets_considered == 2**7 - 1
    assert calls == []
    assert model.pricers == []
    assert model.tables == [kit.query.conditions]


def test_rows_resolve_no_semijoin_pricer_they_do_not_read(plan_fresh_kit):
    # The rows read one table: no pricer is resolved, and the table asks
    # for each (condition, source that takes a semijoin) match fraction
    # exactly once, with the numpy table and the list table alike.
    kit = plan_fresh_kit
    for numpy_on in (True, False):
        model = _CountingModel(kit)
        previous = set_numpy_enabled(numpy_on)
        try:
            search_ordering(
                SJAStagedProblem(
                    kit.query.conditions, kit.source_names, model, model.estimator
                ),
                kit.query.arity,
                "dp",
            )
        finally:
            set_numpy_enabled(previous)
        supported = [
            source
            for source in kit.source_names
            if model.capabilities[source].semijoin
            is not SemijoinSupport.UNSUPPORTED
        ]
        assert model.pricers == [], numpy_on
        assert len(model.tables) == 1, numpy_on
        assert model.fractions == Counter(
            (condition, source)
            for condition in kit.query.conditions
            for source in supported
        ), numpy_on
