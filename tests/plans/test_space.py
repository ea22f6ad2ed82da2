"""Unit tests for plan-space sizes, enumeration, and sampling."""

from __future__ import annotations

import math
import random

import pytest

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.plans.builder import uniform_choices
from repro.plans.space import (
    canonical_semijoin_key,
    count_distinct_semijoin_plans,
    enumerate_adaptive_specs,
    enumerate_semijoin_specs,
    random_simple_plan,
    raw_adaptive_space_size,
    raw_semijoin_space_size,
    staged_plan_cost,
)
from repro.query.fusion import FusionQuery
from repro.sources.generators import dmv_fig1
from repro.sources.statistics import ExactStatistics


class TestSpaceSizes:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_raw_semijoin_size_formula(self, m):
        assert raw_semijoin_space_size(m) == math.factorial(m) * 2 ** (m - 1)
        assert (
            len(list(enumerate_semijoin_specs(m)))
            == raw_semijoin_space_size(m)
        )

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_raw_adaptive_size_formula(self, m, n):
        assert raw_adaptive_space_size(m, n) == math.factorial(m) * 2 ** (
            n * (m - 1)
        )
        assert (
            len(list(enumerate_adaptive_specs(m, n)))
            == raw_adaptive_space_size(m, n)
        )

    def test_adaptive_space_dwarfs_semijoin_space(self):
        """The Sec. 3 point: SJA searches a much larger space."""
        m, n = 3, 10
        assert raw_adaptive_space_size(m, n) > 1000 * raw_semijoin_space_size(m)

    def test_degenerate_sizes(self):
        assert raw_semijoin_space_size(0) == 0
        assert raw_adaptive_space_size(0, 5) == 0
        assert raw_adaptive_space_size(2, 0) == 0


class TestCanonicalDedup:
    def test_distinct_count_below_raw(self):
        # Equivalent specs exist from m = 2 onward (swapping two
        # selection-evaluated leading conditions).
        for m in (2, 3, 4):
            distinct = count_distinct_semijoin_plans(m)
            assert distinct < raw_semijoin_space_size(m)
            assert distinct >= math.factorial(m)  # all-selection per ordering collapse...

    def test_key_identifies_selection_commutation(self):
        # Orderings [0,1] and [1,0] with all-selection choices are
        # equivalent: same per-condition treatment, no semijoins.
        key_a = canonical_semijoin_key((0, 1), (False, False))
        key_b = canonical_semijoin_key((1, 0), (False, False))
        assert key_a == key_b

    def test_key_distinguishes_semijoin_predecessors(self):
        key_a = canonical_semijoin_key((0, 1), (False, True))
        key_b = canonical_semijoin_key((1, 0), (False, True))
        assert key_a != key_b


class TestStagedCost:
    @pytest.fixture
    def kit(self):
        federation, query = dmv_fig1()
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        return federation, query, model, estimator

    def test_all_selection_cost_is_filter_cost(self, kit):
        federation, query, model, estimator = kit
        cost = staged_plan_cost(
            query,
            (0, 1),
            uniform_choices(2, 3, (False, False)),
            federation.source_names,
            model,
            estimator,
        )
        filter_cost = sum(
            model.sq_cost(condition, source)
            for condition in query.conditions
            for source in federation.source_names
        )
        assert cost == pytest.approx(filter_cost)

    def test_ordering_invariance_of_all_selection_specs(self, kit):
        federation, query, model, estimator = kit
        choices = uniform_choices(2, 3, (False, False))
        a = staged_plan_cost(
            query, (0, 1), choices, federation.source_names, model, estimator
        )
        b = staged_plan_cost(
            query, (1, 0), choices, federation.source_names, model, estimator
        )
        assert a == pytest.approx(b)

    def test_semijoin_stage_costed_with_prefix(self, kit):
        federation, query, model, estimator = kit
        cost = staged_plan_cost(
            query,
            (0, 1),
            uniform_choices(2, 3, (False, True)),
            federation.source_names,
            model,
            estimator,
        )
        x1 = estimator.union_selection_size(query.conditions[0])
        expected = sum(
            model.sq_cost(query.conditions[0], source)
            for source in federation.source_names
        ) + sum(
            model.sjq_cost(query.conditions[1], source, x1)
            for source in federation.source_names
        )
        assert cost == pytest.approx(expected)


class TestRandomSimplePlans:
    def test_deterministic_given_seed(self):
        query = FusionQuery.from_strings("L", ["V = 'a'", "V = 'b'", "V = 'c'"])
        a = random_simple_plan(query, ["R1", "R2"], random.Random(5))
        b = random_simple_plan(query, ["R1", "R2"], random.Random(5))
        assert a == b

    def test_produces_valid_plans(self):
        query = FusionQuery.from_strings("L", ["V = 'a'", "V = 'b'", "V = 'c'"])
        rng = random.Random(1)
        for __ in range(30):
            plan = random_simple_plan(query, ["R1", "R2", "R3"], rng)
            assert plan.result == "X3"
            assert len(plan.stages) == 3
