"""Unit tests for the completeness-aware robust optimizer."""

from __future__ import annotations

import pytest

from repro.costs.estimates import SizeEstimator
from repro.costs.model import UniformCostModel
from repro.errors import CostModelError
from repro.optimize import RobustOptimizer, SJAPlusOptimizer
from repro.optimize.search import PlanningBudget
from repro.runtime.availability import AvailabilityModel, expected_completeness
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.sources.generators import dmv_fig1, replicate_federation
from repro.sources.statistics import ExactStatistics


@pytest.fixture
def setting():
    federation, query = dmv_fig1()
    federation = replicate_federation(federation, 2)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    return federation, query, UniformCostModel(), estimator


def flaky_model(federation, rate=0.3):
    faults = FaultInjector(FaultProfile.flaky(rate), seed=1)
    return AvailabilityModel.from_faults(
        faults, RetryPolicy.no_retry(), federation.source_names
    )


class TestLambdaZero:
    def test_reproduces_cost_only_plan_and_cost(self, setting):
        federation, query, cost_model, estimator = setting
        reps = federation.representative_names
        base = SJAPlusOptimizer().optimize(query, reps, cost_model, estimator)
        robust = RobustOptimizer(
            federation, flaky_model(federation), robustness=0.0
        ).optimize(query, reps, cost_model, estimator)
        assert robust.plan == base.plan
        assert robust.estimated_cost == pytest.approx(base.estimated_cost)
        assert robust.utility == pytest.approx(base.estimated_cost)

    def test_perfect_availability_reproduces_base_at_any_lambda(
        self, setting
    ):
        federation, query, cost_model, estimator = setting
        reps = federation.representative_names
        base = SJAPlusOptimizer().optimize(query, reps, cost_model, estimator)
        robust = RobustOptimizer(federation, robustness=25.0).optimize(
            query, reps, cost_model, estimator
        )
        assert robust.plan == base.plan
        assert robust.expected_completeness == pytest.approx(1.0)


class TestHighLambda:
    def test_flips_to_dual_path(self, setting):
        federation, query, cost_model, estimator = setting
        reps = federation.representative_names
        base = SJAPlusOptimizer().optimize(query, reps, cost_model, estimator)
        robust = RobustOptimizer(
            federation, flaky_model(federation), robustness=5.0
        ).optimize(query, reps, cost_model, estimator)
        assert robust.plan != base.plan
        mirrors = {"R1~1", "R2~1", "R3~1"}
        assert set(robust.plan.sources_used()) & mirrors
        labels = [c.label for c in robust.candidates]
        assert any("dual-path" in label for label in labels)

    def test_completeness_monotone_in_lambda(self, setting):
        federation, query, cost_model, estimator = setting
        reps = federation.representative_names
        model = flaky_model(federation)
        chosen = [
            RobustOptimizer(federation, model, robustness=lam)
            .optimize(query, reps, cost_model, estimator)
            .expected_completeness
            for lam in (0.0, 1.0, 5.0, 25.0)
        ]
        assert chosen == sorted(chosen)
        assert chosen[-1] > chosen[0]

    def test_candidates_are_scored_consistently(self, setting):
        federation, query, cost_model, estimator = setting
        robust = RobustOptimizer(
            federation, flaky_model(federation), robustness=2.0
        ).optimize(
            query, federation.representative_names, cost_model, estimator
        )
        assert robust.utility == pytest.approx(
            min(c.utility for c in robust.candidates)
        )
        for candidate in robust.candidates:
            assert 0.0 <= candidate.expected_completeness <= 1.0
            assert candidate.cost > 0
        assert "candidates" in robust.summary()


class TestFailoverAwareness:
    def test_failover_executor_skips_dual_path_expansion(self, setting):
        federation, query, cost_model, estimator = setting
        reps = federation.representative_names
        model = flaky_model(federation)
        with_failover = RobustOptimizer(
            federation, model, robustness=5.0, failover=True
        ).optimize(query, reps, cost_model, estimator)
        labels = [c.label for c in with_failover.candidates]
        assert not any("dual-path" in label for label in labels)
        # Mirror redundancy is credited to execution-time failover, so
        # the cheap single-path plan already scores well.
        base = SJAPlusOptimizer().optimize(query, reps, cost_model, estimator)
        assert with_failover.plan == base.plan
        assert with_failover.expected_completeness > expected_completeness(
            base.plan, federation, estimator, model, failover=False
        ).overall


class TestValidation:
    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_bad_robustness_rejected(self, setting, bad):
        federation, __, __, __ = setting
        with pytest.raises(CostModelError):
            RobustOptimizer(federation, robustness=bad)

    def test_every_search_takes_the_settings(self, setting):
        # search, beam_width and the budget configure the one SJA
        # search under SJA+, which also serves the SJA candidates.
        federation, query, cost_model, estimator = setting
        budget = PlanningBudget(max_subsets=1)
        optimizer = RobustOptimizer(
            federation,
            flaky_model(federation),
            search="beam",
            beam_width=3,
            planning_budget=budget,
        )
        sja = optimizer.base.sja
        assert (sja.search, sja.beam_width, sja.planning_budget) == ("beam", 3, budget)
        assert optimizer.planning_budget is budget
        result = optimizer.optimize(
            query, federation.representative_names, cost_model, estimator
        )
        assert {c.label for c in result.candidates} >= {"SJA+", "SJA", "FILTER"}
