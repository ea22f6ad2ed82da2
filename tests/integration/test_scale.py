"""Scale smoke tests: the optimizers at Internet-like source counts.

These are correctness + sanity-bound tests, not benchmarks (those live
in ``benchmarks/``): they establish that nothing degrades
super-linearly in n within the sizes a laptop test run tolerates.
"""

from __future__ import annotations

import time

import pytest

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import Executor
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator
from repro.optimize.greedy import GreedySJAOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    synthetic_query,
)
from repro.sources.statistics import ExactStatistics


@pytest.fixture(scope="module")
def big_federation():
    config = SyntheticConfig(
        n_sources=150,
        n_entities=1500,
        coverage=(0.02, 0.1),
        native_fraction=0.8,
        emulated_fraction=0.1,
        overhead_range=(2.0, 40.0),
        seed=1500,
    )
    federation = build_synthetic(config)
    query = synthetic_query(config, m=3, seed=77)
    statistics = ExactStatistics(federation)
    estimator = SizeEstimator(statistics, federation.source_names)
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    return federation, query, cost_model, estimator


class TestLargeN:
    def test_sja_plans_150_sources_quickly_and_correctly(self, big_federation):
        federation, query, cost_model, estimator = big_federation
        start = time.perf_counter()
        result = SJAOptimizer().optimize(
            query, federation.source_names, cost_model, estimator
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        execution = Executor(federation).execute(result.plan)
        assert execution.items == reference_answer(federation, query)

    def test_greedy_much_faster_same_answer(self, big_federation):
        federation, query, cost_model, estimator = big_federation
        result = GreedySJAOptimizer().optimize(
            query, federation.source_names, cost_model, estimator
        )
        assert result.elapsed_s < 1.0
        federation.reset_traffic()
        execution = Executor(federation).execute(result.plan)
        assert execution.items == reference_answer(federation, query)

    def test_adaptive_handles_150_sources(self, big_federation):
        federation, query, cost_model, estimator = big_federation
        federation.reset_traffic()
        mediator = Mediator(federation, cost_model=cost_model)
        result = mediator.answer_adaptive(query)
        assert result.items == reference_answer(federation, query)

    def test_plan_size_linear_in_n(self, big_federation):
        federation, query, cost_model, estimator = big_federation
        plan = SJAOptimizer().optimize(
            query, federation.source_names, cost_model, estimator
        ).plan
        # m*n remote ops plus O(m) local ops — nothing quadratic.
        assert plan.remote_op_count == query.arity * federation.size
        assert len(plan) <= query.arity * (federation.size + 2)


class TestManyConditions:
    def test_greedy_handles_m_10(self):
        """SJA's m! would be 3.6M orderings; greedy shrugs."""
        config = SyntheticConfig(
            n_sources=8, n_entities=300, seed=10
        )
        federation = build_synthetic(config)
        query = synthetic_query(config, m=10, seed=10)
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        cost_model = ChargeCostModel.for_federation(federation, estimator)
        start = time.perf_counter()
        result = GreedySJAOptimizer().optimize(
            query, federation.source_names, cost_model, estimator
        )
        assert time.perf_counter() - start < 2.0
        execution = Executor(federation).execute(result.plan)
        assert execution.items == reference_answer(federation, query)
