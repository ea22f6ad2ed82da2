"""Cross-module integration tests: full mediator workflows."""

from __future__ import annotations

import pytest

from repro.costs.calibrated import CalibratedCostModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator
from repro.optimize.greedy import SelectivityOrderOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.runtime.engine import Resilience
from repro.runtime.policy import RetryPolicy
from repro.sources.generators import (
    SyntheticConfig,
    bibliographic_federation,
    bibliographic_query,
    build_synthetic,
    synthetic_conditions,
    synthetic_query,
)
from repro.sources.remote import FailureInjector
from repro.sources.statistics import (
    ExactStatistics,
    HistogramStatistics,
    SampledStatistics,
)
from repro.optimize.planning import Planning


class TestBibliographicScenario:
    """The Sec. 1 motivation: two-phase bibliographic search."""

    def test_phase_one_identifies_documents(self):
        federation = bibliographic_federation(
            n_libraries=4, n_documents=300, seed=2
        )
        mediator = Mediator(federation, verify=True)
        query = bibliographic_query(("mediator", "semijoin"))
        answer = mediator.answer(query)
        assert answer.items == reference_answer(federation, query)
        assert len(answer.items) > 0

    def test_phase_two_fetches_only_matches(self):
        federation = bibliographic_federation(
            n_libraries=3, n_documents=200, seed=3
        )
        mediator = Mediator(federation, verify=True)
        query = bibliographic_query(("query", "fusion"))
        answer = mediator.answer(query)
        records = mediator.fetch_records(answer.items)
        assert records.items() <= answer.items | frozenset()
        # Every fetched row belongs to a matched document.
        doc_position = records.schema.merge_position
        assert all(row[doc_position] in answer.items for row in records)

    def test_emulated_semijoin_library_still_correct(self):
        """The last library supports only passed bindings; plans routing
        semijoins there must be emulated transparently."""
        federation = bibliographic_federation(
            n_libraries=4, n_documents=150, seed=4
        )
        mediator = Mediator(federation, planning=Planning(optimizer=SJAOptimizer()), verify=True)
        query = bibliographic_query(("internet", "wrapper"))
        answer = mediator.answer(query)
        assert answer.verified is True


class TestStatisticsVariants:
    """Same query, different knowledge: oracle vs sampled vs histogram."""

    @pytest.fixture
    def kit(self):
        config = SyntheticConfig(n_sources=5, n_entities=400, seed=31)
        federation = build_synthetic(config)
        query = synthetic_query(config, m=3, seed=77)
        return federation, query

    @pytest.mark.parametrize(
        "provider_factory",
        [
            ExactStatistics,
            lambda federation: SampledStatistics(federation, 0.3, seed=0),
            HistogramStatistics,
        ],
    )
    def test_answers_identical_regardless_of_statistics(
        self, kit, provider_factory
    ):
        """Statistics affect plan choice, never correctness."""
        federation, query = kit
        mediator = Mediator(
            federation, statistics=provider_factory(federation), verify=True
        )
        answer = mediator.answer(query)
        assert answer.items == reference_answer(federation, query)

    def test_worse_statistics_never_break_execution(self, kit):
        federation, query = kit
        exact_cost = Mediator(
            federation, verify=True
        ).answer(query).execution.total_cost
        federation.reset_traffic()
        sampled_cost = Mediator(
            federation,
            statistics=SampledStatistics(federation, 0.2, seed=1),
            verify=True,
        ).answer(query).execution.total_cost
        # Sampled stats may pick a worse plan, but within sane bounds.
        assert sampled_cost <= 10 * exact_cost


class TestCalibratedPlanning:
    """End-to-end with *learned* cost parameters (Zhu & Larson loop)."""

    def test_calibrated_mediator_matches_reference(self):
        config = SyntheticConfig(
            n_sources=4,
            n_entities=250,
            overhead_range=(5.0, 50.0),
            send_range=(0.5, 3.0),
            receive_range=(0.5, 3.0),
            seed=41,
        )
        federation = build_synthetic(config)
        statistics = ExactStatistics(federation)
        estimator = SizeEstimator(statistics, federation.source_names)
        probes = synthetic_conditions(config, 4, seed=43)
        calibrated = CalibratedCostModel.calibrate(
            federation, estimator, probes, seed=0
        )
        mediator = Mediator(
            federation,
            statistics=statistics,
            cost_model=calibrated,
            planning=Planning(optimizer=SJAPlusOptimizer()),
            verify=True,
        )
        query = synthetic_query(config, m=3, seed=47)
        answer = mediator.answer(query)
        assert answer.verified is True

    def test_calibrated_plan_quality_close_to_oracle(self):
        """Learned costs are near-exact here (the simulator is linear),
        so the chosen plan should execute at nearly the oracle cost."""
        from repro.costs.charge import ChargeCostModel

        config = SyntheticConfig(
            n_sources=4, n_entities=250, overhead_range=(5.0, 50.0), seed=53
        )
        federation = build_synthetic(config)
        statistics = ExactStatistics(federation)
        estimator = SizeEstimator(statistics, federation.source_names)
        probes = synthetic_conditions(config, 4, seed=59)
        query = synthetic_query(config, m=3, seed=61)

        oracle = Mediator(
            federation,
            statistics=statistics,
            cost_model=ChargeCostModel.for_federation(federation, estimator),
            planning=Planning(optimizer=SJAOptimizer()),
        )
        oracle_cost = oracle.answer(query).execution.total_cost
        federation.reset_traffic()
        calibrated = Mediator(
            federation,
            statistics=statistics,
            cost_model=CalibratedCostModel.calibrate(
                federation, estimator, probes, seed=0
            ),
            planning=Planning(optimizer=SJAOptimizer()),
        )
        calibrated_cost = calibrated.answer(query).execution.total_cost
        assert calibrated_cost == pytest.approx(oracle_cost, rel=0.25)


class TestFaultTolerance:
    def test_flaky_federation_still_answers(self):
        config = SyntheticConfig(n_sources=3, n_entities=100, seed=71)
        federation = build_synthetic(config)
        for index, source in enumerate(federation):
            source.failure = FailureInjector(
                failure_rate=0.3, seed=index, max_failures=5
            )
        mediator = Mediator(
            federation,
            verify=True,
            resilience=Resilience(policy=RetryPolicy(max_retries=10)),
        )
        query = synthetic_query(config, m=2, seed=73)
        answer = mediator.answer(query)
        assert answer.verified is True


class TestInternetScale:
    def test_fifty_sources(self):
        """The paper's motivation: n is large.  Optimization must stay
        fast (linear in n) and execution correct."""
        config = SyntheticConfig(
            n_sources=50,
            n_entities=500,
            coverage=(0.05, 0.25),
            native_fraction=0.7,
            emulated_fraction=0.2,
            overhead_range=(2.0, 60.0),
            seed=83,
        )
        federation = build_synthetic(config)
        query = synthetic_query(config, m=3, seed=89)
        mediator = Mediator(
            federation, planning=Planning(optimizer=SelectivityOrderOptimizer()), verify=True
        )
        answer = mediator.answer(query)
        assert answer.verified is True
        assert answer.optimization.elapsed_s < 2.0
