"""Unit tests for one-phase vs two-phase record retrieval."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.mediator.phases import (
    PhaseStrategy,
    answer_with_records,
    estimate_one_phase_cost,
    estimate_two_phase_cost,
)
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator
from repro.optimize.planning import Planning
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)


@pytest.fixture
def synthetic():
    config = SyntheticConfig(n_sources=4, n_entities=300, seed=77)
    federation = build_synthetic(config)
    query = synthetic_query(config, m=3, seed=79)
    return federation, query


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy", [PhaseStrategy.TWO_PHASE, PhaseStrategy.ONE_PHASE]
    )
    def test_both_strategies_find_same_entities(self, synthetic, strategy):
        federation, query = synthetic
        mediator = Mediator(federation)
        result = answer_with_records(mediator, query, strategy)
        assert result.items == reference_answer(federation, query)
        assert result.strategy is strategy

    def test_dmv_answer(self):
        federation, query = dmv_fig1()
        result = answer_with_records(Mediator(federation), query)
        assert result.items == DMV_FIG1_ANSWER

    def test_records_belong_to_matches(self, synthetic):
        federation, query = synthetic
        mediator = Mediator(federation)
        for strategy in (PhaseStrategy.TWO_PHASE, PhaseStrategy.ONE_PHASE):
            federation.reset_traffic()
            result = answer_with_records(mediator, query, strategy)
            assert result.records.items() <= result.items

    def test_one_phase_records_subset_of_two_phase(self, synthetic):
        """One-phase keeps qualifying rows; two-phase fetches all rows of
        matched entities — a superset."""
        federation, query = synthetic
        mediator = Mediator(federation)
        two = answer_with_records(mediator, query, PhaseStrategy.TWO_PHASE)
        federation.reset_traffic()
        one = answer_with_records(mediator, query, PhaseStrategy.ONE_PHASE)
        assert set(one.records.rows) <= set(two.records.rows)

    def test_sql_accepted(self):
        federation, query = dmv_fig1()
        result = answer_with_records(Mediator(federation), query.to_sql())
        assert result.items == DMV_FIG1_ANSWER


class TestAutoChoice:
    def test_auto_picks_cheaper_estimate(self, synthetic):
        federation, query = synthetic
        mediator = Mediator(federation)
        result = answer_with_records(mediator, query, PhaseStrategy.AUTO)
        if result.estimated_one_phase < result.estimated_two_phase:
            assert result.strategy is PhaseStrategy.ONE_PHASE
        else:
            assert result.strategy is PhaseStrategy.TWO_PHASE

    def test_estimates_positive(self, synthetic):
        federation, query = synthetic
        mediator = Mediator(federation)
        assert estimate_one_phase_cost(mediator, query) > 0
        assert estimate_two_phase_cost(mediator, query) > 0

    def test_selective_query_prefers_two_phase(self):
        """Highly selective conditions -> tiny answer -> phase 2 cheap."""
        config = SyntheticConfig(
            n_sources=4,
            n_entities=800,
            rows_per_entity=(2, 4),
            load_range=(10.0, 10.0),  # rows are expensive to ship
            seed=101,
        )
        federation = build_synthetic(config)
        from repro.relational.conditions import Comparison

        from repro.query.fusion import FusionQuery

        query = FusionQuery(
            "id",
            (
                Comparison("score", "<", 60),
                Comparison("score", ">=", 940),
            ),
        )
        mediator = Mediator(federation)
        result = answer_with_records(mediator, query, PhaseStrategy.AUTO)
        assert result.strategy is PhaseStrategy.TWO_PHASE

    def test_accounting_matches_traffic(self, synthetic):
        federation, query = synthetic
        mediator = Mediator(federation)
        federation.reset_traffic()
        result = answer_with_records(mediator, query, PhaseStrategy.ONE_PHASE)
        assert result.actual_cost == pytest.approx(
            federation.total_traffic_cost()
        )


class _FreePhaseOne(SJAPlusOptimizer):
    """SJA+'s plan, priced at zero: a two-phase estimate over it is the
    record fetch alone."""

    def optimize(self, query, source_names, cost_model, estimator):
        result = super().optimize(query, source_names, cost_model, estimator)
        return replace(result, estimated_cost=0.0)


def test_two_phase_estimate_prices_the_plan_answer_runs():
    # ``answer`` plans over one source per replica group; pricing phase 1
    # over every mirror would price a plan that never runs.
    federation, query = dmv_fig1()
    replicated = replicate_federation(federation, 2)
    mediator = Mediator(replicated)
    fetch = estimate_two_phase_cost(
        Mediator(replicated, planning=Planning(optimizer=_FreePhaseOne())), query
    )
    # The subtraction rounds; the mirrors' plan would cost 96, not 48.
    phase_one = estimate_two_phase_cost(mediator, query) - fetch
    assert phase_one == pytest.approx(mediator.plan(query).estimated_cost, rel=1e-12)


class TestMirrorsAreReadOnce:
    """Both phases read one source per replica group, as the fusion plan
    is planned: on Fig. 1 mirrored once, every record, cost and
    estimate reads as on Fig. 1 itself."""

    def run(self, federation, strategy):
        federation.reset_traffic()
        return answer_with_records(Mediator(federation), dmv_fig1()[1], strategy)

    @pytest.mark.parametrize(
        "strategy, records, cost",
        [(PhaseStrategy.TWO_PHASE, 5, 94.0), (PhaseStrategy.ONE_PHASE, 5, 78.0)],
    )
    def test_replicated_fig1_reads_as_fig1(self, strategy, records, cost):
        for federation in (dmv_fig1()[0], replicate_federation(dmv_fig1()[0], 2)):
            result = self.run(federation, strategy)
            assert result.items == DMV_FIG1_ANSWER
            assert len(result.records) == records
            assert result.actual_cost == pytest.approx(cost)
            assert result.estimated_two_phase == pytest.approx(90.2, abs=0.05)
            assert result.estimated_one_phase == pytest.approx(78.0)

    def test_auto_picks_one_phase_on_both(self):
        for federation in (dmv_fig1()[0], replicate_federation(dmv_fig1()[0], 2)):
            assert self.run(federation, PhaseStrategy.AUTO).strategy is (
                PhaseStrategy.ONE_PHASE
            )

    def test_fetch_records_skips_the_mirrors(self):
        replicated = replicate_federation(dmv_fig1()[0], 2)
        mediator = Mediator(replicated)
        records = mediator.fetch_records(mediator.answer(dmv_fig1()[1]).execution.item_set)
        plain = Mediator(dmv_fig1()[0])
        expected = plain.fetch_records(plain.answer(dmv_fig1()[1]).execution.item_set)
        assert sorted(records.rows) == sorted(expected.rows)
