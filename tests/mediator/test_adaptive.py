"""Unit tests for the adaptive (interleaved) executor."""

from __future__ import annotations

import pytest

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.adaptive import AdaptiveExecutor
from repro.mediator.reference import reference_answer
from repro.query.fusion import FusionQuery
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    synthetic_query,
)
from repro.sources.statistics import ExactStatistics, SampledStatistics


def make_adaptive(federation, statistics=None):
    statistics = statistics or ExactStatistics(federation)
    estimator = SizeEstimator(statistics, federation.source_names)
    model = ChargeCostModel.for_federation(federation, estimator)
    return AdaptiveExecutor(federation, model, estimator)


class TestCorrectness:
    def test_dmv_answer(self):
        federation, query = dmv_fig1()
        result = make_adaptive(federation).execute(query)
        assert result.items == DMV_FIG1_ANSWER

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_on_synthetic(self, seed):
        config = SyntheticConfig(n_sources=4, n_entities=200, seed=seed)
        federation = build_synthetic(config)
        query = synthetic_query(config, m=3, seed=seed + 20)
        result = make_adaptive(federation).execute(query)
        assert result.items == reference_answer(federation, query)

    def test_correct_with_sampled_statistics(self):
        config = SyntheticConfig(n_sources=4, n_entities=300, seed=9)
        federation = build_synthetic(config)
        query = synthetic_query(config, m=3, seed=29)
        executor = make_adaptive(
            federation, SampledStatistics(federation, 0.2, seed=1)
        )
        assert executor.execute(query).items == reference_answer(
            federation, query
        )

    def test_single_condition(self):
        federation, __ = dmv_fig1()
        query = FusionQuery.from_strings("L", ["V = 'sp'"])
        result = make_adaptive(federation).execute(query)
        assert result.items == reference_answer(federation, query)
        assert len(result.stages) == 1


class TestEarlyTermination:
    def test_empty_prefix_stops(self):
        federation, __ = dmv_fig1()
        query = FusionQuery.from_strings(
            "L", ["V = 'nope'", "V = 'sp'", "V = 'dui'"]
        )
        result = make_adaptive(federation).execute(query)
        assert result.items == frozenset()
        assert result.terminated_early
        assert result.stages_skipped == 2
        assert len(result.stages) == 1  # only the empty first stage ran

    def test_summary_mentions_early_stop(self):
        federation, __ = dmv_fig1()
        query = FusionQuery.from_strings("L", ["V = 'nope'", "V = 'sp'"])
        result = make_adaptive(federation).execute(query)
        assert "stopped early" in result.summary()


class TestAdaptivity:
    def test_in_stage_pruning_never_resends_confirmed_items(self):
        """The adaptive executor folds Sec. 4 difference pruning in."""
        from repro.sources.network import LinkProfile

        federation, query = dmv_fig1(
            link=LinkProfile(
                request_overhead=1.0,
                per_item_send=5.0,
                per_item_receive=50.0,
            )
        )
        result = make_adaptive(federation).execute(query)
        assert result.items == DMV_FIG1_ANSWER
        semijoin_records = [
            record
            for source in federation
            for record in source.traffic
            if record.operation == "sjq"
        ]
        if len(semijoin_records) >= 2:
            # later sends are never larger than the first
            sends = [record.items_sent for record in semijoin_records]
            assert sends == sorted(sends, reverse=True)

    def test_stage_costs_accounted(self):
        federation, query = dmv_fig1()
        federation.reset_traffic()
        result = make_adaptive(federation).execute(query)
        assert result.total_cost == pytest.approx(
            federation.total_traffic_cost()
        )

    def test_ordering_adapts_to_actual_sizes(self):
        federation, __ = dmv_fig1()
        query = FusionQuery.from_strings(
            "L", ["V = 'sp'", "V = 'dui'"]
        )
        result = make_adaptive(federation).execute(query)
        # c chosen first is the cheaper/smaller one; with equal charge
        # profiles that is dui (3 items) over sp (4 items).
        assert result.ordering()[0].to_sql() == "V = 'dui'"
