"""Property-based tests for statistics providers and the SQL layer."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mediator.reference import (
    reference_answer,
    reference_answer_via_join,
)
from repro.query.sqlparse import parse_fusion_query
from repro.relational import columnar
from repro.sources.generators import synthetic_conditions, synthetic_query
from repro.sources.statistics import (
    ExactStatistics,
    HistogramStatistics,
    SampledStatistics,
)

from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.table_source import TableSource

from tests.property.strategies import (
    dmv_conditions,
    dmv_relations,
    synthetic_kits,
)


def _oracle_selectivity(relation, condition):
    """Set arithmetic over ``Condition.evaluate``, one dict per row."""
    schema = relation.schema
    pos = schema.merge_position
    items = {row[pos] for row in relation}
    satisfying = {
        row[pos]
        for row in relation
        if condition.evaluate(schema.row_to_dict(row))
    }
    return len(satisfying) / len(items) if items else 0.0


@given(relation=dmv_relations(), condition=dmv_conditions, sample_seed=st.integers(0, 50))
@settings(max_examples=80, deadline=None)
def test_measured_selectivity_matches_row_oracle(relation, condition, sample_seed):
    federation = Federation([RemoteSource(TableSource(relation))])
    for use_numpy in (False, True) if columnar.numpy_available() else (False,):
        prev = columnar.set_numpy_enabled(use_numpy)
        try:
            exact = ExactStatistics(federation)
            sampled = SampledStatistics(
                federation, fraction=0.3, seed=sample_seed, min_sample_rows=3
            )
            assert exact.selectivity("R", condition) == _oracle_selectivity(
                relation, condition
            )
            assert sampled.selectivity("R", condition) == _oracle_selectivity(
                sampled._samples["R"], condition
            )
        finally:
            columnar.set_numpy_enabled(prev)


@given(kit=synthetic_kits())
@settings(max_examples=15, deadline=None)
def test_all_providers_return_unit_interval_selectivities(kit):
    federation, config, __ = kit
    providers = [
        ExactStatistics(federation),
        SampledStatistics(federation, fraction=0.5, seed=0),
        HistogramStatistics(federation),
    ]
    conditions = synthetic_conditions(config, 5, seed=config.seed + 3)
    for provider in providers:
        for name in federation.source_names:
            for condition in conditions:
                assert 0.0 <= provider.selectivity(name, condition) <= 1.0


@given(kit=synthetic_kits())
@settings(max_examples=15, deadline=None)
def test_providers_agree_on_cardinalities(kit):
    federation, __, __ = kit
    exact = ExactStatistics(federation)
    sampled = SampledStatistics(federation, fraction=0.5, seed=0)
    histogram = HistogramStatistics(federation)
    for name in federation.source_names:
        assert (
            exact.cardinality(name)
            == sampled.cardinality(name)
            == histogram.cardinality(name)
        )
        assert exact.universe_size() == histogram.universe_size()


@given(kit=synthetic_kits(), query_seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_reference_oracles_agree(kit, query_seed):
    federation, config, m = kit
    query = synthetic_query(config, m=m, seed=query_seed)
    assert reference_answer(federation, query) == (
        reference_answer_via_join(federation, query)
    )


@given(kit=synthetic_kits(max_m=3), query_seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_generated_queries_roundtrip_through_sql(kit, query_seed):
    __, config, m = kit
    query = synthetic_query(config, m=m, seed=query_seed)
    reparsed = parse_fusion_query(query.to_sql())
    assert reparsed.merge_attribute == query.merge_attribute
    assert reparsed.conditions == query.conditions
