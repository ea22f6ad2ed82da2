"""Shared fixtures for the fusion-query test suite."""

from __future__ import annotations

import pytest

from repro.bench.harness import make_kit
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.session import Mediator
from repro.relational.schema import Schema
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    synthetic_query,
)
from repro.sources.statistics import ExactStatistics


@pytest.fixture
def validated_rows(monkeypatch):
    """Every row ``Schema.validate_row`` is asked about from here on, in
    order — request it *after* the fixtures that build the data, or
    ``del validated_rows[:]`` once the set-up is done."""
    seen = []
    original = Schema.validate_row

    def counting(schema, row):
        seen.append(row)
        return original(schema, row)

    monkeypatch.setattr(Schema, "validate_row", counting)
    return seen


@pytest.fixture
def plan_fresh_kit():
    """A :class:`~repro.bench.harness.PlanningKit` shaped like the
    ``plan_fresh`` benchmark: sixteen sources (half native, a quarter
    emulated, a quarter unsupported) and a seven-condition query."""
    config = SyntheticConfig(
        n_sources=16,
        n_entities=300,
        coverage=(0.2, 0.6),
        native_fraction=0.5,
        emulated_fraction=0.25,
        seed=1616,
    )
    return make_kit(config, m=7)


@pytest.fixture
def dmv():
    """The Fig. 1 federation and query: (federation, query)."""
    return dmv_fig1()


@pytest.fixture
def dmv_federation(dmv):
    return dmv[0]


@pytest.fixture
def dmv_query(dmv):
    return dmv[1]


@pytest.fixture
def dmv_estimator(dmv_federation):
    return SizeEstimator(
        ExactStatistics(dmv_federation), dmv_federation.source_names
    )


@pytest.fixture
def dmv_cost_model(dmv_federation, dmv_estimator):
    return ChargeCostModel.for_federation(dmv_federation, dmv_estimator)


@pytest.fixture
def dmv_mediator(dmv_federation):
    return Mediator(dmv_federation, verify=True)


@pytest.fixture
def small_synthetic():
    """A small deterministic synthetic federation with its config."""
    config = SyntheticConfig(
        n_sources=4,
        n_entities=200,
        coverage=(0.3, 0.7),
        rows_per_entity=(1, 2),
        seed=42,
    )
    return build_synthetic(config), config


@pytest.fixture
def synthetic_setup(small_synthetic):
    """Federation, query, estimator, cost model — the full planning kit."""
    federation, config = small_synthetic
    query = synthetic_query(config, m=3, seed=7)
    statistics = ExactStatistics(federation)
    estimator = SizeEstimator(statistics, federation.source_names)
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    return federation, query, cost_model, estimator
