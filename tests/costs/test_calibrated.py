"""Unit tests for the calibrated (learned-parameters) cost model."""

from __future__ import annotations

import math

import pytest

from repro.costs.calibrated import CalibratedCostModel
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.errors import CostModelError
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    synthetic_conditions,
)
from repro.sources.statistics import ExactStatistics


@pytest.fixture
def setup():
    config = SyntheticConfig(
        n_sources=4,
        n_entities=300,
        overhead_range=(5.0, 40.0),
        send_range=(0.5, 2.0),
        receive_range=(0.5, 2.0),
        seed=17,
    )
    federation = build_synthetic(config)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    probes = synthetic_conditions(config, 4, seed=23)
    calibrated = CalibratedCostModel.calibrate(
        federation, estimator, probes, seed=0
    )
    oracle = ChargeCostModel.for_federation(federation, estimator)
    conditions = synthetic_conditions(config, 5, seed=31)
    return federation, calibrated, oracle, conditions


class TestAgreementWithOracle:
    def test_sq_costs_close(self, setup):
        federation, calibrated, oracle, conditions = setup
        for condition in conditions:
            for name in federation.source_names:
                learned = calibrated.sq_cost(condition, name)
                truth = oracle.sq_cost(condition, name)
                assert learned == pytest.approx(truth, rel=0.05, abs=1.0)

    def test_sjq_costs_close(self, setup):
        federation, calibrated, oracle, conditions = setup
        for condition in conditions[:2]:
            for name in federation.source_names:
                learned = calibrated.sjq_cost(condition, name, 50)
                truth = oracle.sjq_cost(condition, name, 50)
                assert learned == pytest.approx(truth, rel=0.05, abs=2.0)


class TestStructure:
    def test_zero_input_semijoin_free(self, setup):
        federation, calibrated, __, conditions = setup
        assert calibrated.sjq_cost(
            conditions[0], federation.source_names[0], 0
        ) == 0.0

    @pytest.mark.parametrize("size", [-1, math.nan, math.inf])
    def test_only_a_finite_input_size_is_priced(self, setup, size):
        federation, calibrated, __, conditions = setup
        for name in federation.source_names:
            with pytest.raises(CostModelError, match="input size"):
                calibrated.sjq_cost(conditions[0], name, size)

    def test_lq_extrapolation_positive_and_finite(self, setup):
        federation, calibrated, __, __ = setup
        for name in federation.source_names:
            cost = calibrated.lq_cost(name)
            assert math.isfinite(cost)
            assert cost > 0

    def test_unsupported_semijoin_infinite(self):
        config = SyntheticConfig(
            n_sources=3,
            n_entities=100,
            native_fraction=0.0,
            emulated_fraction=0.0,
            seed=3,
        )
        federation = build_synthetic(config)
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        probes = synthetic_conditions(config, 3, seed=1)
        calibrated = CalibratedCostModel.calibrate(
            federation, estimator, probes, seed=0
        )
        assert math.isinf(
            calibrated.sjq_cost(probes[0], federation.source_names[0], 5)
        )
