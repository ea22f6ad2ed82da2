"""Unit tests for the calibrated (learned-parameters) cost model."""

from __future__ import annotations

import math
from itertools import product

import pytest

from repro.costs.calibrated import CalibratedCostModel
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.errors import CostModelError
from repro.relational.columnar import set_numpy_enabled
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    synthetic_conditions,
)
from repro.sources.sampling import FittedLinkParameters
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


# ----------------------------------------------------------------------
# The charge model over fitted charges answers what the calibrated
# model's own formulas answered, to the bit.  Those formulas are written
# inline below as the reference; ``lq`` is the one that moved
# (``rows * receive * 2.0`` became ``rows * (receive * 2.0)``), which is
# the same float because 2.0 is a power of two.

FITTED_GRID = (
    (0.0, 0.0, 0.0),
    (10.0, 1.0, 1.0),
    (5.3, 0.7, 2.9),
    (37.1, 1e-3, 123.456),
    (1 / 3, 0.1 + 0.2, 2 / 3),
    (0.1, 17.0, 1e-3),
)
TIER_BATCHES = tuple(product(SemijoinSupport, (None, 1, 7)))
SIZES = (0, 0.3, 1, 6.999, 7, 7.001, 64, 99.5, 1e6)


def _reference_sq(fitted, estimator, condition, source):
    received = estimator.sq_output_size(condition, source)
    return fitted.request_overhead + received * fitted.per_item_receive


def _reference_sjq(fitted, capabilities, estimator, condition, source, size):
    if capabilities.semijoin is SemijoinSupport.UNSUPPORTED:
        return math.inf
    if size == 0:
        return 0.0
    if capabilities.semijoin is SemijoinSupport.EMULATED:
        requests = 1
        overhead = 0.0
        per_binding = fitted.request_overhead + fitted.per_item_send
    else:
        batch = capabilities.max_semijoin_batch
        requests = 1 if batch is None else math.ceil(math.ceil(size) / batch)
        overhead = fitted.request_overhead
        per_binding = fitted.per_item_send
    fraction = estimator.match_fraction(condition, source)
    return (
        requests * overhead
        + size * per_binding
        + (size * fraction) * fitted.per_item_receive
    )


def _reference_lq(fitted, capabilities, rows):
    if not capabilities.supports_load:
        return math.inf
    return fitted.request_overhead + rows * fitted.per_item_receive * 2.0


@pytest.fixture(scope="module")
def grid_federation():
    config = SyntheticConfig(n_sources=5, n_entities=200, seed=41)
    federation = build_synthetic(config)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    return federation, estimator, synthetic_conditions(config, 3, seed=43)


@pytest.mark.parametrize("numpy_on", [True, False], ids=["numpy", "lists"])
def test_fitted_charges_price_bit_equal_to_the_reference(grid_federation, numpy_on):
    federation, estimator, conditions = grid_federation
    names = federation.source_names
    rows = {source.name: len(source.table) for source in federation}
    previous = set_numpy_enabled(numpy_on)
    try:
        for shift, (tier, batch) in product(range(len(FITTED_GRID)), TIER_BATCHES):
            fitted = {
                name: FittedLinkParameters(
                    *FITTED_GRID[(shift + index) % len(FITTED_GRID)],
                    residual=0.0,
                    probes=9,
                )
                for index, name in enumerate(names)
            }
            capabilities = {
                name: SourceCapabilities(
                    semijoin=tier,
                    max_semijoin_batch=batch,
                    supports_load=index % 2 == 0,
                )
                for index, name in enumerate(names)
            }
            model = CalibratedCostModel(fitted, capabilities, estimator, rows)
            for name in names:
                assert model.lq_cost(name).hex() == _reference_lq(
                    fitted[name], capabilities[name], rows[name]
                ).hex()
            tables = model.sjq_price_table(
                conditions, names, [SIZES] * len(conditions)
            )
            for condition, table in zip(conditions, tables):
                for j, name in enumerate(names):
                    assert model.sq_cost(condition, name).hex() == _reference_sq(
                        fitted[name], estimator, condition, name
                    ).hex()
                    pricer = model.sjq_pricer(condition, name)
                    for k, size in enumerate(SIZES):
                        expected = _reference_sjq(
                            fitted[name],
                            capabilities[name],
                            estimator,
                            condition,
                            name,
                            size,
                        ).hex()
                        assert model.sjq_cost(condition, name, size).hex() == expected
                        assert pricer(size).hex() == expected
                        assert float(table[j][k]).hex() == expected
    finally:
        set_numpy_enabled(previous)


@pytest.mark.parametrize("charge", [0, 1, 2])
@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_a_negative_or_non_finite_fitted_charge_is_refused(grid_federation, charge, bad):
    federation, estimator, __ = grid_federation
    name = federation.source_names[0]
    charges = [1.0, 1.0, 1.0]
    charges[charge] = bad
    fitted = FittedLinkParameters(*charges, residual=0.0, probes=9)
    with pytest.raises(CostModelError, match="must be"):
        CalibratedCostModel(
            {name: fitted}, {name: SourceCapabilities()}, estimator, {name: 1}
        )
