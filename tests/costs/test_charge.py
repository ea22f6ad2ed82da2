"""Unit tests for the charge-based cost model."""

from __future__ import annotations

import math

import pytest

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.costs.model import check_cost_axioms
from repro.errors import CostModelError
from repro.relational.parser import parse_condition
from repro.relational.relation import Relation
from repro.relational.schema import dmv_schema
from repro.sources.capabilities import SourceCapabilities
from repro.sources.generators import dmv_fig1
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.statistics import ExactStatistics
from repro.sources.table_source import TableSource

DUI = parse_condition("V = 'dui'")
SP = parse_condition("V = 'sp'")


@pytest.fixture
def dmv_model():
    federation, __ = dmv_fig1()
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    return federation, estimator, ChargeCostModel.for_federation(
        federation, estimator
    )


class TestSelectionCost:
    def test_sq_cost_formula(self, dmv_model):
        __, estimator, model = dmv_model
        # overhead 10 + 2 estimated items * 1.0 receive
        assert model.sq_cost(DUI, "R1") == pytest.approx(12.0)

    def test_sq_cost_zero_selectivity(self, dmv_model):
        __, __, model = dmv_model
        # R3 has no dui items -> just the overhead.
        assert model.sq_cost(DUI, "R3") == pytest.approx(10.0)


class TestSemijoinCost:
    def test_native_single_request(self, dmv_model):
        __, estimator, model = dmv_model
        expected_received = estimator.sjq_output_size(DUI, "R1", 10)
        assert model.sjq_cost(DUI, "R1", 10) == pytest.approx(
            10 + 10 * 1.0 + expected_received * 1.0
        )

    def test_zero_input_costs_nothing(self, dmv_model):
        __, __, model = dmv_model
        assert model.sjq_cost(DUI, "R1", 0) == 0.0

    def test_batched_pays_multiple_overheads(self):
        federation, __ = dmv_fig1(
            capabilities=SourceCapabilities(max_semijoin_batch=4)
        )
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        unbatched_like = model.sjq_cost(DUI, "R1", 4)
        batched = model.sjq_cost(DUI, "R1", 10)  # ceil(10/4) = 3 overheads
        assert batched > 3 * 10  # at least three request overheads

    def test_emulated_pays_overhead_per_binding(self):
        federation, __ = dmv_fig1(
            capabilities=SourceCapabilities.selection_only()
        )
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        cost = model.sjq_cost(DUI, "R1", 10)
        assert cost >= 10 * (10 + 1)  # 10 probes, each overhead + 1 sent

    def test_unsupported_is_infinite(self):
        federation, __ = dmv_fig1(capabilities=SourceCapabilities.minimal())
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        assert math.isinf(model.sjq_cost(DUI, "R1", 5))
        assert not model.supports_semijoin("R1", DUI)


class TestNonFiniteInputSize:
    """``|X| = inf`` used to escape as ``OverflowError`` (batched native:
    ``math.ceil(inf)``) or come back as ``nan`` (``inf * 0.0`` received
    items), which every ``<`` in the stage rules reads as "not cheaper"."""

    def test_batched_native_raises_the_typed_error(self):
        federation, __ = dmv_fig1(
            capabilities=SourceCapabilities(max_semijoin_batch=10)
        )
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        with pytest.raises(CostModelError, match="input size"):
            model.sjq_cost(DUI, "R1", math.inf)

    @pytest.mark.parametrize(
        "capabilities",
        [SourceCapabilities.full(), SourceCapabilities.selection_only()],
        ids=["unbatched", "emulated"],
    )
    def test_zero_match_fraction_is_not_priced_at_nan(self, capabilities):
        federation, __ = dmv_fig1(capabilities=capabilities)
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        nosuch = parse_condition("V = 'nosuch'")
        assert estimator.match_fraction(nosuch, "R1") == 0.0
        with pytest.raises(CostModelError, match="input size"):
            model.sjq_cost(nosuch, "R1", math.inf)
        with pytest.raises(CostModelError, match="input size"):
            model.sjq_pricer(nosuch, "R1")(math.inf)

    def test_unsupported_checks_the_size_before_answering_inf(self):
        federation, __ = dmv_fig1(capabilities=SourceCapabilities.minimal())
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        for size in (-1, math.nan, math.inf):
            with pytest.raises(CostModelError, match="input size"):
                model.sjq_cost(DUI, "R1", size)


class TestLoadCost:
    def test_lq_cost_formula(self, dmv_model):
        __, __, model = dmv_model
        # overhead 10 + 3 rows * 2.0 per-row
        assert model.lq_cost("R1") == pytest.approx(16.0)

    def test_lq_unsupported_infinite(self):
        federation, __ = dmv_fig1(
            capabilities=SourceCapabilities(supports_load=False)
        )
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        assert math.isinf(model.lq_cost("R1"))


class TestAxioms:
    def test_charge_model_satisfies_axioms(self, dmv_model):
        federation, __, model = dmv_model
        violations = check_cost_axioms(
            model, [DUI, SP], list(federation.source_names)
        )
        assert violations == []

    def test_axioms_hold_with_batching_and_emulation(self):
        schema = dmv_schema()
        rows = [("A1", "dui", 1990), ("B2", "sp", 1991)]
        sources = [
            RemoteSource(
                TableSource(Relation("N", schema, rows)),
                SourceCapabilities(max_semijoin_batch=2),
                LinkProfile(request_overhead=20),
            ),
            RemoteSource(
                TableSource(Relation("E", schema, rows)),
                SourceCapabilities.selection_only(),
                LinkProfile(request_overhead=5),
            ),
        ]
        federation = Federation(sources)
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        violations = check_cost_axioms(model, [DUI], ["N", "E"])
        assert violations == []
