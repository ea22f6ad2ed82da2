"""Unit tests for the abstract cost model, axioms, and simple models."""

from __future__ import annotations

import math

import pytest

from repro.costs.model import (
    INFINITE_COST,
    CostModel,
    UniformCostModel,
    check_cost_axioms,
)
from repro.errors import CostModelError
from repro.relational.parser import parse_condition
from tests.costs.table_model import TableCostModel

CONDITION = parse_condition("V = 'dui'")
OTHER = parse_condition("V = 'sp'")


class TestUniformCostModel:
    def test_costs(self):
        model = UniformCostModel(sq=100, sjq_fixed=10, sjq_per_item=2, lq=500)
        assert model.sq_cost(CONDITION, "R1") == 100
        assert model.sjq_cost(CONDITION, "R1", 5) == 20
        assert model.lq_cost("R1") == 500

    def test_negative_parameters_rejected(self):
        with pytest.raises(CostModelError):
            UniformCostModel(sq=-1)

    def test_negative_input_size_rejected(self):
        with pytest.raises(CostModelError):
            UniformCostModel().sjq_cost(CONDITION, "R1", -1)

    @pytest.mark.parametrize("size", [-1, math.nan, math.inf])
    def test_only_a_finite_input_size_is_priced(self, size):
        # |X| is a set size: inf is as meaningless as NaN, and used to
        # come back as an infinite "price" the stage rules then compared.
        for model in (UniformCostModel(), TableCostModel()):
            with pytest.raises(CostModelError, match="input size"):
                model.sjq_cost(CONDITION, "R1", size)
            with pytest.raises(CostModelError, match="input size"):
                model.sjq_pricer(CONDITION, "R1")(size)

    def test_satisfies_axioms(self):
        violations = check_cost_axioms(
            UniformCostModel(), [CONDITION, OTHER], ["R1", "R2"]
        )
        assert violations == []

    def test_supports_semijoin(self):
        assert UniformCostModel().supports_semijoin("R1", CONDITION)


class TestTableCostModel:
    def test_lookup_with_defaults(self):
        model = TableCostModel(
            sq_table={(CONDITION, "R1"): 50.0},
            sjq_table={(CONDITION, "R1"): (5.0, 0.5)},
            lq_table={"R1": 200.0},
            default_sq=99.0,
        )
        assert model.sq_cost(CONDITION, "R1") == 50.0
        assert model.sq_cost(OTHER, "R1") == 99.0
        assert model.sjq_cost(CONDITION, "R1", 10) == 10.0
        assert model.lq_cost("R1") == 200.0
        assert model.lq_cost("R2") == INFINITE_COST

    def test_infinite_semijoin_detected(self):
        model = TableCostModel(
            sjq_table={(CONDITION, "R1"): (INFINITE_COST, 0.0)}
        )
        assert not model.supports_semijoin("R1", CONDITION)

    def test_satisfies_axioms(self):
        violations = check_cost_axioms(
            TableCostModel(), [CONDITION], ["R1"]
        )
        assert violations == []


class _BrokenModel(CostModel):
    """Deliberately violates subadditivity and non-negativity."""

    def sq_cost(self, condition, source_name):
        return -5.0

    def sjq_cost(self, condition, source_name, input_size):
        # Superadditive: quadratic in the binding size.
        return input_size**2

    def lq_cost(self, source_name):
        return 10.0


class TestAxiomChecker:
    def test_detects_violations(self):
        violations = check_cost_axioms(_BrokenModel(), [CONDITION], ["R1"])
        axioms = {violation.axiom for violation in violations}
        assert "non-negativity" in axioms
        assert "subadditivity" in axioms

    def test_detects_decreasing_semijoin_cost(self):
        class Decreasing(CostModel):
            def sq_cost(self, condition, source_name):
                return 1.0

            def sjq_cost(self, condition, source_name, input_size):
                return max(0.0, 100.0 - input_size)

            def lq_cost(self, source_name):
                return math.inf

        violations = check_cost_axioms(Decreasing(), [CONDITION], ["R1"])
        assert any(v.axiom == "monotonicity" for v in violations)
