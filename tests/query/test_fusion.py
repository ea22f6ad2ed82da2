"""Unit tests for the FusionQuery model."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.query.sqlparse import parse_query
from repro.relational.aggregates import AggregateSpec
from repro.relational.conditions import Comparison
from repro.relational.parser import parse_condition
from repro.relational.schema import dmv_schema


@pytest.fixture
def dui_sp():
    return FusionQuery.from_strings("L", ["V = 'dui'", "V = 'sp'"])


class TestConstruction:
    def test_from_strings(self, dui_sp):
        assert dui_sp.arity == 2
        assert dui_sp.conditions[0] == Comparison("V", "=", "dui")

    def test_requires_conditions(self):
        with pytest.raises(QueryError):
            FusionQuery("L", ())

    def test_requires_merge_attribute(self):
        with pytest.raises(QueryError):
            FusionQuery("", (Comparison("V", "=", "x"),))

    def test_conditions_coerced_to_tuple(self):
        query = FusionQuery("L", [Comparison("V", "=", "x")])  # type: ignore[arg-type]
        assert isinstance(query.conditions, tuple)

    def test_name_not_part_of_equality(self):
        a = FusionQuery.from_strings("L", ["V = 'x'"], name="a")
        b = FusionQuery.from_strings("L", ["V = 'x'"], name="b")
        assert a == b


class TestValidation:
    def test_validate_against_schema_accepts_dmv(self, dui_sp):
        dui_sp.validate_against_schema(dmv_schema())

    def test_rejects_unknown_attribute(self):
        query = FusionQuery.from_strings("L", ["Z = 1"])
        with pytest.raises(Exception, match="unknown attributes"):
            query.validate_against_schema(dmv_schema())

    def test_rejects_wrong_merge_attribute(self):
        query = FusionQuery.from_strings("V", ["D = 1993"])
        with pytest.raises(QueryError, match="merge"):
            query.validate_against_schema(dmv_schema())

    def test_rejects_merge_attribute_not_in_schema(self):
        query = FusionQuery.from_strings("Z", ["D = 1993"])
        with pytest.raises(QueryError):
            query.validate_against_schema(dmv_schema())


class TestManipulation:
    def test_reorder(self, dui_sp):
        swapped = dui_sp.reorder([1, 0])
        assert swapped.conditions == (
            dui_sp.conditions[1],
            dui_sp.conditions[0],
        )

    def test_reorder_rejects_bad_permutation(self, dui_sp):
        with pytest.raises(QueryError):
            dui_sp.reorder([0, 0])

    def test_with_conditions(self, dui_sp):
        replacement = (parse_condition("D >= 1994"),)
        assert dui_sp.with_conditions(replacement).conditions == replacement


class TestRendering:
    def test_to_sql_two_conditions(self, dui_sp):
        assert dui_sp.to_sql() == (
            "SELECT u1.L FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        )

    def test_to_sql_single_condition(self):
        query = FusionQuery.from_strings("L", ["V = 'dui'"])
        assert query.to_sql() == "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'"

    def test_to_sql_parenthesises_an_or_condition(self):
        # The clauses are AND-ed: a bare OR would regroup with them.
        query = FusionQuery.from_strings(
            "L", ["(V = 'a' AND D > 1) OR V = 'c'", "V = 'b'"]
        )
        sql = query.to_sql()
        assert sql == (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND "
            "(u1.V = 'a' AND u1.D > 1 OR u1.V = 'c') AND u2.V = 'b'"
        )
        assert parse_query(sql) == query
        aggregate = AggregateQuery(
            fusion=query, specs=(AggregateSpec("count", None),), group_by=("V",)
        )
        assert parse_query(aggregate.to_sql()) == aggregate

    def test_to_sql_custom_view(self, dui_sp):
        assert "FROM DMV u1" in dui_sp.to_sql(view_name="DMV")

    def test_describe_lists_conditions(self, dui_sp):
        text = dui_sp.describe()
        assert "c1: V = 'dui'" in text
        assert "c2: V = 'sp'" in text

    def test_str(self, dui_sp):
        assert str(dui_sp) == "fuse[L](V = 'dui' AND V = 'sp')"

    def test_str_parenthesises_an_or_condition(self):
        query = FusionQuery.from_strings(
            "L", ["(V = 'a' AND D > 1) OR V = 'c'", "V = 'b'"]
        )
        assert str(query) == "fuse[L]((V = 'a' AND D > 1 OR V = 'c') AND V = 'b')"
