"""Unit tests for the columnar substrate: tables, masks, flags, set ops."""

from __future__ import annotations

import pytest

from repro.errors import ConditionError
from repro.relational import columnar
from repro.relational.columnar import (
    ColumnarTable,
    count_matching,
    difference_items,
    intersect_items,
    numpy_available,
    predicate_mask,
    select_items,
    semijoin_items,
    set_numpy_enabled,
    substrate_summary,
    table_for,
    union_items,
)
from repro.relational.parser import parse_condition
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema, dmv_schema

ROWS = [
    ("J55", "dui", 1993),
    ("T21", "sp", 1994),
    ("T80", "dui", 1993),
    ("S07", "park", 1990),
]


@pytest.fixture
def relation():
    return Relation("R", dmv_schema(), ROWS)


@pytest.fixture
def table(relation):
    return relation.columnar()


@pytest.fixture(params=[False, True], ids=["python", "numpy"])
def numpy_mode(request):
    if request.param and not numpy_available():
        pytest.skip("numpy not available")
    prev = set_numpy_enabled(request.param)
    yield request.param
    set_numpy_enabled(prev)


class TestColumnarTable:
    def test_columns_are_transposed(self, table):
        assert list(table.column("L")) == ["J55", "T21", "T80", "S07"]
        assert list(table.column("V")) == ["dui", "sp", "dui", "park"]
        assert list(table.column("D")) == [1993, 1994, 1993, 1990]
        assert table.length == 4

    def test_missing_column_is_none(self, table):
        assert table.column("nope") is None

    def test_merge_column(self, table):
        assert list(table.merge_column) == ["J55", "T21", "T80", "S07"]

    def test_cached_on_relation(self, relation):
        assert relation.columnar() is relation.columnar()

    def test_empty_relation(self):
        table = Relation("E", dmv_schema(), []).columnar()
        assert table.length == 0
        assert select_items(table, parse_condition("V = 'dui'")) == frozenset()


class TestSlicedNotTransposed:
    """A relation derived by a row mask slices the parent's cached
    columns with that mask; it never transposes the kept rows again."""

    @pytest.fixture
    def no_transposing(self, relation, monkeypatch):
        relation.columnar()

        def refuse(self, schema, rows):
            raise AssertionError("a derived relation's rows were transposed again")

        monkeypatch.setattr(ColumnarTable, "__init__", refuse)

    def test_restriction_slices_the_parent_columns(self, relation, no_transposing, numpy_mode):
        kept = relation.restrict_to_items({"J55", "S07", "nobody"})
        table = kept.columnar()
        assert table is kept.columnar() is table_for(kept)
        assert (table.length, table.well_formed, table.schema) == (2, True, relation.schema)
        assert table.column("V") == ["dui", "park"]
        assert table.merge_column == ["J55", "S07"]
        assert table.column("nope") is None
        assert kept.rows == (ROWS[0], ROWS[3])
        assert select_items(table, parse_condition("D >= 1991")) == frozenset({"J55"})

    def test_filter_slices_and_slices_compose(self, relation, no_transposing, numpy_mode):
        duis = relation.filter(lambda row: row["V"] == "dui")
        late = duis.restrict_to_items({"T80"})
        assert duis.columnar().column("L") == ["J55", "T80"]
        assert late.columnar().column("D") == [1993]
        assert count_matching(late.columnar(), parse_condition("V = 'dui'")) == 1
        assert relation.restrict_to_items(set()).columnar().column("L") == []

    def test_without_a_cached_parent_view_the_rows_are_transposed(self, relation):
        kept = relation.restrict_to_items({"T21"})
        assert kept.columnar().column("D") == [1994]

    def test_unchecked_parent_is_not_sliced(self):
        ragged = Relation.unchecked("bad", dmv_schema(), [ROWS[0], ("T21",)])
        assert not ragged.columnar().well_formed
        kept = ragged.restrict_to_items({"J55"})
        assert kept.columnar().well_formed and kept.columnar().column("V") == ["dui"]


class TestTableFor:
    def test_returns_view_when_enabled(self, relation):
        assert isinstance(table_for(relation), ColumnarTable)

    def test_ragged_relation_returns_none(self):
        ragged = Relation.unchecked(
            "bad", dmv_schema(), [("J55", "dui", 1993), ("T21",)]
        )
        assert table_for(ragged) is None


class TestPredicateMask:
    def test_comparison(self, table, numpy_mode):
        mask = predicate_mask(table, parse_condition("V = 'dui'"))
        assert list(mask) == [True, False, True, False]

    def test_and_or_not_are_mask_algebra(self, table, numpy_mode):
        cond = parse_condition("(V = 'dui' AND D >= 1993) OR NOT V = 'park'")
        expected = [True, True, True, False]
        assert list(predicate_mask(table, cond)) == expected

    def test_between(self, table, numpy_mode):
        mask = predicate_mask(table, parse_condition("D BETWEEN 1990 AND 1993"))
        assert list(mask) == [True, False, True, True]

    def test_in_set_and_like(self, table, numpy_mode):
        assert list(
            predicate_mask(table, parse_condition("V IN ('sp', 'park')"))
        ) == [False, True, False, True]
        assert list(
            predicate_mask(table, parse_condition("V LIKE 'd%'"))
        ) == [True, False, True, False]

    def test_missing_attribute_comparison_raises(self, table, numpy_mode):
        with pytest.raises(ConditionError):
            predicate_mask(table, parse_condition("ZZ = 'x'"))

    def test_count_matching(self, table, numpy_mode):
        assert count_matching(table, parse_condition("V = 'dui'")) == 2

    def test_nulls_never_match(self, numpy_mode):
        schema = Schema(
            (
                Attribute("L", DataType.STRING),
                Attribute("D", DataType.INT, nullable=True),
            ),
            merge_attribute="L",
        )
        relation = Relation("N", schema, [("a", 1), ("b", None), ("c", 3)])
        table = relation.columnar()
        assert list(predicate_mask(table, parse_condition("D >= 0"))) == [
            True,
            False,
            True,
        ]
        assert list(
            predicate_mask(table, parse_condition("D IS NULL"))
        ) == [False, True, False]

    def test_huge_int_literal_matches_python(self, numpy_mode):
        # Beyond 2**53 float64 rounds; the numpy path must not be used
        # (or must agree exactly) for such literals.
        schema = Schema(
            (
                Attribute("L", DataType.STRING),
                Attribute("D", DataType.INT),
            ),
            merge_attribute="L",
        )
        big = 2**53 + 1
        relation = Relation("B", schema, [("a", big), ("b", big - 1)])
        cond = parse_condition(f"D = {big}")
        assert select_items(relation.columnar(), cond) == frozenset({"a"})


class TestSemijoin:
    def test_probes_before_predicate(self, table, numpy_mode):
        result = semijoin_items(
            table, parse_condition("V = 'dui'"), frozenset({"J55", "S07"})
        )
        assert result == frozenset({"J55"})

    def test_empty_bindings(self, table, numpy_mode):
        assert (
            semijoin_items(table, parse_condition("V = 'dui'"), frozenset())
            == frozenset()
        )


class TestSetOps:
    def test_union(self):
        assert union_items(
            [frozenset("ab"), frozenset("bc"), frozenset()]
        ) == frozenset("abc")

    def test_union_empty(self):
        assert union_items([]) == frozenset()

    def test_intersect(self):
        assert intersect_items(
            [frozenset("abc"), frozenset("bcd"), frozenset("cbx")]
        ) == frozenset("bc")

    def test_intersect_empty_list_raises(self):
        with pytest.raises(ValueError):
            intersect_items([])

    def test_difference(self):
        assert difference_items(frozenset("abc"), frozenset("b")) == frozenset(
            "ac"
        )
        assert difference_items(frozenset("abc"), frozenset()) == frozenset(
            "abc"
        )


class TestSubstrateSummary:
    def test_mentions_state(self):
        assert "columnar substrate" in substrate_summary()

    def test_numpy_flag_roundtrip(self):
        prev = set_numpy_enabled(False)
        assert "python" in substrate_summary()
        set_numpy_enabled(prev)


class TestParityWithRowPath:
    CONDITIONS = [
        "V = 'dui'",
        "V != 'dui' AND D < 1994",
        "D BETWEEN 1991 AND 1994 OR V = 'park'",
        "V IN ('dui', 'sp') AND NOT D = 1993",
        "V LIKE '%u%'",
        "V IS NOT NULL",
    ]

    @pytest.mark.parametrize("text", CONDITIONS)
    def test_three_paths_agree(self, relation, text, numpy_mode):
        condition = parse_condition(text)
        columnar_result = select_items(relation.columnar(), condition)
        schema = relation.schema
        merge_pos = schema.merge_position
        row_result = frozenset(
            row[merge_pos]
            for row in relation
            if condition.evaluate(schema.row_to_dict(row))
        )
        assert columnar_result == row_result
