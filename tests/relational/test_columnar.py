"""Unit tests for the columnar substrate: tables, masks, flags, set ops."""

from __future__ import annotations

import pathlib
import re
from enum import IntEnum

import pytest

import repro
from repro.errors import ConditionError
from repro.relational import columnar
from repro.relational.columnar import (
    ColumnarTable,
    count_matching,
    difference_items,
    first_appearance,
    intersect_items,
    member_mask,
    numpy_available,
    predicate_mask,
    select_items,
    select_row_tuples,
    semijoin_items,
    set_numpy_enabled,
    substrate_summary,
    table_for,
    union_items,
)
from repro.relational.conditions import Between, Comparison, InSet, IsNull, Like
from repro.relational.items import ItemSet
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

    def test_trailing_nul_is_part_of_the_string(self, numpy_mode):
        # A numpy unicode array strips trailing NULs, so a ``<U`` mirror
        # answered ``V = 'a'`` with the row holding ``'a\x00'`` too: a
        # spurious tuple, which the paper's contract never allows.
        schema = Schema((Attribute("M"), Attribute("V")), "M")
        relation = Relation("R", schema, [("x", "a\x00"), ("y", "a")])
        table = relation.columnar()
        assert select_items(table, Comparison("V", "=", "a")) == {"y"}
        assert select_items(table, Comparison("V", "!=", "a")) == {"x"}
        assert select_items(table, Comparison("V", ">", "a")) == {"x"}
        assert select_items(table, Between("V", "a", "a")) == {"y"}
        assert select_items(table, InSet("V", ["a"])) == {"y"}
        assert semijoin_items(table, Comparison("V", "=", "a"), frozenset("xy")) == {"y"}

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


    def test_operands_that_are_sets_are_not_copied_in_and_out(self):
        big, small = frozenset(range(100)), frozenset(range(5))
        assert type(union_items([small, big])) is frozenset
        assert type(intersect_items([{1, 2}, {2, 3}])) is frozenset
        assert type(difference_items({1, 2}, [2])) is frozenset
        assert union_items(iter([[1, 2], (2, 3)])) == {1, 2, 3}
        assert intersect_items(iter([[1, 2], (2, 3)])) == {2}
        assert difference_items([1, 2, 3], iter([2])) == {1, 3}

    def test_surviving_representative_of_equal_keys(self):
        # 1 == 1.0 == True hash alike; which object a merge keeps is
        # observable.  These are the answers of the copy-in / copy-out
        # operators this module had before.
        def kept(result):
            return sorted((type(v).__name__, v) for v in result)

        # Union: the largest operand's; among equals, the first's.
        assert kept(union_items([{1.0}, {1, 2}])) == [("int", 1), ("int", 2)]
        assert kept(union_items([{True}, {1.0}, {1}])) == [("bool", True)]
        # Intersection: the smallest operand's; among equals, the last's.
        assert kept(intersect_items([{1, 2, 3}, {1.0}])) == [("float", 1.0)]
        assert kept(intersect_items([{1.0}, {1, 2}, {True, 5, 6}])) == [("float", 1.0)]
        assert kept(intersect_items([{1}, {1.0}])) == [("float", 1.0)]
        assert kept(intersect_items([{1}, {1.0}, {True}])) == [("bool", True)]
        # Difference: always the left's.
        assert kept(difference_items({1.0, 2}, {2.0})) == [("float", 1.0)]
        assert kept(difference_items({1, 2, 3, 4, 5, 6, 7, 8.0}, {3.0})) == [
            ("float", 8.0),
            *(("int", v) for v in (1, 2, 4, 5, 6, 7)),
        ]


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


# ---------------------------------------------------------------------------
# The dictionary encoding, the object gather and the size rule

STRING_SCHEMA = Schema(
    (
        Attribute("L", DataType.STRING),
        Attribute("V", DataType.STRING, nullable=True),
        Attribute("D", DataType.INT, nullable=True),
    ),
    merge_attribute="L",
)

OVERRIDES = [None, False] + ([True] if numpy_available() else [])


class Grade(IntEnum):
    A = 1
    B = 2


def _string_relation(n: int) -> Relation:
    """``n`` rows over ``n // 3 + 1`` licenses.  Every license string is
    its own object, so which row's object represents an item shows."""
    values = ["dui", "sp", None, "park", "dui\x00"]
    rows = [
        ("".join(["L", str(i % (n // 3 + 1))]), values[i % 5], 1990 + i % 7 if i % 4 else None)
        for i in range(n)
    ]
    return Relation("S", STRING_SCHEMA, rows)


def _outcome(call):
    try:
        return call()
    except ConditionError as exc:
        return str(exc)


def _identities(result):
    if isinstance(result, (frozenset, list, ItemSet)):
        return [id(value) for value in result]
    return result


def _leaves(attribute: str):
    return [
        Comparison(attribute, "=", "dui"),
        Comparison(attribute, "!=", "dui"),
        Comparison(attribute, "<", "park"),
        Comparison(attribute, ">=", "dui"),
        Comparison(attribute, "=", 7),
        Between(attribute, "dui", "park"),
        InSet(attribute, ["sp", "park", 3]),
        Like(attribute, "d%"),
        Like(attribute, "%"),
        IsNull(attribute),
        IsNull(attribute, negated=True),
    ]


class TestKernelChoiceBySize:
    """Short tables run the python kernels, long ones numpy's; a forced
    override runs one kind at every size.  Nothing observable — answers,
    the object standing for an item, the order a set iterates in —
    depends on which ran."""

    SIZES = [0, 1, 5] + [columnar._NUMPY_MIN_ROWS + d for d in (-1, 0, 1)] + [200]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("attribute", ["V", "ZZ"])
    def test_every_leaf_kind_agrees_across_overrides(self, n, attribute):
        relation = _string_relation(n)
        table = relation.columnar()
        wanted = frozenset(f"L{i}" for i in range(0, n, 2))
        for leaf in _leaves(attribute):
            condition = leaf & Comparison("D", ">=", 1991) if n % 2 else leaf
            calls = [
                lambda: select_items(table, condition),
                lambda: semijoin_items(table, condition, wanted),
                lambda: select_row_tuples(table, relation.rows, condition),
                lambda: count_matching(table, condition),
            ]
            seen = []
            for override in OVERRIDES:
                prev = set_numpy_enabled(override)
                try:
                    outcomes = [_outcome(call) for call in calls]
                finally:
                    set_numpy_enabled(prev)
                seen.append((outcomes, [_identities(o) for o in outcomes]))
            assert all(other == seen[0] for other in seen[1:]), (n, str(condition))
            items, bound, rows, count = seen[0][0]
            if isinstance(leaf, Comparison) and attribute == "ZZ":
                # A binding set nothing matches never reaches the predicate.
                assert items == rows == count == "row lacks attribute 'ZZ'"
                assert bound == (items if n else frozenset())
            else:
                assert count == len(rows) and items == {row[0] for row in rows}
                assert bound == items & wanted

    @pytest.mark.skipif(not numpy_available(), reason="numpy not available")
    def test_the_default_picks_the_kernels_by_table_length(self):
        import numpy

        condition = Comparison("V", "=", "dui")
        limit = columnar._NUMPY_MIN_ROWS
        for n, expected in [(limit - 1, list), (limit, numpy.ndarray)]:
            table = _string_relation(n).columnar()
            assert type(predicate_mask(table, condition)) is expected
            assert type(member_mask(table, frozenset({"L1"}))) is expected
            for override, forced in ((True, numpy.ndarray), (False, list)):
                prev = set_numpy_enabled(override)
                try:
                    assert type(predicate_mask(table, condition)) is forced
                    assert type(member_mask(table, frozenset({"L1"}))) is forced
                finally:
                    set_numpy_enabled(prev)

    def test_the_size_constant_is_private_and_defined_once(self):
        source = "".join(
            path.read_text() for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
        )
        assert len(re.findall(r"^_NUMPY_MIN_ROWS = ", source, flags=re.M)) == 1
        assert len(re.findall(r"^_INDEX_MIN_ROWS = ", source, flags=re.M)) == 1
        assert len(re.findall(r"^_BITMAP_BITS = ", source, flags=re.M)) == 1
        assert not any("MIN_ROWS" in name for name in repro.relational.__all__)
        assert not any("BITMAP" in name for name in repro.relational.__all__)


INDEXED_SCHEMA = Schema(
    (
        Attribute("L"),
        Attribute("V"),
        Attribute("D", DataType.INT),
        Attribute("F", DataType.FLOAT),
        Attribute("N", DataType.STRING, nullable=True),
    ),
    merge_attribute="L",
)


def _indexed_relation(n: int) -> Relation:
    rows = [
        (f"L{i % 997}", ("dui", "sp", "park")[i % 3], 1990 + i % 11, i / 4, None if i % 5 else "x")
        for i in range(n)
    ]
    return Relation("X", INDEXED_SCHEMA, rows)


@pytest.mark.skipif(not numpy_available(), reason="numpy not available")
class TestValueIndexChosenBySizeAndColumnKind:
    """A one-attribute leaf over a null-free string or int column of a
    source table reads no row mask.  The index's bitmap form answers
    comparisons, BETWEEN and IN at any length when the column's distinct
    values × item bound fit in ``_BITMAP_BITS``; its slice form answers
    every leaf kind from ``_INDEX_MIN_ROWS`` rows on.  Everything else —
    shorter tables the bitmap form does not answer for, boolean
    structure, float and null-holding columns, slices, merge values
    without item ids — masks the rows as before."""

    LIMIT = columnar._INDEX_MIN_ROWS

    @pytest.fixture
    def masked(self, monkeypatch):
        """The lengths of the tables a row mask was built or read over."""
        lengths = []

        def recording(name):
            kernel = getattr(columnar, name)

            def record(table, *args):
                lengths.append(table.length)
                return kernel(table, *args)

            monkeypatch.setattr(columnar, name, record)

        for name in ("predicate_mask", "_selected_items", "member_mask"):
            recording(name)
        prev = set_numpy_enabled(None)
        yield lengths
        set_numpy_enabled(prev)

    @pytest.fixture
    def budget(self, monkeypatch):
        """Set the bitmap form's bit budget (an index built later reads it)."""
        return lambda bits: monkeypatch.setattr(columnar, "_BITMAP_BITS", bits)

    def _answers(self, relation, condition):
        table = relation.columnar()
        items = relation.items()
        return [
            select_items(table, condition),
            semijoin_items(table, condition, items),
            semijoin_items(table, condition, frozenset(items)),
        ]

    @pytest.mark.parametrize(
        "condition",
        [
            Comparison("V", "=", "sp"),
            Comparison("D", "<", 1995),
            Between("D", 1992, 1994),
            InSet("V", ["dui", "nobody"]),
            Like("V", "p%"),
            IsNull("D", negated=True),
        ],
        ids=str,
    )
    def test_a_leaf_over_a_long_table_reads_no_row_mask(self, masked, budget, condition):
        budget(-1)  # no bitmap form: the slice form alone, by table length
        relation = _indexed_relation(self.LIMIT)
        answers = self._answers(relation, condition)
        assert masked == []
        short = _indexed_relation(self.LIMIT - 1)
        self._answers(short, condition)
        assert set(masked) == {self.LIMIT - 1}
        expected = frozenset(
            row[0] for row in relation.rows if condition.evaluate(INDEXED_SCHEMA.row_to_dict(row))
        )
        assert answers == [expected] * 3

    @pytest.mark.parametrize(
        "condition, answered",
        [
            (Comparison("V", "=", "sp"), True),
            (Comparison("V", "!=", "sp"), True),
            (Comparison("D", "<", 1995), True),
            (Comparison("D", ">=", 1994.5), True),
            (Between("D", 1992, 1994), True),
            (InSet("V", ["dui", "nobody"]), True),
            (InSet("D", [1991, 1991.0, True, "1991"]), True),
            # What the bitmap form leaves to the row masks on a short table.
            (Like("V", "p%"), False),
            (IsNull("D", negated=True), False),
            (Comparison("D", "<", True), False),
            (Comparison("D", "<", float("nan")), False),
            (Comparison("V", "<", 3), False),
            (Between("D", "a", 1994), False),
        ],
        ids=str,
    )
    def test_a_short_table_answers_from_its_bitmaps(self, masked, budget, condition, answered):
        budget(2**40)
        relation = _indexed_relation(100)
        answers = self._answers(relation, condition)
        assert (masked == []) == answered, masked
        expected = frozenset(
            row[0] for row in relation.rows if condition.evaluate(INDEXED_SCHEMA.row_to_dict(row))
        )
        assert answers == [expected] * 3

    def test_the_bitmap_form_is_kept_where_values_times_bound_fit(self, masked, budget):
        table = _indexed_relation(100).columnar()
        table.value_index("V")  # interns the items: the bound is known from here on
        bits = 11 * table.np_item_ids()[1]  # D holds 11 distinct values
        for fits, limit in ((True, bits), (False, bits - 1)):
            budget(limit)
            table = _indexed_relation(100).columnar()
            index = table.value_index("D")
            assert len(index.values) * index.bound == bits
            assert (index.bitmaps is not None) == fits
            select_items(table, Comparison("D", "<", 1995))
            assert masked == ([] if fits else [100, 100]), masked
            masked.clear()

    @pytest.mark.parametrize(
        "condition",
        [
            Comparison("V", "=", "sp") & Comparison("D", "<", 1995),
            Comparison("V", "=", "sp") | Comparison("D", "<", 1995),
            ~Comparison("V", "=", "sp"),
            Comparison("F", "<", 100.0),
            Comparison("N", "=", "x"),
        ],
        ids=str,
    )
    def test_structure_floats_and_nulls_mask_the_rows(self, masked, condition):
        self._answers(_indexed_relation(self.LIMIT), condition)
        assert masked.count(self.LIMIT) >= 3

    def test_a_slice_masks_its_rows(self, masked):
        relation = _indexed_relation(2 * self.LIMIT + 4)
        relation.columnar()
        kept = relation.filter(Comparison("F", ">=", 1.0).evaluate)
        assert len(kept) >= self.LIMIT and kept.columnar()._slice_of is not None
        self._answers(kept, Comparison("V", "=", "sp"))
        assert masked.count(len(kept)) >= 3

    def test_merge_values_without_item_ids_mask_the_rows(self, masked):
        schema = Schema((Attribute("K", DataType.FLOAT), Attribute("V")), "K")
        rows = [(i / 2, ("dui", "sp")[i % 2]) for i in range(self.LIMIT)]
        relation = Relation("K", schema, rows)
        assert select_items(relation.columnar(), Comparison("V", "=", "sp")) == {
            i / 2 for i in range(1, self.LIMIT, 2)
        }
        assert masked == [self.LIMIT, self.LIMIT]


@pytest.mark.skipif(not numpy_available(), reason="numpy not available")
class TestEncoding:
    @pytest.fixture(autouse=True)
    def numpy_everywhere(self):
        prev = set_numpy_enabled(True)
        yield
        set_numpy_enabled(prev)

    def test_distinct_values_in_first_appearance_order(self):
        table = _string_relation(12).columnar()
        index, codes = table.encoded("V")
        assert list(index) == ["dui", "sp", None, "park", "dui\x00"]
        assert list(index.values()) == [0, 1, 2, 3, 4]
        assert codes.tolist() == [i % 5 for i in range(12)]
        assert codes.dtype.itemsize == 1

    def test_codes_use_the_narrowest_dtype_that_fits(self):
        rows = [(f"L{i}", None, None) for i in range(300)]
        _, codes = Relation("W", STRING_SCHEMA, rows).columnar().encoded("L")
        assert codes.dtype.itemsize == 2 and codes.tolist() == list(range(300))

    def test_built_once_and_reused(self, monkeypatch):
        table = _string_relation(90).columnar()
        built = []
        build = ColumnarTable._build_encoded
        monkeypatch.setattr(
            ColumnarTable,
            "_build_encoded",
            lambda self, name: built.append(name) or build(self, name),
        )
        condition = Comparison("V", "=", "dui")
        for i in range(100):
            semijoin_items(table, condition, frozenset({f"L{i % 31}", "nobody"}))
        assert sorted(built) == ["L", "V"]
        assert table.encoded("L") is table.encoded("L")
        assert table.merge_objects() is table.merge_objects()

    def test_a_sliced_table_encodes_its_own_slice(self):
        relation = _string_relation(20)
        relation.columnar().encoded("V")
        kept = relation.restrict_to_items({"L1", "L3"})
        index, codes = kept.columnar().encoded("V")
        assert list(index) == list(dict.fromkeys(row[1] for row in kept.rows))
        assert index is not relation.columnar().encoded("V")[0]
        assert [list(index)[code] for code in codes.tolist()] == [row[1] for row in kept.rows]

    @pytest.mark.parametrize("space", [3, 1000])
    def test_first_appearance_by_first_positions_and_by_sorting(self, space):
        import numpy

        codes = numpy.array([2, 0, 2, 1, 0], dtype=numpy.uint16)
        order, dense = first_appearance(codes, space)
        assert order.tolist() == [2, 0, 1]
        assert dense.tolist() == [0, 1, 0, 2, 1] and dense.dtype == numpy.uint8

    def test_only_exact_string_or_int_columns_are_encoded(self):
        schema = Schema((Attribute("L"), Attribute("X"), Attribute("U")), "L")
        mixed = Relation.unchecked("M", schema, [("a", "x", []), ("b", 1, "u"), ("c", "x", "u")])
        table = mixed.columnar()
        assert table.encoded("X") is None and table.np_column("X") is None
        assert table.encoded("U") is None  # unhashable: not our problem to raise
        assert table.encoded("nope") is None
        # ... and such a column's leaves still run, per row, on the python kernel.
        assert select_items(table, Comparison("X", "=", "x")) == {"a", "c"}
        assert select_items(table, Comparison("X", "=", 1)) == {"b"}
        assert select_items(table, InSet("X", ["x", 1])) == {"a", "b", "c"}
        index, codes = _string_relation(5).columnar().encoded("D")
        assert list(index) == [None, 1991, 1992, 1993] and codes.tolist() == [0, 1, 2, 3, 0]
        # 1, 1.0 and True are equal: a float, a bool or an int subclass
        # would share a code with an int, so such a column has none.
        for odd in (1.0, True, Grade.B):
            rows = [("a", 1, "u"), ("b", odd, "u"), ("c", 2, "u")]
            assert Relation.unchecked("M", schema, rows).columnar().encoded("X") is None

    def test_string_columns_have_no_numpy_mirror(self):
        table = _string_relation(12).columnar()
        assert table.np_column("V") is None and table.np_column("L") is None
        assert table.np_column("D")[0] == "num"
        source = pathlib.Path(columnar.__file__).read_text()
        assert "dtype=str" not in source and '"str"' not in source


class TestRepresentatives:
    """A merge column holding ``1``, ``1.0`` and ``True`` in different
    rows: the first qualifying row's object stands for the item."""

    SCHEMA = Schema((Attribute("M", DataType.FLOAT), Attribute("V")), "M")
    ROWS = [(1.0, "a"), (1, "b"), (True, "a"), (2, "a"), (2.0, "b"), (1, "a")]

    @pytest.mark.parametrize("override", OVERRIDES)
    @pytest.mark.parametrize("pad", [0, 100])
    def test_first_qualifying_row_represents_the_item(self, override, pad):
        rows = self.ROWS + [(float(10 + i), "z") for i in range(pad)]
        table = Relation.unchecked("R", self.SCHEMA, rows).columnar()

        def kept(result):
            return sorted((v, type(v).__name__) for v in result)

        prev = set_numpy_enabled(override)
        try:
            a, b = Comparison("V", "=", "a"), Comparison("V", "=", "b")
            assert kept(select_items(table, a)) == [(1.0, "float"), (2, "int")]
            assert kept(select_items(table, b)) == [(1, "int"), (2.0, "float")]
            assert kept(semijoin_items(table, a, frozenset({True}))) == [(1.0, "float")]
            both = frozenset({1.0, 2})
            assert kept(semijoin_items(table, b, both)) == [(1, "int"), (2.0, "float")]
            assert kept(semijoin_items(table, b, frozenset({3}))) == []
        finally:
            set_numpy_enabled(prev)


class TestMemberMask:
    def test_the_membership_probe_is_written_once(self):
        root = pathlib.Path(repro.__file__).parent
        probes = {
            str(path.relative_to(root)): len(
                re.findall(r"in (?:wanted|items) for", path.read_text())
            )
            for path in root.rglob("*.py")
        }
        assert {name: n for name, n in probes.items() if n} == {"relational/columnar.py": 1}

    @pytest.mark.parametrize("override", OVERRIDES)
    @pytest.mark.parametrize("n", [5, 200])
    def test_both_probe_directions_and_the_callers(self, override, n):
        relation = _string_relation(n)
        everyone = sorted(relation.items())
        prev = set_numpy_enabled(override)
        try:
            for wanted in (frozenset(), frozenset(everyone[:2]), frozenset(everyone) | {"nobody"}):
                expected = [row[0] in wanted for row in relation.rows]
                assert list(member_mask(relation.columnar(), wanted)) == expected
                kept = relation.restrict_to_items(wanted)
                survivors = [row for row, keep in zip(relation.rows, expected) if keep]
                assert len(kept.rows) == len(survivors)
                assert all(a is b for a, b in zip(kept.rows, survivors))
        finally:
            set_numpy_enabled(prev)

    @pytest.mark.parametrize("override", OVERRIDES)
    def test_a_merge_column_without_a_dictionary_is_probed_row_by_row(self, override):
        schema = Schema((Attribute("M", DataType.FLOAT), Attribute("V")), "M")
        relation = Relation("I", schema, [(float(i % 40), "a") for i in range(100)])
        prev = set_numpy_enabled(override)
        try:
            assert relation.columnar().encoded("M") is None
            assert semijoin_items(
                relation.columnar(), Comparison("V", "=", "a"), frozenset({3, 39.0, 77})
            ) == {3.0, 39.0}
        finally:
            set_numpy_enabled(prev)
