"""Item sets are bitmaps over one process-wide item dictionary.

``ItemIndex`` interns ``str`` / ``int`` items as dense ids; ``ItemSet``
is an int bitmap over it that behaves like the ``frozenset`` of its
items; merge values of any other type keep ``frozenset`` answers, and
the merge operators combine the two kinds by one rule.
"""

from __future__ import annotations

import pathlib
import pickle
import sys
import threading

import pytest

import repro
from repro.relational import algebra, columnar
from repro.relational.columnar import (
    difference_items,
    intersect_items,
    member_mask,
    numpy_available,
    select_items,
    semijoin_items,
    set_numpy_enabled,
    union_items,
)
from repro.relational.conditions import Comparison
from repro.relational.items import (
    EMPTY_ITEMS,
    INDEX,
    ItemIndex,
    ItemSet,
    as_frozenset,
    items_of,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema

OVERRIDES = [None, False] + ([True] if numpy_available() else [])


@pytest.fixture(params=OVERRIDES, ids=lambda o: f"numpy={o}")
def override(request):
    previous = set_numpy_enabled(request.param)
    yield request.param
    set_numpy_enabled(previous)


class TestItemIndex:
    def test_interns_str_and_int_only(self):
        index = ItemIndex()
        assert index.ids(["a", 7, "a", -3]) == [0, 1, 0, 2]
        assert index.values == ["a", 7, -3]
        for foreign in ([True], [1.0], [None], ["a", b"a"], [7, 7.0]):
            assert index.ids(foreign) is None
        assert len(index) == 3

    def test_lookups_follow_equality(self):
        # 1.0 and True *find* the id of 1 (as ``in`` on a frozenset does),
        # but are never interned themselves.
        index = ItemIndex()
        one = index.intern(1)
        assert index.get(1.0) == index.get(True) == one
        assert index.get("1") is None and index.values == [1]
        with pytest.raises(TypeError):
            index.intern(True)

    @pytest.mark.parametrize("round_", range(4))
    def test_concurrent_interning_gives_dense_unique_ids(self, round_):
        index = ItemIndex()
        values = [f"v{i}" for i in range(2_000)] + list(range(1_000))
        barrier = threading.Barrier(8)
        seen: list[dict] = []

        def hammer(offset: int) -> None:
            # Half the threads race through the values in the same order,
            # half in reverse: every value is contended.
            mine = values if offset % 2 else values[::-1]
            barrier.wait()
            seen.append({value: index.intern(value) for value in mine})

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(ids == seen[0] for ids in seen)
        assert sorted(seen[0].values()) == list(range(len(values))) == list(range(len(index)))
        assert all(
            index.values[i] == v and type(index.values[i]) is type(v)
            for v, i in seen[0].items()
        )


class TestItemSet:
    def test_behaves_like_the_frozenset_of_its_items(self):
        a, b = items_of(["x", "y", 3]), items_of(["y", 4])
        assert type(a) is ItemSet and a == {"x", "y", 3} and len(a) == 3
        assert a | b == {"x", "y", 3, 4} and a & b == {"y"} and a - b == {"x", 3}
        assert type(a | b) is type(a & b) is type(a - b) is ItemSet
        assert "x" in a and "z" not in a and 3.0 in a and True not in b
        assert hash(a) == hash(frozenset({"x", "y", 3}))
        assert a & b <= a < a | b and not a <= b and a.isdisjoint(items_of([9]))
        assert repr(a) == "ItemSet({'x', 'y', 3})" and repr(EMPTY_ITEMS) == "ItemSet()"

    def test_other_sets_decode_and_use_the_frozenset_operator(self):
        a = items_of(["x", 1])
        for result in (a | {1.0, 2.5}, {2.5} | a, a & frozenset({1.0}), {1.0, 7} - a):
            assert type(result) in (set, frozenset)
        assert a | {2.5} == {"x", 1, 2.5} and {True} & a == {True}
        assert frozenset({"x", 1}) == a and a != {"x"}

    def test_decodes_once(self):
        a = items_of(["p", "q"])
        assert a.decoded() is a.decoded() is as_frozenset(a)
        assert sorted(a) == ["p", "q"] and type(as_frozenset(a)) is frozenset

    @pytest.mark.parametrize("ids", [[0, 3, 3, 5], [2, 64, 63], [0, 70, 3, 70, 300]])
    def test_from_ids_and_flags_round_trip(self, ids):
        # Narrow bitmaps OR shifted ones, wide ones go through digits.
        chosen = ItemSet.from_ids(iter(ids), max(ids) + 1)
        assert len(chosen) == len(set(ids))
        flags = chosen.flags(max(ids) + 50)
        assert len(flags) == max(ids) + 50
        assert [i for i, flag in enumerate(flags) if flag] == sorted(set(ids))
        assert ItemSet.from_ids([], 0) == EMPTY_ITEMS == frozenset()
        assert ItemSet.from_ids([], 1000) == EMPTY_ITEMS

    def test_pickles_as_its_items(self):
        a = items_of(["pickled", 12])
        assert pickle.loads(pickle.dumps(a)) == a
        assert items_of([1.0, "x"]) == frozenset({1.0, "x"})
        assert type(items_of([1.0, "x"])) is frozenset


MIXED = Schema((Attribute("M", DataType.FLOAT), Attribute("V")), "M")


class TestFallback:
    """Merge values that are not ``str`` / ``int`` keep ``frozenset``
    answers with the representatives they always had."""

    @staticmethod
    def kept(result):
        return sorted((v, type(v).__name__) for v in result)

    def test_a_mixed_merge_column_answers_with_its_own_objects(self, override):
        rows = [(1.0, "a"), (1, "b"), (True, "a"), (2, "a"), (2.0, "b")]
        rows += [(float(10 + i), "z") for i in range(80)]
        table = Relation.unchecked("R", MIXED, rows).columnar()
        a, b = Comparison("V", "=", "a"), Comparison("V", "=", "b")
        assert type(select_items(table, a)) is frozenset
        assert self.kept(select_items(table, a)) == [(1.0, "float"), (2, "int")]
        bound = semijoin_items(table, b, items_of([1, 2]))
        assert self.kept(bound) == [(1, "int"), (2.0, "float")]
        assert self.kept(semijoin_items(table, a, frozenset({True}))) == [(1.0, "float")]

    def test_merging_bitmaps_with_frozensets(self, override):
        ints = Relation("I", MIXED, [(1, "a"), (2, "a"), (3, "b")]).columnar()
        floats = Relation("F", MIXED, [(1.0, "a"), (3.0, "a")]).columnar()
        a = Comparison("V", "=", "a")
        from_ints, from_floats = select_items(ints, a), select_items(floats, a)
        assert type(from_ints) is ItemSet and type(from_floats) is frozenset
        # The parent's rules: union keeps the largest operand's object,
        # intersection the smallest's, difference the left's.
        assert self.kept(union_items([from_floats, from_ints])) == [
            (1.0, "float"),
            (2, "int"),
            (3.0, "float"),
        ]
        assert self.kept(intersect_items([from_ints, from_floats])) == [(1.0, "float")]
        assert self.kept(difference_items(from_floats, from_ints)) == [(3.0, "float")]
        assert self.kept(difference_items(from_ints, from_floats)) == [(2, "int")]

    def test_a_null_among_string_merge_values_is_not_interned(self, override):
        schema = Schema((Attribute("M"), Attribute("V")), "M")
        table = Relation.unchecked("N", schema, [("a", "x"), (None, "x")] * 40).columnar()
        assert table.item_ids() is None
        assert select_items(table, Comparison("V", "=", "x")) == {"a", None}


class TestKernels:
    def test_string_merge_columns_answer_in_bitmaps(self, override):
        schema = Schema((Attribute("M"), Attribute("V", DataType.INT)), "M")
        relation = Relation("S", schema, [(f"k{i % 50}", i) for i in range(130)])
        table = relation.columnar()
        ids, bound = table.item_ids()
        assert [INDEX.values[i] for i in ids] == table.merge_column
        assert bound == max(ids) + 1
        low = select_items(table, Comparison("V", "<", 20))
        assert type(low) is ItemSet and low == {f"k{i}" for i in range(20)}
        wanted = items_of(["k3", "k7", "k23", "elsewhere"])
        assert list(member_mask(table, wanted)) == [row[0] in wanted for row in relation.rows]
        assert semijoin_items(table, Comparison("V", ">=", 100), wanted) == {"k3", "k7", "k23"}
        assert relation.restrict_to_items(wanted).rows == tuple(
            row for row in relation.rows if row[0] in {"k3", "k7", "k23"}
        )

    def test_set_operators_are_bitwise_on_bitmaps(self):
        a, b, c = items_of("abc"), items_of("bcd"), items_of("cx")
        assert union_items([a, b, c]) == set("abcdx") and type(union_items([a])) is ItemSet
        assert intersect_items([a, b, c]) == {"c"} and difference_items(a, b) == {"a"}
        assert union_items([]) == frozenset() and type(difference_items(a, b)) is ItemSet
        with pytest.raises(ValueError):
            intersect_items([])

    def test_the_algebra_item_type_is_the_bitmap(self):
        assert algebra.ItemSet is ItemSet and algebra.EMPTY_ITEMS is EMPTY_ITEMS
        root = pathlib.Path(repro.__file__).parent
        aliases = [p for p in root.rglob("*.py") if "ItemSet = frozenset" in p.read_text()]
        assert aliases == []
        assert columnar.EMPTY_ITEMS is EMPTY_ITEMS
