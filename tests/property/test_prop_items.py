"""Property tests: an ``ItemSet`` is indistinguishable from a ``frozenset``.

Items are drawn from ``str`` / ``int`` (interned, so their sets are
bitmaps) plus ``1``, ``1.0``, ``True`` and ``None`` — equal-but-distinct
keys and a non-internable one, which drive every operator and kernel
onto the ``frozenset`` fallback.  Whatever the kinds of the operands and
whichever kernels run, the results equal the ``frozenset`` computation,
down to which of several equal objects represents an item.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.columnar import (
    difference_items,
    intersect_items,
    numpy_available,
    select_items,
    semijoin_items,
    set_numpy_enabled,
    union_items,
)
from repro.relational.conditions import Comparison
from repro.relational.items import ItemSet, as_frozenset, items_of
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema

values = st.one_of(
    st.text(alphabet="abcxyz", max_size=3),
    st.integers(-40, 40),
    st.sampled_from([1, 1.0, True, None]),
)
value_lists = st.lists(values, max_size=12)
internable_lists = st.lists(st.one_of(st.text(alphabet="abc", max_size=3), st.integers(-9, 9)))

OVERRIDES = [None, False] + ([True] if numpy_available() else [])


def kept(items) -> list[tuple[str, str]]:
    """The items as (type, repr) — which object stands for each key."""
    return sorted((type(v).__name__, repr(v)) for v in items)


@settings(max_examples=80, deadline=None)
@given(internable_lists, internable_lists, values)
def test_the_set_protocol_matches_frozenset(left, right, probe):
    a, b = items_of(left), items_of(right)
    fa, fb = frozenset(left), frozenset(right)
    assert type(a) is ItemSet and type(b) is ItemSet
    assert len(a) == len(fa) and bool(a) == bool(fa)
    assert a == fa and fa == a and (a == b) == (fa == fb) and (a != b) == (fa != fb)
    assert hash(a) == hash(fa)
    assert (probe in a) == (probe in fa)
    assert kept(a) == kept(fa) and as_frozenset(a) == fa
    for x, y, fx, fy in ((a, b, fa, fb), (a, fb, fa, fb), (fa, b, fa, fb)):
        assert x | y == fx | fy and x & y == fx & fy and x - y == fx - fy and x ^ y == fx ^ fy
        assert (x <= y) == (fx <= fy) and (x < y) == (fx < fy)
        assert (x >= y) == (fx >= fy) and (x > y) == (fx > fy)
        assert x.isdisjoint(y) == fx.isdisjoint(fy)
    assert type(a | b) is type(a & b) is type(a - b) is ItemSet


@settings(max_examples=80, deadline=None)
@given(st.lists(value_lists, min_size=1, max_size=4))
def test_merges_keep_the_frozenset_representatives(lists):
    """Mixed kinds decode and run the ``frozenset`` operators, so which of
    ``1`` / ``1.0`` / ``True`` survives is the one it always was."""
    operands = [items_of(values) for values in lists]
    plain = [frozenset(values) for values in lists]
    largest = sorted(plain, key=len, reverse=True)
    assert kept(union_items(operands)) == kept(largest[0].union(*largest[1:]))
    smallest = sorted(plain, key=len)
    assert kept(intersect_items(operands)) == kept(smallest[0].intersection(*smallest[1:]))
    assert kept(difference_items(operands[0], operands[-1])) == kept(plain[0] - plain[-1])
    if all(type(s) is ItemSet for s in operands):
        assert type(union_items(operands)) is ItemSet


SCHEMA = Schema((Attribute("M"), Attribute("V", DataType.INT)), "M")


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(values, st.integers(0, 9)), max_size=90),
    limit=st.integers(0, 10),
    bindings=value_lists,
)
def test_kernels_answer_like_the_row_loop(rows, limit, bindings):
    condition = Comparison("V", "<", limit)
    selected = kept(frozenset(m for m, v in rows if v < limit))
    bound = kept(frozenset(m for m, v in rows if v < limit and m in frozenset(bindings)))
    for override in OVERRIDES:
        previous = set_numpy_enabled(override)
        try:
            table = Relation.unchecked("R", SCHEMA, rows).columnar()
            assert kept(select_items(table, condition)) == selected, override
            assert kept(semijoin_items(table, condition, items_of(bindings))) == bound, override
            assert kept(semijoin_items(table, condition, frozenset(bindings))) == bound, override
        finally:
            set_numpy_enabled(previous)
