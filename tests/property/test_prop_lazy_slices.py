"""Property tests: a relation cut by a mask is its rows, whenever they are read.

``restrict_to_items`` and ``filter`` return a relation that keeps its
parent and the mask, knows its length, and gathers its row tuples the
first time they are read.  Whatever is read first — ``len``, the rows,
``items()``, ``==``, a union, a derivation, a further slice, the GROUP
BY, a pickle — every answer equals a row loop over the parent, in order
and multiplicity, under every kernel override and binding kind.  An
unvalidated parent (``Relation.unchecked``, ragged or not) still has its
kept rows checked when the slice is cut.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.aggregates import finalize_partials, partial_aggregate_rows
from repro.relational.items import EMPTY_ITEMS, ItemSet, items_of
from repro.relational.relation import Relation

from tests.property.strategies import licenses
from tests.property.test_prop_columnar import (
    ALL_SPECS,
    NULLABLE_SCHEMA,
    _numpy,
    _numpy_modes,
    _oracle_aggregate,
    any_relations,
    ragged_rows,
)

READS = ("len", "rows", "items", "eq", "union", "derive", "slice", "aggregate", "pickle")


@st.composite
def parents(draw):
    """A validated relation, the same rows held unchecked, or ragged rows."""
    kind = draw(st.sampled_from(["checked", "unchecked", "ragged"]))
    if kind == "ragged":
        rows = draw(st.lists(ragged_rows, max_size=12))
        return Relation.unchecked("bad", NULLABLE_SCHEMA, rows)
    relation = draw(any_relations)
    if kind == "unchecked":
        return Relation.unchecked(relation.name, relation.schema, relation.rows)
    return relation


@st.composite
def bindings(draw, parent):
    """An item binding: some licenses or every merge value of ``parent``
    (possibly none), as an ``ItemSet`` bitmap or a ``frozenset``."""
    if draw(st.booleans()):
        values = [row[0] for row in parent.rows]
    else:
        values = draw(st.lists(licenses, max_size=5))
    if not values and draw(st.booleans()):
        return EMPTY_ITEMS
    bitmap = items_of(values)
    assert type(bitmap) is ItemSet
    return bitmap if draw(st.booleans()) else frozenset(values)


def _kept(parent, keep):
    """The row loop: ``parent``'s rows ``keep`` accepts, checked the way
    a first construction checks them when the parent is unvalidated."""
    rows = [row for row in parent.rows if keep(row)]
    if not parent._validated:
        for row in rows:
            parent.schema.validate_row(row)
    return rows


def _outcome(call):
    try:
        return call()
    except SchemaError:
        return SchemaError


def _check_read(read, got, expected, second):
    merge = got.schema.merge_position
    if read == "len":
        assert len(got) == len(expected)
    elif read == "rows":
        assert got.rows == tuple(expected)
        assert list(got) == expected
    elif read == "items":
        assert got.items() == frozenset(row[merge] for row in expected)
    elif read == "eq":
        assert got == Relation.unchecked("oracle", got.schema, expected)
    elif read == "union":
        assert Relation.union_all("u", [got, got]).rows == tuple(expected * 2)
    elif read == "derive":
        assert got.derive(got.rows[::-1]).rows == tuple(expected[::-1])
    elif read == "slice":
        again = got.restrict_to_items(second)
        assert len(again) == sum(row[merge] in second for row in expected)
        assert again.rows == tuple(row for row in expected if row[merge] in second)
    elif read == "aggregate":
        group_by = ("V",)
        fresh = Relation.unchecked("oracle", got.schema, expected)
        partials = partial_aggregate_rows(got, ALL_SPECS, group_by, items=second)
        assert list(partials.items()) == list(
            partial_aggregate_rows(fresh, ALL_SPECS, group_by, items=second).items()
        )
        grouped = finalize_partials(partials, ALL_SPECS, group_by)
        assert dict(grouped.groups) == _oracle_aggregate(fresh, group_by, second)
    else:
        restored = pickle.loads(pickle.dumps(got))
        assert len(restored) == len(expected)
        # The copy's columnar view is its own, built from its own rows.
        again = restored.restrict_to_items(second)
        assert again.rows == tuple(row for row in expected if row[merge] in second)
        assert restored.rows == tuple(expected)
        assert restored == got


def _check_slice(cut, expected, lazy, reads, second):
    got = _outcome(cut)
    assert (got is SchemaError) == (expected is SchemaError)
    if got is SchemaError:
        return
    if lazy:
        len(got)
        assert got._rows is None, "len() built the rows"
    for read in reads:
        _check_read(read, got, expected, second)
    assert got.rows == tuple(expected)
    assert len(got) == len(expected)


@settings(max_examples=150, deadline=None)
@given(st.data(), parents(), st.booleans(), st.permutations(READS))
def test_restriction_reads_like_the_row_loop(data, parent, warm, reads):
    wanted = data.draw(bindings(parent))
    second = data.draw(bindings(parent))
    merge = parent.schema.merge_position
    expected = _outcome(lambda: _kept(parent, lambda row: row[merge] in wanted))
    for override in _numpy_modes():
        with _numpy(override):
            if warm:
                parent.columnar()
            lazy = parent._validated
            _check_slice(lambda: parent.restrict_to_items(wanted), expected, lazy, reads, second)


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    parents(),
    st.booleans(),
    st.permutations(READS),
    st.sampled_from(["dui", "sp", "reckless"]),
)
def test_filter_reads_like_the_row_loop(data, parent, warm, reads, violation):
    second = data.draw(bindings(parent))
    schema = parent.schema

    def keep(row):
        return schema.row_to_dict(row).get("V") == violation

    expected = _outcome(lambda: _kept(parent, keep))
    for override in _numpy_modes():
        with _numpy(override):
            if warm:
                parent.columnar()
            lazy = parent._validated
            _check_slice(
                lambda: parent.filter(lambda record: record.get("V") == violation),
                expected,
                lazy,
                reads,
                second,
            )
