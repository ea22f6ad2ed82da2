"""Property tests: the columnar substrate is invisible to semantics.

Every vectorized kernel — predicate masks, semijoin probes, hash set
operators, decomposable aggregates — must return exactly what the seed's
row-at-a-time evaluation returns, for arbitrary relations and
conditions, with and without the numpy fast path.  The oracles here are
deliberately independent reimplementations (a dict per row, set ops in
arrival order), not calls back into the code under test.
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import IntEnum

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConditionError
from repro.relational import columnar
from repro.relational.aggregates import (
    AggregateSpec,
    finalize_partials,
    merge_partials,
    partial_aggregate_rows,
)
from repro.relational.algebra import (
    difference,
    intersect_many,
    select_items,
    select_rows,
    semijoin_items,
    union_many,
)
from repro.relational.conditions import Comparison
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema

from tests.property.strategies import dmv_conditions, dmv_relations, licenses

# --- a nullable variant of the DMV schema (dmv_schema has no nullable
# columns, so the null-handling kernels would otherwise go untested) ---

NULLABLE_SCHEMA = Schema(
    (
        Attribute("L", DataType.STRING),
        Attribute("V", DataType.STRING, nullable=True),
        Attribute("D", DataType.INT, nullable=True),
    ),
    merge_attribute="L",
)

# The NUL-suffixed strings are the ones a numpy unicode array cannot
# tell from their prefix (it strips trailing NULs); conditions draw the
# plain spellings, so a kernel that conflates the two returns a spurious
# tuple here.
_violations = st.sampled_from(
    ["dui", "sp", "reckless", "parking", "dui\x00", "sp\x00\x00", "\x00"]
)
_years = st.integers(min_value=1988, max_value=1998)

nullable_rows = st.tuples(
    licenses,
    st.one_of(_violations, st.none()),
    st.one_of(_years, st.none()),
)


@st.composite
def nullable_relations(draw, name="N"):
    rows = draw(st.lists(nullable_rows, max_size=25))
    return Relation(name, NULLABLE_SCHEMA, rows)


any_relations = st.one_of(dmv_relations(), nullable_relations())

item_sets = st.lists(
    st.lists(licenses, max_size=6).map(frozenset), max_size=5
)


@contextmanager
def _numpy(flag: bool | None):
    prev = columnar.set_numpy_enabled(flag)
    try:
        yield
    finally:
        columnar.set_numpy_enabled(prev)


def _numpy_modes():
    """Python kernels, the default (kernels chosen by table length) and,
    with numpy, its kernels at every size."""
    modes = [False, None]
    if columnar.numpy_available():
        modes.append(True)
    return modes


# --- independent row-at-a-time oracles -----------------------------------


def _oracle_rows(relation, condition):
    schema = relation.schema
    return [
        row for row in relation if condition.evaluate(schema.row_to_dict(row))
    ]


def _oracle_items(relation, condition):
    merge_pos = relation.schema.merge_position
    return frozenset(row[merge_pos] for row in _oracle_rows(relation, condition))


def _oracle_semijoin(relation, condition, wanted):
    return frozenset(
        item for item in _oracle_items(relation, condition) if item in wanted
    )


# --- filter / scan / semijoin --------------------------------------------


@settings(max_examples=120, deadline=None)
@given(any_relations, dmv_conditions)
@example(
    Relation("N", NULLABLE_SCHEMA, [("J55", "dui\x00", None), ("T21", "dui", 1990)]),
    Comparison("V", "<=", "dui"),
)
def test_filter_matches_row_oracle(relation, condition):
    expected = _oracle_items(relation, condition)
    matching = len(_oracle_rows(relation, condition))
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            assert select_items(relation, condition) == expected
            assert columnar.count_matching(relation.columnar(), condition) == matching


@settings(max_examples=80, deadline=None)
@given(any_relations, dmv_conditions)
def test_scan_matches_row_oracle(relation, condition):
    expected = _oracle_rows(relation, condition)
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            assert select_rows(relation, condition) == expected


@settings(max_examples=80, deadline=None)
@given(any_relations, dmv_conditions, st.lists(licenses, max_size=5))
def test_semijoin_matches_row_oracle(relation, condition, wanted_list):
    wanted = frozenset(wanted_list)
    expected = _oracle_semijoin(relation, condition, wanted)
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            assert semijoin_items(relation, condition, wanted) == expected


# --- the one remaining row path: ragged payloads ---------------------------

# A fault-injected payload: rows cut short (down to the merge attribute
# alone) or carrying a stray extra value.
ragged_rows = st.one_of(
    st.tuples(licenses),
    st.tuples(licenses, _violations),
    st.tuples(licenses, _violations, _years),
    st.tuples(licenses, _violations, _years, _years),
)


def _outcome(call):
    """The call's result, or the ConditionError text it raised (a
    Comparison on an attribute the short row lacks)."""
    try:
        return call()
    except ConditionError as exc:
        return str(exc)


def _oracle_ragged_semijoin(relation, condition, wanted):
    # Membership first: a row outside the binding set never sees the
    # predicate, so it cannot raise for an attribute it lacks.
    schema = relation.schema
    merge_pos = schema.merge_position
    return frozenset(
        row[merge_pos]
        for row in relation
        if row[merge_pos] in wanted
        and condition.evaluate(schema.row_to_dict(row))
    )


@settings(max_examples=120, deadline=None)
@given(
    st.lists(ragged_rows, max_size=12),
    dmv_conditions,
    st.lists(licenses, max_size=5),
)
def test_ragged_relation_matches_row_oracle(rows, condition, wanted_list):
    relation = Relation.unchecked("bad", NULLABLE_SCHEMA, rows)
    wanted = frozenset(wanted_list)
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            assert _outcome(
                lambda: select_rows(relation, condition)
            ) == _outcome(lambda: _oracle_rows(relation, condition))
            assert _outcome(
                lambda: select_items(relation, condition)
            ) == _outcome(lambda: _oracle_items(relation, condition))
            assert _outcome(
                lambda: semijoin_items(relation, condition, wanted)
            ) == _outcome(
                lambda: _oracle_ragged_semijoin(relation, condition, wanted)
            )


# --- hash set operators ---------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(item_sets)
def test_union_matches_frozenset_oracle(sets):
    expected = frozenset().union(*sets) if sets else frozenset()
    assert union_many(sets) == expected


@settings(max_examples=100, deadline=None)
@given(item_sets)
def test_intersect_matches_frozenset_oracle(sets):
    if not sets:
        import pytest

        with pytest.raises(ValueError):
            intersect_many(sets)
        return
    expected = sets[0]
    for s in sets[1:]:
        expected &= s
    assert intersect_many(sets) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(licenses, max_size=8).map(frozenset),
    st.lists(licenses, max_size=8).map(frozenset),
)
def test_difference_matches_frozenset_oracle(left, right):
    assert difference(left, right) == left - right


# --- decomposable aggregates ---------------------------------------------

ALL_SPECS = (
    AggregateSpec("count"),
    AggregateSpec("count", "D"),
    AggregateSpec("sum", "D"),
    AggregateSpec("avg", "D"),
    AggregateSpec("min", "D"),
    AggregateSpec("max", "D"),
)


def _oracle_aggregate(relation, group_by, items=None):
    """COUNT(*), COUNT(D), SUM(D), AVG(D), MIN(D), MAX(D) by hand."""
    schema = relation.schema
    merge = schema.merge_attribute
    grouped = {}
    for row in relation:
        record = schema.row_to_dict(row)
        if items is not None and record[merge] not in items:
            continue
        key = tuple(record[a] for a in group_by)
        bucket = grouped.setdefault(key, [])
        bucket.append(record["D"])
    out = {}
    for key, values in grouped.items():
        present = [v for v in values if v is not None]
        out[key] = (
            len(values),
            len(present),
            sum(present) if present else None,
            sum(present) / len(present) if present else None,
            min(present) if present else None,
            max(present) if present else None,
        )
    return out


@settings(max_examples=100, deadline=None)
@given(
    nullable_relations(),
    st.sampled_from([(), ("V",), ("V", "D")]),
    st.one_of(st.none(), st.lists(licenses, max_size=5).map(frozenset)),
)
def test_aggregates_match_row_oracle(relation, group_by, items):
    expected = _oracle_aggregate(relation, group_by, items)
    grouped = finalize_partials(
        partial_aggregate_rows(relation, ALL_SPECS, group_by, items=items),
        ALL_SPECS,
        group_by,
    )
    assert dict(grouped.groups) == expected


@settings(max_examples=80, deadline=None)
@given(nullable_relations(), st.integers(min_value=1, max_value=24))
def test_partial_merge_equals_whole(relation, split):
    """Aggregating partitions then merging == aggregating the whole.

    This is the decomposability property partial-aggregate pushdown
    rests on: each source computes partials over its own rows and the
    mediator merges them in a fixed order.
    """
    group_by = ("V",)
    rows = list(relation.rows)
    left = Relation("A", relation.schema, rows[:split])
    right = Relation("B", relation.schema, rows[split:])
    merged = merge_partials(
        partial_aggregate_rows(left, ALL_SPECS, group_by),
        partial_aggregate_rows(right, ALL_SPECS, group_by),
        ALL_SPECS,
    )
    whole = partial_aggregate_rows(relation, ALL_SPECS, group_by)
    assert finalize_partials(merged, ALL_SPECS, group_by) == finalize_partials(
        whole, ALL_SPECS, group_by
    )


# --- validated once, sliced not transposed: one answer by every route -----

_group_bys = st.sampled_from([(), ("V",), ("V", "D")])


def _routes(relation, group_by, items, warm):
    """The same rows reached three ways: a restriction of ``relation``
    (a column slice when the parent's view is cached — ``warm``), the
    pushdown mask (``items=``), and a relation built from scratch."""
    if warm:
        relation.columnar()
    merge_pos = relation.schema.merge_position
    kept = [row for row in relation.rows if row[merge_pos] in items]
    return (
        partial_aggregate_rows(relation.restrict_to_items(items), ALL_SPECS, group_by),
        partial_aggregate_rows(relation, ALL_SPECS, group_by, items=items),
        partial_aggregate_rows(
            Relation(relation.name, relation.schema, kept), ALL_SPECS, group_by
        ),
    )


@settings(max_examples=100, deadline=None)
@given(
    nullable_relations(),
    _group_bys,
    st.lists(licenses, max_size=5).map(frozenset),
    st.booleans(),
)
def test_restricted_masked_and_rebuilt_rows_aggregate_alike(
    relation, group_by, items, warm
):
    expected = _oracle_aggregate(relation, group_by, items)
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            restricted, masked, rebuilt = _routes(relation, group_by, items, warm)
            assert restricted == masked == rebuilt
            # Groups appear in first-row order on every route.
            assert list(restricted) == list(masked) == list(rebuilt)
            grouped = finalize_partials(restricted, ALL_SPECS, group_by)
            assert dict(grouped.groups) == expected


def test_empty_and_all_null_inputs_by_every_route():
    """``TestNullSemantics``' answers, whichever way the rows arrive."""
    everyone = frozenset({"a", "b"})
    all_null = Relation("N", NULLABLE_SCHEMA, [("a", "dui", None), ("b", "dui", None)])
    empty = Relation("E", NULLABLE_SCHEMA, [])
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            for warm in (False, True):
                for partials in _routes(all_null, (), everyone, warm):
                    assert partials == {(): [2, 0, (0, 0), (0, 0), None, None]}
                for partials in _routes(all_null, ("V",), everyone, warm):
                    grouped = finalize_partials(partials, ALL_SPECS, ("V",))
                    assert grouped.groups == ((("dui",), (2, 0, None, None, None, None)),)
                for group_by in ((), ("V",)):
                    for relation, items in ((empty, everyone), (all_null, frozenset())):
                        assert _routes(relation, group_by, items, warm) == ({}, {}, {})


@settings(max_examples=100, deadline=None)
@given(
    st.lists(ragged_rows, max_size=12),
    _group_bys,
    st.one_of(st.none(), st.lists(licenses, max_size=5).map(frozenset)),
)
def test_ragged_relation_aggregates_over_null_padded_columns(rows, group_by, items):
    """A short row reads NULL where it has no value; a stray extra value
    is never looked at.  Nothing is validated, nothing raises."""
    relation = Relation.unchecked("bad", NULLABLE_SCHEMA, rows)
    padded = Relation(
        "padded", NULLABLE_SCHEMA, [(row + (None, None))[:3] for row in rows]
    )
    expected = _oracle_aggregate(padded, group_by, items)
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            grouped = finalize_partials(
                partial_aggregate_rows(relation, ALL_SPECS, group_by, items=items),
                ALL_SPECS,
                group_by,
            )
            assert dict(grouped.groups) == expected


# --- the numpy group-by: the python fold's states to the bit -------------
#
# Every call below runs with numpy forced off (the python fold), forced
# on and at the default size rule; the partials must agree in ``repr``,
# in the type of every key and state, and in key order.  The data holds
# what the numpy fold decides on: negative ints, values at and past
# ±2**53 and sums past it (those fall back), an ``IntEnum`` in an INT
# column, a FLOAT column, all-null groups and a two-key GROUP BY.


class Grade(IntEnum):
    LOW = -3
    HIGH = 7


WIDE_SCHEMA = Schema(
    (
        Attribute("L", DataType.STRING),
        Attribute("K", DataType.STRING, nullable=True),
        Attribute("G", DataType.INT, nullable=True),
        Attribute("N", DataType.INT, nullable=True),
        Attribute("F", DataType.FLOAT, nullable=True),
    ),
    merge_attribute="L",
)

_EDGES = [2**53, -(2**53), 2**53 - 1, 2**53 + 1, -(2**53) - 1, 2**60, 2**52]
_ints = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.sampled_from(_EDGES),
)
#: The INT column's flavours: exact ints, ints with an ``IntEnum`` among
#: them, or nothing but nulls.  The FLOAT column holds the fold-order
#: witnesses, or only ints (which a FLOAT column accepts).
_flavours = {
    "int": _ints,
    "enum": st.one_of(st.integers(min_value=-5, max_value=9), st.sampled_from(list(Grade))),
    "null": st.none(),
}
_floats = st.sampled_from([1e16, 1.0, -1e16, 1.0, 0.5, 3])


@st.composite
def wide_relations(draw):
    flavour = draw(st.sampled_from(sorted(_flavours)))
    values = st.one_of(_flavours[flavour], st.none())
    floats = st.one_of(draw(st.sampled_from([_floats, _ints])), st.none())
    groups = st.one_of(st.integers(min_value=-2, max_value=2), st.none())
    if flavour == "enum":
        groups = st.one_of(groups, st.just(Grade.LOW))
    rows = draw(
        st.lists(
            st.tuples(
                licenses,
                st.one_of(st.sampled_from(["a", "b", "c"]), st.none()),
                groups,
                values,
                floats,
            ),
            max_size=90,
        )
    )
    return Relation("W", WIDE_SCHEMA, rows)


WIDE_SPECS = tuple(
    AggregateSpec(func, name)
    for name in ("N", "F")
    for func in ("count", "sum", "avg", "min", "max")
)
_wide_spec_sets = st.sampled_from(
    [
        (AggregateSpec("count"),) + WIDE_SPECS[:5],  # the INT column alone
        WIDE_SPECS[5:],  # the FLOAT column alone
        (AggregateSpec("count"),) + WIDE_SPECS,  # both: one fold for all
        (AggregateSpec("count"),),
        (),
    ]
)
_wide_group_bys = st.sampled_from([(), ("K",), ("G",), ("G", "K"), ("K", "G"), ("N",)])


def _signature(partials):
    """What must not change: order, ``repr`` and every type."""

    def types(value):
        if isinstance(value, (tuple, list)):
            return (type(value).__name__, tuple(map(types, value)))
        return type(value).__name__

    return [(repr(key), types(key), repr(states), types(states)) for key, states in partials.items()]


def _folded_by_hand(relation, specs, group_by, items=None):
    """The python fold's contract, one row at a time: groups in
    first-row order, a left fold from ``0`` in row order, the first
    extremal value met."""
    schema = relation.schema
    positions = [schema.position(name) for name in group_by]
    merge = schema.merge_position
    grouped = {}
    for row in relation.rows:
        if items is not None and row[merge] not in items:
            continue
        grouped.setdefault(tuple(row[p] for p in positions), []).append(row)
    out = {}
    for key, rows in grouped.items():
        states = []
        for spec in specs:
            if spec.attribute is None:
                states.append(len(rows))
                continue
            present = [v for v in (r[schema.position(spec.attribute)] for r in rows) if v is not None]
            if spec.func == "count":
                states.append(len(present))
            elif spec.func in ("sum", "avg"):
                total = 0
                for value in present:
                    total = total + value
                states.append((total, len(present)))
            else:
                pick = min if spec.func == "min" else max
                states.append(pick(present) if present else None)
        out[key] = states
    return out


def _every_mode(call):
    """``call()``'s signature under each kernel choice — all equal."""
    seen = []
    for use_numpy in _numpy_modes():
        with _numpy(use_numpy):
            seen.append(_signature(call()))
    assert all(s == seen[0] for s in seen), seen
    return seen[0]


@settings(max_examples=150, deadline=None)
@given(
    wide_relations(),
    _wide_spec_sets,
    _wide_group_bys,
    st.sampled_from(["none", "empty", "partial", "all"]),
)
@example(  # float64 would round (2**53 - 1) + 1 + 1 to 2**53
    Relation("W", WIDE_SCHEMA, [("J55", "a", 1, 2**53 - 1, None), ("J55", "a", 1, 1, None), ("T21", "a", 1, 1, None)]),
    (AggregateSpec("sum", "N"),),
    ("G",),
    "all",
)
@example(  # the kept rows meet "a" first, the whole table "b"
    Relation("W", WIDE_SCHEMA, [("J55", "b", 1, 1, None), ("T21", "a", 2, 2, None), ("A01", "b", 1, 3, None)]),
    (AggregateSpec("count"),),
    ("K",),
    "partial",
)
def test_numpy_group_by_keeps_the_python_bits(relation, specs, group_by, chosen):
    everyone = relation.items()
    items = {
        "none": None,
        "empty": frozenset(),
        "partial": frozenset(sorted(everyone)[::2]),
        "all": everyone,
    }[chosen]
    expected = _signature(_folded_by_hand(relation, specs, group_by, items))
    assert _every_mode(lambda: partial_aggregate_rows(relation, specs, group_by, items=items)) == expected
    if items is None:
        return
    # The same rows as a fetched slice, and as a slice of a slice.
    relation.columnar()
    assert _every_mode(
        lambda: partial_aggregate_rows(relation.restrict_to_items(items), specs, group_by)
    ) == expected
    kept = relation.filter(lambda row: row["L"] != "T21")
    assert _every_mode(
        lambda: partial_aggregate_rows(kept.restrict_to_items(items), specs, group_by)
    ) == _signature(_folded_by_hand(kept, specs, group_by, items))


@settings(max_examples=60, deadline=None)
@given(wide_relations(), _wide_spec_sets, _wide_group_bys, st.booleans())
def test_numpy_group_by_over_unchecked_relations(relation, specs, group_by, ragged):
    """``Relation.unchecked`` rows, well-formed or cut short: a ragged
    table never reaches the numpy fold, a well-formed one may."""
    rows = [row[: 1 + i % 5] for i, row in enumerate(relation.rows)] if ragged else relation.rows
    unchecked = Relation.unchecked("U", WIDE_SCHEMA, rows)
    padded = Relation("P", WIDE_SCHEMA, [(row + (None,) * 4)[:5] for row in rows])
    for items in (None, frozenset(sorted(relation.items())[1:])):
        assert _every_mode(
            lambda: partial_aggregate_rows(unchecked, specs, group_by, items=items)
        ) == _signature(_folded_by_hand(padded, specs, group_by, items))


def test_float_fold_order_is_kept_beside_an_int_column():
    """``TestFloatFoldOrder``'s values: the left fold reads 1.0 where
    any reordered or compensated sum would not."""
    rows = [(f"L{i}", "a", 1, 5, value) for i, value in enumerate([1e16, 1.0, -1e16, 1.0] * 20)]
    relation = Relation("W", WIDE_SCHEMA, rows)
    for specs in (WIDE_SPECS[5:], WIDE_SPECS):
        got = _every_mode(lambda: partial_aggregate_rows(relation, specs, ("K",)))
        assert got == _signature(_folded_by_hand(relation, specs, ("K",)))
    (states,) = partial_aggregate_rows(relation, WIDE_SPECS[5:], ("K",)).values()
    assert states[1] == (1.0, 80)
