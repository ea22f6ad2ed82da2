"""Property tests: a selection or semijoin answered from a value index is
the one the row masks and the python row loop give, bitmap for bitmap.

A source table's value index (:class:`repro.relational.columnar.ValueIndex`)
answers a one-attribute leaf over a null-free ``str`` or ``int`` column
from its bitmap form (per-value item bitmaps and their prefix / suffix
ORs) or from slices of the rows sorted by value.  ``set_numpy_enabled``
``True`` runs the slice form at every table length where the bitmap form
does not answer; ``None`` leaves such a short table on the row masks;
``False`` runs the python kernels and no index.  Every answer must equal
an independent row-at-a-time oracle, and every bitmap the others'.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import columnar
from repro.relational.algebra import select_items, semijoin_items
from repro.relational.conditions import Between, Comparison, InSet, IsNull, Like
from repro.relational.items import INDEX, ItemSet, items_of
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema

pytestmark = pytest.mark.skipif(
    not columnar.numpy_available(), reason="the value index runs on numpy"
)

SCHEMA = Schema(
    (
        Attribute("M"),
        Attribute("S", DataType.STRING, nullable=True),
        Attribute("N", DataType.INT, nullable=True),
    ),
    merge_attribute="M",
)

merges = st.sampled_from([f"E{i}" for i in range(9)])
strings = st.sampled_from(["", "a", "ab", "b", "ba", "dui", "dui\x00", "sp", "\x00"])
# Negative ints and ints beyond 2**53 (float64 would round those).
ints = st.sampled_from(
    [-(2**60), -(2**53) - 1, -7, -1, 0, 1, 3, 1993, 2**53, 2**53 + 1, 2**60]
)
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def relations(draw):
    """Rows whose S and N columns are drawn from a small pool, all one
    value, or all distinct; a column holds nulls only when drawn so."""
    n = draw(st.integers(min_value=0, max_value=24))

    def column(pool, wide):
        shape = draw(st.sampled_from(["pool", "nullable", "equal", "distinct"]))
        if shape == "equal":
            return [draw(pool)] * n
        if shape == "distinct":
            return draw(st.lists(wide, min_size=n, max_size=n, unique=True))
        values = st.one_of(pool, st.none()) if shape == "nullable" else pool
        return [draw(values) for _ in range(n)]

    rows = zip(
        [draw(merges) for _ in range(n)],
        column(strings, st.text(max_size=4)),
        column(ints, st.integers(min_value=-(2**64), max_value=2**64)),
    )
    return Relation("V", SCHEMA, list(rows))


@st.composite
def leaves(draw):
    attribute, values = draw(st.sampled_from([("S", strings), ("N", ints)]))
    kind = draw(st.sampled_from(["compare", "between", "in", "like", "null"]))
    if kind == "compare":
        return Comparison(attribute, draw(st.sampled_from(OPERATORS)), draw(values))
    if kind == "between":  # low > high included: an empty verdict
        return Between(attribute, draw(values), draw(values))
    if kind == "in":  # one or many values, absent ones included (IN () does not parse)
        return InSet(attribute, draw(st.lists(values, min_size=1, max_size=5)))
    if kind == "like":
        return Like(attribute, draw(st.sampled_from(["%", "d%", "%b", "_", "a_", "dui"])))
    return IsNull(attribute, draw(st.booleans()))


def _oracle(relation, condition):
    return frozenset(
        row[0] for row in relation.rows if condition.evaluate(SCHEMA.row_to_dict(row))
    )


def _bits(items):
    """An answer as what must match exactly: its type, and an ItemSet's int."""
    return (type(items), items._bits if type(items) is ItemSet else items)


def _under(override, call):
    previous = columnar.set_numpy_enabled(override)
    try:
        return call()
    finally:
        columnar.set_numpy_enabled(previous)


def _masked(relation, condition, wanted=None):
    """The row-mask path, called directly, numpy kernels forced."""
    table = relation.columnar()

    def call():
        mask = columnar._mask_np(condition, table)
        if wanted is not None:
            mask = mask & columnar.member_mask(table, wanted)
        return columnar._selected_items(table, mask)

    return _under(True, call)


def _every_path(call):
    return [_under(override, call) for override in (True, None, False)]


@settings(max_examples=300, deadline=None)
@given(relations(), leaves())
def test_selection_through_the_index_is_the_masks_bitmap(relation, condition):
    expected = _oracle(relation, condition)
    answers = _every_path(lambda: select_items(relation, condition))
    answers.append(_masked(relation, condition))
    assert answers[0] == expected
    assert len({_bits(answer) for answer in answers}) == 1


@settings(max_examples=300, deadline=None)
@given(relations(), leaves(), st.lists(merges | st.just("absent"), max_size=6), st.data())
def test_semijoin_through_the_index_is_the_masks_bitmap(relation, condition, chosen, data):
    everything = relation.items()
    binding = data.draw(
        st.sampled_from(
            [
                frozenset(chosen),
                items_of(chosen),
                frozenset(),
                ItemSet(),
                items_of(everything),
                frozenset(everything),
            ]
        )
    )
    expected = _oracle(relation, condition) & binding
    answers = _every_path(lambda: semijoin_items(relation, condition, binding))
    if binding:
        answers.append(_masked(relation, condition, binding))
    assert answers[0] == expected
    assert len({_bits(answer) for answer in answers}) == 1


def test_a_null_free_str_or_int_column_is_indexed_and_others_are_not():
    relation = Relation("V", SCHEMA, [("E1", "a", 2**60), ("E2", "b", -7), ("E1", None, 3)])
    table = relation.columnar()
    assert table.value_index("N") is not None
    assert table.value_index("S") is None  # it holds a null
    assert table.value_index("nope") is None
    index = table.value_index("N")
    assert index.values == [-7, 3, 2**60]
    # The bitmap form: each value's items, the ORs before and from each value.
    assert [ItemSet(bits) for bits in index.bitmaps] == [{"E2"}, {"E1"}, {"E1"}]
    assert [ItemSet(bits) for bits in index.prefix] == [set(), {"E2"}, {"E1", "E2"}, {"E1", "E2"}]
    assert [ItemSet(bits) for bits in index.suffix] == [{"E1", "E2"}, {"E1"}, {"E1"}, set()]
    # The slice form: the rows' items in value order.
    ids = index.ids_where(Comparison("N", ">", -7))
    assert [INDEX.values[i] for i in ids.tolist()] == ["E1", "E1"]


# The merge values of the rows below by N, largest first: the order a
# case's name lists its expected answer in.  A set prints in an order
# that moves with the string hash seed, so its repr cannot name a test.
BY_N_DESCENDING = ["E1", "E0", "E2", "E3"]


def _case_id(value):
    if isinstance(value, set):
        members = sorted(value, key=BY_N_DESCENDING.index)
        return "{" + ", ".join(map(repr, members)) + "}" if members else "set()"
    return str(value)


@pytest.mark.parametrize(
    "condition, expected",
    [
        (Comparison("N", ">=", -(2**60)), {"E0", "E1", "E2", "E3"}),  # all true
        (Comparison("N", "=", 12345), set()),  # empty
        (Comparison("N", "<", 2**53 + 1), {"E2", "E3"}),
        (Comparison("N", "!=", -7), {"E0", "E1", "E2"}),
        (Comparison("N", "!=", 3), {"E0", "E1", "E3"}),  # two runs of rows
        (InSet("S", ["sp", "a", "dui"]), {"E0", "E1", "E2", "E3"}),
        (Between("N", 3, -7), set()),  # low > high
        (Between("N", -7, 2**53), {"E2", "E3"}),
        (InSet("N", [99]), set()),
        (InSet("N", [2**60, 99, -7]), {"E1", "E3"}),
        (Like("S", "d%"), {"E0", "E2"}),
        (IsNull("S"), set()),
        (IsNull("S", negated=True), {"E0", "E1", "E2", "E3"}),
    ],
    ids=_case_id,
)
def test_every_leaf_kind_through_the_index(condition, expected):
    rows = [
        ("E0", "dui", 2**53 + 1),
        ("E1", "sp", 2**60),
        ("E2", "dui\x00", 3),
        ("E3", "a", -7),
        ("E2", "dui", 3),
    ]
    relation = Relation("V", SCHEMA, rows)
    answers = _every_path(lambda: select_items(relation, condition))
    assert answers[0] == expected == _oracle(relation, condition)
    assert len({_bits(answer) for answer in answers + [_masked(relation, condition)]}) == 1


@settings(max_examples=60, deadline=None)
@given(relations(), leaves())
def test_a_pickled_relation_carries_no_index_and_answers_the_same(relation, condition):
    before = _under(True, lambda: select_items(relation, condition))
    clone = pickle.loads(pickle.dumps(relation))
    assert clone.columnar() is not relation.columnar()
    assert clone.columnar()._value_index == {}
    assert _bits(_under(True, lambda: select_items(clone, condition))) == _bits(before)


# -- the bitmap form, leaf by leaf, against the python reference kernel -----

BITMAP_SCHEMA = Schema(
    (Attribute("M"), Attribute("I", DataType.INT), Attribute("S", DataType.STRING)),
    merge_attribute="M",
)
NAN, INF = float("nan"), float("inf")
#: Literals inside and outside each column's domain: NaN, ±inf, bools,
#: 1.0 against ints, strs against ints and ints against strs, ints past
#: 2**53 (a float64 would round them), None.
LITERALS = [NAN, INF, -INF, True, False, 1.0, 2.5, -7.0, None, "a", "dui", "", "1",
            1, 0, 3, -7, 2**53, 2**53 + 1, -(2**60), 2**60]
literals = st.sampled_from(LITERALS)


INT_POOL = [-(2**60), -(2**53) - 1, -7, -3, -1, 0, 1, 2, 3, 1993, 2**53, 2**53 + 1, 2**60]
STR_POOL = ["", "a", "ab", "b", "ba", "dui", "dui\x00", "sp", "\x00"]


@st.composite
def bitmap_tables(draw):
    """1-300 rows over up to 40 items, an int and a str column, each
    drawn from a pool cut to 1-13 values (rows drawn by a seeded rng:
    300 rows of hypothesis draws each would dominate the test)."""
    n = draw(st.integers(min_value=1, max_value=300))
    entities = draw(st.integers(min_value=1, max_value=40))
    rng = draw(st.randoms(use_true_random=False))
    int_pool = rng.sample(INT_POOL, rng.randint(1, len(INT_POOL)))
    str_pool = rng.sample(STR_POOL, rng.randint(1, len(STR_POOL)))
    rows = [
        (f"B{rng.randrange(entities)}", rng.choice(int_pool), rng.choice(str_pool))
        for _ in range(n)
    ]
    return Relation("B", BITMAP_SCHEMA, rows).columnar()


def _in_set(attribute, values):
    """``attribute IN values``, the empty list included (which does not parse)."""
    condition = object.__new__(InSet)
    object.__setattr__(condition, "attribute", attribute)
    object.__setattr__(condition, "values", frozenset(values))
    return condition


@st.composite
def bitmap_leaves(draw):
    attribute = draw(st.sampled_from(["I", "S"]))
    value = st.sampled_from(INT_POOL if attribute == "I" else STR_POOL) | literals
    kind = draw(st.sampled_from(["compare", "between", "in"]))
    if kind == "compare":
        return Comparison(attribute, draw(st.sampled_from(OPERATORS)), draw(value))
    if kind == "between":  # low > high included
        return Between(attribute, draw(value), draw(value))
    return _in_set(attribute, draw(st.lists(value, max_size=5)))  # empty and mixed types


def _outside_the_domain(condition):
    """A literal the bitmap form leaves to the kernels: not a str against
    strs, not an int or a non-NaN float against ints."""
    if isinstance(condition, InSet):
        return False
    literals = (condition.value,) if isinstance(condition, Comparison) else (
        condition.low, condition.high)
    domain = (int, float) if condition.attribute == "I" else (str,)
    return any(
        type(v) not in domain or (type(v) is float and math.isnan(v)) for v in literals
    )


def _local_index(table, attribute):
    """The column's value index over *local* dense item ids (first
    appearance), so its bitmaps are the table's own whatever the
    process-wide dictionary holds; and each row's local id."""
    import numpy

    local = {}
    ids = [local.setdefault(m, len(local)) for m in table.merge_column]
    index = columnar.ValueIndex(
        attribute, *table.encoded(attribute), numpy.array(ids, dtype=numpy.intp), len(local)
    )
    return index, ids


def _reference_bits(table, condition, ids):
    mask = columnar._mask_python(condition, table)
    return sum({1 << i for i, keep in zip(ids, mask) if keep})


@settings(max_examples=200, deadline=None)
@given(bitmap_tables(), bitmap_leaves())
def test_every_leaf_from_the_bitmap_form_is_the_python_kernels_bitmap(table, condition):
    index, ids = _local_index(table, condition.attribute)
    assert index.bitmaps is not None  # ≤ 300 values × ≤ 40 items: within the budget
    bits = index.bits_where(condition)
    if _outside_the_domain(condition):
        assert bits is None
    else:
        assert bits == _reference_bits(table, condition, ids)


@settings(max_examples=60, deadline=None)
@given(bitmap_tables(), bitmap_leaves(), st.data())
def test_sjq_is_sq_and_the_binding(table, condition, data):
    everything = sorted(set(table.merge_column))
    chosen = data.draw(st.lists(st.sampled_from(everything + ["absent"]), max_size=8))
    for binding in (items_of(chosen), frozenset(chosen), items_of(everything)):
        for override in (None, True, False):
            sq = _under(override, lambda: columnar.select_items(table, condition))
            sjq = _under(override, lambda: columnar.semijoin_items(table, condition, binding))
            if binding:
                assert _bits(sjq) == _bits(sq & items_of(binding))
            else:
                assert sjq == set()
            assert sq == frozenset(
                row[0] for row in zip(table.merge_column, table.column("I"), table.column("S"))
                if condition.evaluate(BITMAP_SCHEMA.row_to_dict(row))
            )
