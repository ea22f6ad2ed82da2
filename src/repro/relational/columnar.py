"""Vectorized columnar substrate for the relational hot paths.

Every hot path of the engine — selection and semijoin evaluation at the
(simulated) sources, the mediator's ``∪/∩/−`` merge, and the aggregate
kernels — used to walk Python rows one at a time, materializing a dict
per row.  This module replaces that with a *columnar batch*
representation: one Python list per attribute (plus an optional numpy
fast path behind a feature flag), and vectorized kernels that evaluate
predicates column-at-a-time into boolean selection masks.

Design rules (see DESIGN.md):

* A :class:`ColumnarTable` is a derived, immutable view of a
  :class:`~repro.relational.relation.Relation`, cached on the relation.
  Rows stay the canonical storage — the row API is a thin view over the
  same tuples, so every existing call site keeps working.  A relation
  derived by a row mask derives its table the same way: the parent's
  cached columns sliced by that mask, not the kept rows transposed again.
* The pure-python kernels are the reference semantics; the numpy path
  must be *bit-identical* and silently falls back per-leaf whenever
  exactness cannot be guaranteed (mixed-type columns, integers beyond
  2**53, exotic literals).  Property tests enforce parity.
* String and exactly-``int`` columns are *dictionary encoded*
  (:meth:`ColumnarTable.encoded`): a string predicate is the python
  reference kernel run once per distinct value and gathered through the
  row codes, a GROUP BY key is one code per row, and no python loop
  touches a row.  A slice gathers its codes and mirrors from its
  parent's, so they are built once per source table.
* Items leave a table as an :class:`~repro.relational.items.ItemSet` —
  a bitmap over the process-wide item dictionary, built from one id per
  row (:meth:`ColumnarTable.item_ids`) — and a semijoin tests that
  bitmap through the same ids.  The mediator merge operators are then
  integer ``|`` / ``&`` / ``& ~``; a merge column holding anything but
  ``str`` / ``int`` keeps ``frozenset`` answers and the C set methods.
* Boolean structure (AND/OR/NOT) is computed as mask algebra, never by
  re-walking rows.
* A one-attribute leaf over a source table of ``_INDEX_MIN_ROWS`` rows
  or more reads the column's *value index*
  (:meth:`ColumnarTable.value_index`): the leaf runs once per distinct
  value, through the same mask kernels, and the rows holding the true
  values are slices of the item ids sorted by value — no mask over the
  rows.  The index is built once from immutable rows and holds no
  verdict or answer: every request evaluates its own condition.  AND /
  OR / NOT, float, bool and null-holding columns, slices and merge
  values without item ids keep the row masks.

The numpy kernels run whenever numpy imports and the table is long
enough to pay for them (``_NUMPY_MIN_ROWS``) — there is no option to
set.  :func:`set_numpy_enabled` exists so the parity tests can run
either set of kernels at every size in a process that has numpy.
"""

from __future__ import annotations

import operator
from itertools import compress, islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ConditionError
from repro.relational.conditions import (
    And,
    Between,
    Comparison,
    Condition,
    FalseCondition,
    InSet,
    IsNull,
    Like,
    Not,
    Or,
    TrueCondition,
    _like_regex,
)
from repro.relational.items import (
    EMPTY_ITEMS,
    INDEX,
    INTERNABLE,
    ItemSet,
    intersection_of,
    union_of,
)
from repro.relational.schema import Attribute, Schema

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

#: Largest magnitude an int may have and still be exactly representable
#: as a float64 — the numpy numeric path refuses anything bigger.
SAFE_INT = 2**53

_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


_numpy_override: bool | None = None

#: Every numpy call costs about a microsecond, so on a table this short
#: (Fig. 1's sources hold five rows) the python kernels are the faster
#: ones.  Measured crossover 16–64 rows; see DESIGN "Columnar substrate".
_NUMPY_MIN_ROWS = 64

#: Looking a binding up in a dictionary and scattering its code costs
#: about this many times what one ``in`` probe of a distinct value does.
_PROBE_COST_RATIO = 4

#: Below this many rows a one-attribute leaf masks the whole table:
#: the value index's extra numpy calls cost more than the rows they
#: skip.  Measured crossover ≈ 5k rows; see DESIGN "Columnar substrate".
_INDEX_MIN_ROWS = 8192

#: The leaves a value index answers: one attribute, one verdict per value.
_INDEXED_LEAVES = (Comparison, Between, InSet, Like, IsNull)

#: Marks a cached view that has not been built yet (``None`` is a value).
_UNBUILT: Any = object()


def numpy_available() -> bool:
    """True when numpy imported successfully in this process."""
    return _np is not None


def numpy_enabled() -> bool:
    """True when numpy kernels may run (which batches they serve is
    :func:`numpy_serves`' business)."""
    if _np is None:
        return False
    if _numpy_override is None:
        return True
    return _numpy_override


def set_numpy_enabled(enabled: bool | None) -> bool | None:
    """Force the numpy kernels on/off *at every table length*; ``None``
    restores the default (numpy whenever it imported, on tables long
    enough to pay for it).

    Returns the previous override so callers can restore it.  Forcing
    ``True`` without numpy installed is a silent no-op (the python
    kernels run) — the flag never makes imports fail.
    """
    global _numpy_override
    previous = _numpy_override
    _numpy_override = None if enabled is None else bool(enabled)
    return previous


def numpy_serves(length: int, min_length: int = _NUMPY_MIN_ROWS) -> bool:
    """Which kernels serve a batch of ``length`` values: numpy when the
    batch is at least ``min_length`` long (the size that pays for
    numpy's per-call cost; a table's rows by default), unless a parity
    test forced one kind for every size."""
    if _np is None:
        return False
    if _numpy_override is None:
        return length >= min_length
    return _numpy_override


# ---------------------------------------------------------------------------
# The columnar batch


class ColumnarTable:
    """An immutable per-attribute view of a relation's rows.

    Rows own the data; everything here is a cache of them, built lazily
    on first use: the columns (plain Python lists sharing the row
    tuples' values), the numpy mirrors of numeric and boolean columns,
    the dictionary encodings of string columns, the item ids of the
    merge column (plus, for merge values that cannot be interned, its
    object-array mirror) and a source table's value indexes.  A table
    built from *ragged* rows (arity mismatches injected by the fault
    simulator via ``Relation.unchecked``) reports ``well_formed =
    False`` and must not be used for vectorized evaluation — callers
    fall back to the row path, which reproduces the historical per-row
    semantics exactly.
    """

    __slots__ = (
        "schema",
        "length",
        "well_formed",
        "_columns",
        "_np_cache",
        "_encoded",
        "_merge_objects",
        "_item_ids",
        "_np_item_ids",
        "_value_index",
        "_slice_of",
        "_flags",
        "_positions",
    )

    def __init__(self, schema: Schema, rows: tuple[tuple[Any, ...], ...]):
        self.schema = schema
        self.length = len(rows)
        names = schema.names
        width = len(names)
        self.well_formed = all(len(row) == width for row in rows)
        self._columns: dict[str, list[Any]] = {}
        if self.well_formed:
            if rows:
                transposed = list(zip(*rows))
                for index, name in enumerate(names):
                    self._columns[name] = list(transposed[index])
            else:
                for name in names:
                    self._columns[name] = []
        self._slice_of: tuple[ColumnarTable, Sequence[Any]] | None = None
        self._flags: list[bool] | None = None
        self._positions: Any = None
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._np_cache: dict[str, tuple[str, Any, Any] | None] = {}
        self._encoded: dict[str, tuple[dict[Any, int], Any] | None] = {}
        self._merge_objects: Any = None
        self._item_ids: tuple[list[int], int] | None = _UNBUILT
        self._np_item_ids: tuple[Any, int] | None = _UNBUILT
        self._value_index: dict[str, ValueIndex | None] = {}

    def where(self, mask: Sequence[Any], length: int | None = None) -> "ColumnarTable":
        """The table of the rows at the true positions of ``mask`` — a
        python list or a numpy bool array, kept as it is given.

        Nothing is copied here: each column is sliced out of this
        table's the first time it is asked for, so a query that reads
        two attributes of a fetched relation slices two columns, and the
        numpy views (:meth:`np_column`, :meth:`encoded`) are gathered
        from this table's through the mask's positions.  ``length``, the
        number of true positions, is counted when the caller does not
        know it.  The slice of a ragged table is ragged too (it has no
        columns).
        """
        if length is None:
            length = int(_np.count_nonzero(mask)) if _is_array(mask) else mask.count(True)
        table = object.__new__(ColumnarTable)
        table.schema = self.schema
        table.length = length
        table.well_formed = self.well_formed
        table._columns = {}
        table._slice_of = (self, mask)
        table._flags = None
        table._positions = None
        table._reset_caches()
        return table

    def column(self, name: str) -> list[Any] | None:
        """The raw python column, or None when the schema lacks it."""
        column = self._columns.get(name)
        if column is None and self._slice_of is not None:
            whole = self._slice_of[0].column(name)
            if whole is not None:
                column = self._columns[name] = list(self.gather(whole))
        return column

    def gather(self, values: Iterable[Any]) -> Iterator[Any]:
        """A slice's share of ``values``, one per parent row: the values
        at the mask's true positions, in order.  The mask is turned into
        the python list ``compress`` gathers by once, and kept; a
        relation's sliced rows are gathered through it too."""
        if self._flags is None:
            self._flags = mask_as_list(self._slice_of[1])
        return compress(values, self._flags)

    def _parent_positions(self):
        """A slice's rows as positions in its parent (an ``intp`` array,
        cached): numpy gathers by position ≈ 4x faster than by mask."""
        if self._positions is None:
            parent, mask = self._slice_of
            if not _is_array(mask):
                mask = _np.fromiter(mask, dtype=bool, count=parent.length)
            self._positions = _np.flatnonzero(mask)
        return self._positions

    @property
    def merge_column(self) -> list[Any]:
        return self.column(self.schema.merge_attribute)

    # -- numpy mirrors ---------------------------------------------------

    def np_column(self, name: str) -> tuple[str, Any, Any] | None:
        """``(kind, data, null_mask)`` for the numpy path, or None.

        ``kind`` is ``"num"`` (float64, ints within ±2**53), ``"bool"``
        or ``"null"`` (nothing but ``None``); ``null_mask`` is a boolean
        array marking positions that held ``None`` (or ``None`` itself
        when the column has no nulls).  String columns have no mirror —
        they are served by :meth:`encoded`.  Columns mixing domains,
        containing huge integers, or holding foreign objects are
        ineligible and cached as ``None`` — their predicates run on the
        python kernels.  A slice gathers its parent's mirror.
        """
        if name in self._np_cache:
            return self._np_cache[name]
        built = self._build_np(name)
        self._np_cache[name] = built
        return built

    def _build_np(self, name: str) -> tuple[str, Any, Any] | None:
        if _np is None:
            return None
        if self._slice_of is not None:
            whole = self._slice_of[0].np_column(name)
            if whole is None:
                return None
            kind, data, null = whole
            at = self._parent_positions()
            return kind, data.take(at), None if null is None else null.take(at)
        values = self.column(name)
        if values is None:
            return None
        kind: str | None = None
        has_null = False
        for value in values:
            if value is None:
                has_null = True
                continue
            if isinstance(value, bool):
                value_kind = "bool"
            elif isinstance(value, int):
                if -SAFE_INT <= value <= SAFE_INT:
                    value_kind = "num"
                else:
                    return None
            elif isinstance(value, float):
                value_kind = "num"
            else:
                return None
            if kind is None:
                kind = value_kind
            elif kind != value_kind:
                return None
        if kind is None:
            # All-null (or empty) column: nothing to vectorize, but the
            # null mask alone serves IS NULL and voids every comparison.
            null = _np.ones(len(values), dtype=bool)
            return ("null", _np.zeros(len(values)), null)
        null = None
        if has_null:
            null = _np.fromiter(
                (v is None for v in values), dtype=bool, count=len(values)
            )
        if kind == "num":
            data = _np.fromiter(
                (0.0 if v is None else float(v) for v in values),
                dtype=_np.float64,
                count=len(values),
            )
        else:
            data = _np.fromiter(
                (False if v is None else v for v in values),
                dtype=bool,
                count=len(values),
            )
        return (kind, data, null)

    def encoded(self, name: str) -> tuple[dict[Any, int], Any] | None:
        """The dictionary encoding ``(index, codes)`` of a column whose
        non-null values are all exactly ``str`` or all exactly ``int``.

        ``index`` maps each distinct value to its code — its keys *are*
        the distinct values, in first-appearance order, ``None`` one of
        them when the column has nulls — and ``codes`` holds one code
        per row in the narrowest unsigned dtype that fits.  ``None``
        (cached) without numpy, when the schema lacks the column, and
        when a non-null value is of another type (a ``float``, a
        ``bool``, an ``int`` subclass) or the two are mixed: equal
        values of different types (``1``, ``1.0``, ``True``) would share
        a code, and the kernels tell them apart.  The python loop runs
        once per source table: a slice gathers its parent's codes and
        renumbers them in its own first-appearance order.
        """
        if name in self._encoded:
            return self._encoded[name]
        built = self._encoded[name] = self._build_encoded(name)
        return built

    def _build_encoded(self, name: str) -> tuple[dict[Any, int], Any] | None:
        if _np is None:
            return None
        if self._slice_of is not None:
            whole = self._slice_of[0].encoded(name)
            if whole is None:
                return None
            values = list(whole[0])
            order, codes = first_appearance(whole[1].take(self._parent_positions()), len(values))
            return {values[code]: i for i, code in enumerate(order.tolist())}, codes
        values = self.column(name)
        if values is None:
            return None
        domains = set(map(type, values))
        domains.discard(type(None))
        if len(domains) > 1 or not domains <= INTERNABLE:
            return None
        index: dict[Any, int] = {}
        codes = [index.setdefault(value, len(index)) for value in values]
        return index, _np.array(codes, dtype=_code_dtype(len(index)))

    def int_mirror(self, name: str) -> tuple[Any, Any] | None:
        """``(data, null_mask)`` of :meth:`np_column` when every non-null
        value of the column is exactly ``int`` (and within ±2**53): what
        the aggregate kernels may fold in numpy.  ``None`` otherwise.

        The proof is the source table's :meth:`encoded` — built once
        there, never per slice — so a slice whose parent holds a
        ``float`` anywhere in the column gets ``None`` too.
        """
        root = self
        while root._slice_of is not None:
            root = root._slice_of[0]
        encoded = root.encoded(name)
        if encoded is None or any(isinstance(value, str) for value in islice(encoded[0], 2)):
            return None
        built = self.np_column(name)
        return None if built is None else built[1:]

    def merge_objects(self):
        """The merge column as a numpy object array (cached): the very
        objects of the rows, so a boolean gather hands items out in row
        order exactly as ``compress`` over the python column does."""
        if self._merge_objects is None:
            self._merge_objects = _np.fromiter(
                self.merge_column, dtype=object, count=self.length
            )
        return self._merge_objects

    def item_ids(self) -> tuple[list[int], int] | None:
        """``(ids, bound)``: each row's merge value as its id in the
        process-wide :data:`~repro.relational.items.INDEX`, and an
        exclusive upper bound on those ids.

        ``None`` (cached) when a merge value is not internable — then
        the table's item sets stay ``frozenset`` objects.  A slice takes
        its parent's ids under the same mask.
        """
        if self._item_ids is _UNBUILT:
            if self._slice_of is not None:
                built = self._slice_of[0].item_ids()
                if built is not None:
                    built = list(self.gather(built[0])), built[1]
            else:
                ids = INDEX.ids(self.merge_column)
                built = None if ids is None else (ids, max(ids, default=-1) + 1)
            self._item_ids = built
        return self._item_ids

    def np_item_ids(self) -> tuple[Any, int] | None:
        """:meth:`item_ids` as an ``intp`` array for the numpy kernels,
        gathered from the merge column's dictionary codes when it has
        one (a string merge column): one interning per distinct value."""
        if self._np_item_ids is _UNBUILT:
            encoded = self.encoded(self.schema.merge_attribute)
            if encoded is None:
                built = self.item_ids()
                if built is not None:
                    built = _np.array(built[0], dtype=_np.intp), built[1]
            else:
                index, codes = encoded
                ids = INDEX.ids(list(index))  # None when the column holds a null
                if ids is not None:
                    bound = max(ids, default=-1) + 1
                    built = _np.array(ids, dtype=_np.intp).take(codes), bound
                else:
                    built = None
            self._np_item_ids = built
        return self._np_item_ids

    def value_index(self, name: str) -> "ValueIndex | None":
        """The column's rows grouped by value (:class:`ValueIndex`), built
        once from the :meth:`encoded` codes and the :meth:`np_item_ids`.

        ``None`` (cached) for a slice — it ranges over its parent's rows
        through a mask instead — and when the column has no encoding,
        holds a null, or the merge values have no item ids.
        """
        if name in self._value_index:
            return self._value_index[name]
        built = self._value_index[name] = self._build_value_index(name)
        return built

    def _build_value_index(self, name: str) -> "ValueIndex | None":
        if self._slice_of is not None:
            return None
        encoded = self.encoded(name)
        if encoded is None or None in encoded[0]:
            return None
        item_ids = self.np_item_ids()
        if item_ids is None:
            return None
        return ValueIndex(name, *encoded, *item_ids)


class ValueIndex:
    """A column of a source table, its rows grouped by value.

    ``values`` is a one-column :class:`ColumnarTable` of the column's
    distinct values, sorted; the rows holding ``values``' ``v``-th value
    are ``starts[v]:starts[v + 1]`` of ``ids``, the rows' item ids
    ordered by value.  A one-attribute leaf runs once per distinct value,
    through the mask kernels, and a run of adjacent true values is one
    slice of ``ids`` — one slice for a comparison or BETWEEN, since the
    values are sorted.  Nothing here depends on a condition: every
    request evaluates its own.
    """

    __slots__ = ("values", "starts", "ids", "bound")

    def __init__(self, name: str, index: dict[Any, int], codes, ids, bound: int):
        ordered = sorted(index)  # one type, str or int: totally ordered
        rank = _np.empty(len(ordered), dtype=_np.intp)
        rank[[index[value] for value in ordered]] = _np.arange(len(ordered))
        row_rank = rank.take(codes)
        self.values = ColumnarTable(Schema((Attribute(name),), name), [(v,) for v in ordered])
        self.starts = _np.zeros(len(ordered) + 1, dtype=_np.intp)
        _np.cumsum(_np.bincount(row_rank, minlength=len(ordered)), out=self.starts[1:])
        self.ids = ids.take(row_rank.argsort(kind="stable"))
        self.bound = bound

    def ids_where(self, condition: Condition):
        """The item ids of the rows satisfying ``condition``, a leaf over
        this column (one id per row, an ``intp`` array)."""
        # A run of true values starts and ends where the padded verdicts change.
        padded = _np.zeros(self.values.length + 2, dtype=bool)
        padded[1:-1] = _mask_np(condition, self.values)
        edges = _np.flatnonzero(padded[1:] != padded[:-1])
        low, high = self.starts.take(edges[0::2]), self.starts.take(edges[1::2])
        if len(low) == 1:
            return self.ids[low[0] : high[0]]
        lengths = high - low
        # Position i of the output is row (i - run's first output) + run's low.
        shift = _np.repeat(low - (_np.cumsum(lengths) - lengths), lengths)
        return self.ids.take(shift + _np.arange(len(shift)))


def _code_dtype(count: int):
    """The narrowest unsigned dtype that holds ``count`` distinct codes."""
    return _np.min_scalar_type(max(count - 1, 0))


def first_appearance(codes, space: int) -> tuple[Any, Any]:
    """``(order, dense)`` of an array of codes below ``space``: the
    distinct codes in order of first appearance, and every position's
    rank in that order (the narrowest unsigned dtype that fits).

    With no more possible codes than positions, a table of each code's
    first position (``minimum.at``) finds them; a wider space — the
    codes of two GROUP BY keys multiplied out — sorts instead.
    """
    n = len(codes)
    if space <= n:
        first = _np.full(space, n, dtype=_np.intp)
        _np.minimum.at(first, codes, _np.arange(n))
        # Absent codes (first position n) sort last, and are never taken.
        by_first = first.argsort()
        order = by_first[: _np.count_nonzero(first < n)]
        return order, by_first.argsort().take(codes).astype(_code_dtype(len(order)))
    distinct, first, inverse = _np.unique(codes, return_index=True, return_inverse=True)
    ranked = _np.argsort(first)
    rank = _np.zeros(len(distinct), dtype=_code_dtype(len(distinct)))
    rank[ranked] = _np.arange(len(distinct))
    return distinct[ranked], rank.take(inverse.reshape(-1))


def table_for(relation) -> ColumnarTable | None:
    """The relation's cached columnar view, or ``None`` when it is ragged.

    Only ``Relation.unchecked`` can produce a ragged relation — callers
    must then take the row path.
    """
    table = relation.columnar()
    if not table.well_formed:
        return None
    return table


# ---------------------------------------------------------------------------
# Mask kernels — pure python reference path

Mask = list  # list[bool]; the numpy path uses np.ndarray[bool] instead


def _false_mask(n: int) -> Mask:
    return [False] * n


def _missing_column(
    condition: Condition, table: ColumnarTable
) -> list[Any]:
    """Mirror the row path for an attribute outside the schema.

    ``Comparison.evaluate`` raises on a missing attribute; every other
    leaf uses ``row.get`` and sees ``None``.  Schema-validated
    conditions never hit this branch.
    """
    if isinstance(condition, Comparison):
        raise ConditionError(f"row lacks attribute {condition.attribute!r}")
    return [None] * table.length


def _compare_python(column: list[Any], op: str, value: Any) -> Mask:
    func = _COMPARE[op]
    if value is None:
        return _false_mask(len(column))
    if isinstance(value, bool):
        return [isinstance(v, bool) and func(v, value) for v in column]
    if isinstance(value, (int, float)):
        return [
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and func(v, value)
            for v in column
        ]
    if isinstance(value, str):
        return [isinstance(v, str) and func(v, value) for v in column]
    return _false_mask(len(column))


def _between_python(column: list[Any], low: Any, high: Any) -> Mask:
    if isinstance(low, bool) or isinstance(high, bool):
        if not (isinstance(low, bool) and isinstance(high, bool)):
            return _false_mask(len(column))
        return [isinstance(v, bool) and low <= v <= high for v in column]
    if isinstance(low, (int, float)) and isinstance(high, (int, float)):
        return [
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and low <= v <= high
            for v in column
        ]
    if isinstance(low, str) and isinstance(high, str):
        return [isinstance(v, str) and low <= v <= high for v in column]
    return _false_mask(len(column))


def _leaf_values_python(condition: Condition, column: list[Any]) -> Mask:
    """One attribute leaf over a list of values — the reference kernel,
    run over a column's rows or over its distinct values alike."""
    if isinstance(condition, Comparison):
        return _compare_python(column, condition.op, condition.value)
    if isinstance(condition, Between):
        return _between_python(column, condition.low, condition.high)
    if isinstance(condition, InSet):
        values = condition.values
        return [v is not None and v in values for v in column]
    if isinstance(condition, Like):
        regex = _like_regex(condition.pattern)
        return [
            isinstance(v, str) and regex.match(v) is not None for v in column
        ]
    if isinstance(condition, IsNull):
        if condition.negated:
            return [v is not None for v in column]
        return [v is None for v in column]
    raise ConditionError(f"unknown condition node {condition!r}")


def _leaf_mask_python(condition: Condition, table: ColumnarTable) -> Mask:
    n = table.length
    if isinstance(condition, TrueCondition):
        return [True] * n
    if isinstance(condition, FalseCondition):
        return _false_mask(n)
    column = table.column(condition.attribute)  # type: ignore[attr-defined]
    if column is None:
        column = _missing_column(condition, table)
    return _leaf_values_python(condition, column)


def _mask_python(condition: Condition, table: ColumnarTable) -> Mask:
    if isinstance(condition, And):
        mask = _mask_python(condition.operands[0], table)
        for operand in condition.operands[1:]:
            if not any(mask):
                break
            other = _mask_python(operand, table)
            mask = [a and b for a, b in zip(mask, other)]
        return mask
    if isinstance(condition, Or):
        mask = _mask_python(condition.operands[0], table)
        for operand in condition.operands[1:]:
            if all(mask):
                break
            other = _mask_python(operand, table)
            mask = [a or b for a, b in zip(mask, other)]
        return mask
    if isinstance(condition, Not):
        return [not m for m in _mask_python(condition.operand, table)]
    return _leaf_mask_python(condition, table)


# ---------------------------------------------------------------------------
# Mask kernels — numpy fast path


def _leaf_mask_np(condition: Condition, table: ColumnarTable):
    """A numpy boolean mask for one leaf, or None to fall back per-leaf."""
    n = table.length
    if isinstance(condition, (TrueCondition, FalseCondition)):
        return _np.full(n, isinstance(condition, TrueCondition), dtype=bool)
    attribute = condition.attribute  # type: ignore[attr-defined]
    if table.column(attribute) is None:
        # Missing attribute: identical outcome to the python kernel
        # (Comparison raises there; the rest see an all-null column).
        return None
    built = table.np_column(attribute)
    if built is None:
        encoded = table.encoded(attribute)
        if encoded is None:
            return None
        # A string column: the reference kernel once per distinct value,
        # gathered through the row codes — every leaf kind, one semantics.
        index, codes = encoded
        verdicts = _leaf_values_python(condition, list(index))
        return _np.fromiter(verdicts, dtype=bool, count=len(index)).take(codes)
    kind, data, null = built
    if isinstance(condition, Comparison):
        value = condition.value
        if isinstance(value, bool):
            if kind != "bool":
                result = _np.zeros(n, dtype=bool)
            else:
                result = _COMPARE[condition.op](data, value)
        elif isinstance(value, (int, float)):
            if kind != "num":
                result = _np.zeros(n, dtype=bool)
            elif isinstance(value, int) and not (
                -SAFE_INT <= value <= SAFE_INT
            ):
                return None  # float64 would round the literal
            else:
                result = _COMPARE[condition.op](data, float(value))
        else:
            # NULL, a string (these columns hold none) or a foreign literal.
            result = _np.zeros(n, dtype=bool)
    elif isinstance(condition, Between):
        low, high = condition.low, condition.high
        if isinstance(low, bool) or isinstance(high, bool):
            if kind == "bool" and isinstance(low, bool) and isinstance(high, bool):
                result = (data >= low) & (data <= high)
            else:
                result = _np.zeros(n, dtype=bool)
        elif isinstance(low, (int, float)) and isinstance(high, (int, float)):
            if kind != "num":
                result = _np.zeros(n, dtype=bool)
            elif any(
                isinstance(bound, int) and not (-SAFE_INT <= bound <= SAFE_INT)
                for bound in (low, high)
            ):
                return None
            else:
                result = (data >= float(low)) & (data <= float(high))
        else:
            result = _np.zeros(n, dtype=bool)
    elif isinstance(condition, IsNull):
        is_null = (
            null if null is not None else _np.zeros(n, dtype=bool)
        )
        return ~is_null if condition.negated else is_null.copy()
    else:
        # InSet membership and LIKE regexes are per-element python work
        # either way; the python kernel is the single source of truth.
        return None
    if null is not None:
        result &= ~null
    return result


def _mask_np(condition: Condition, table: ColumnarTable):
    if isinstance(condition, And):
        mask = _mask_np(condition.operands[0], table)
        for operand in condition.operands[1:]:
            if not mask.any():
                break
            mask = mask & _mask_np(operand, table)
        return mask
    if isinstance(condition, Or):
        mask = _mask_np(condition.operands[0], table)
        for operand in condition.operands[1:]:
            if mask.all():
                break
            mask = mask | _mask_np(operand, table)
        return mask
    if isinstance(condition, Not):
        return ~_mask_np(condition.operand, table)
    leaf = _leaf_mask_np(condition, table)
    if leaf is None:
        leaf = _np.fromiter(
            _leaf_mask_python(condition, table),
            dtype=bool,
            count=table.length,
        )
    return leaf


# ---------------------------------------------------------------------------
# Public kernels


def predicate_mask(table: ColumnarTable, condition: Condition) -> Mask:
    """Evaluate ``condition`` over every row at once.

    Returns a boolean selection mask (a python list, or a numpy bool
    array when the numpy kernels serve this table) aligned with the
    table's rows.
    """
    if numpy_serves(table.length):
        return _mask_np(condition, table)
    return _mask_python(condition, table)


def member_mask(table: ColumnarTable, wanted: ItemSet | frozenset[Any] | set[Any]) -> Mask:
    """Which rows' merge value is in ``wanted`` — a mask like
    :func:`predicate_mask`'s.

    An :class:`ItemSet` is unpacked once into one flag per item id and
    the flags are gathered through the rows' ids.  Any other set is
    probed against the merge column's dictionary (or, when it is not
    much smaller, the distinct values against the set) and the per-value
    verdicts are gathered through the row codes; only a column with
    neither ids nor a dictionary is probed row by row.
    """
    use_numpy = numpy_serves(table.length)
    if type(wanted) is ItemSet:
        built = table.np_item_ids() if use_numpy else table.item_ids()
        if built is not None:
            ids, bound = built
            flags = wanted.flags(bound)
            if use_numpy:
                return _np.frombuffer(flags, dtype=bool).take(ids)
            return list(map(flags.__getitem__, ids))
        wanted = wanted.decoded()
    encoded = table.encoded(table.schema.merge_attribute) if use_numpy else None
    if encoded is None:
        member = [v in wanted for v in table.merge_column]
        return _np.array(member, dtype=bool) if use_numpy else member
    index, codes = encoded
    if _PROBE_COST_RATIO * len(wanted) < len(index):
        verdicts = _np.zeros(len(index), dtype=bool)
        verdicts[[index[v] for v in wanted if v in index]] = True
    else:
        verdicts = _np.fromiter(
            map(wanted.__contains__, index), dtype=bool, count=len(index)
        )
    return verdicts.take(codes)


def _is_array(mask: Mask) -> bool:
    return _np is not None and isinstance(mask, _np.ndarray)


def mask_as_list(mask: Mask) -> list[bool]:
    """``mask`` as the python list ``itertools.compress`` gathers fastest."""
    return mask.tolist() if _is_array(mask) else mask


def _selected_items(table: ColumnarTable, mask: Mask) -> ItemSet | frozenset[Any]:
    """The distinct merge values at the true positions of ``mask``.

    With item ids, the bitmap of the selected rows' ids: one flag byte
    per id below the table's bound, set by a gather and a scatter, and
    packed into the integer once.  Without, the ``frozenset`` of the
    merge values — the same objects inserted in the same (row) order
    under either kernel, so the representative of equal keys does not
    depend on which one ran.
    """
    if _is_array(mask):
        built = table.np_item_ids()
        if built is None:
            return frozenset(table.merge_objects()[mask].tolist())
        ids, bound = built
        # take(flatnonzero) gathers ~4x faster than boolean ids[mask].
        return _bitmap(ids.take(_np.flatnonzero(mask)), bound)
    built = table.item_ids()
    if built is None:
        # itertools.compress is the C-speed gather over a python mask.
        return frozenset(compress(table.merge_column, mask))
    ids, bound = built
    return ItemSet.from_ids(compress(ids, mask), bound)


def _bitmap(ids, bound: int) -> ItemSet:
    """The set of the item ids in an array, each below ``bound``: one flag
    byte per id, set by a scatter and packed into the integer once."""
    flags = _np.zeros(bound, dtype=_np.uint8)
    flags[ids] = 1
    return ItemSet(int.from_bytes(_np.packbits(flags, bitorder="little").tobytes(), "little"))


def _value_index_for(table: ColumnarTable, condition: Condition) -> ValueIndex | None:
    """The value index that answers a one-attribute leaf over ``table``:
    on a table of at least ``_INDEX_MIN_ROWS`` rows (any length when a
    parity test forces numpy) whose column has one; else None."""
    if isinstance(condition, _INDEXED_LEAVES) and numpy_serves(table.length, _INDEX_MIN_ROWS):
        return table.value_index(condition.attribute)
    return None


def select_items(table: ColumnarTable, condition: Condition) -> ItemSet | frozenset[Any]:
    """``sq(c, R)`` on the columnar batch: distinct qualifying items —
    the ids of a value index's qualifying slices, or the rows under a
    predicate mask."""
    index = _value_index_for(table, condition)
    if index is not None:
        return _bitmap(index.ids_where(condition), index.bound)
    return _selected_items(table, predicate_mask(table, condition))


def select_row_tuples(
    table: ColumnarTable, rows: tuple[tuple[Any, ...], ...], condition: Condition
) -> list[tuple[Any, ...]]:
    """The qualifying row tuples (the thin row view over the mask)."""
    return list(compress(rows, mask_as_list(predicate_mask(table, condition))))


def semijoin_items(
    table: ColumnarTable, condition: Condition, wanted: ItemSet | frozenset[Any]
) -> ItemSet | frozenset[Any]:
    """``sjq(c, R, Y)``: the qualifying rows whose item is bound.

    Through a value index, the qualifying slices' ids keep those whose
    flag in ``wanted`` is set: one gather over the selected rows.
    Otherwise membership is tested first — when no row is bound the
    predicate is never evaluated.  The numpy kernels AND two whole-table
    masks (both are gathers); the python kernels evaluate the predicate
    on the bound rows only.
    """
    if not wanted:
        return EMPTY_ITEMS
    index = _value_index_for(table, condition)
    if index is not None:
        ids = index.ids_where(condition)
        return _bitmap(ids[_binding_flags(wanted, index.bound).take(ids)], index.bound)
    member = member_mask(table, wanted)
    if _is_array(member):
        if not member.any():
            return EMPTY_ITEMS
        return _selected_items(table, member & _mask_np(condition, table))
    count = member.count(True)
    if not count:
        return EMPTY_ITEMS
    bound = table.where(member, count)
    return _selected_items(bound, _mask_python(condition, bound))


def _binding_flags(wanted: ItemSet | frozenset[Any], bound: int):
    """One bool per item id below ``bound`` (at least): is it in ``wanted``.

    An :class:`ItemSet` unpacks its bits; any other set looks its items
    up in :data:`~repro.relational.items.INDEX`, which holds every item
    the table has (an equal item of another type, ``1.0`` for ``1``,
    finds the same id, as ``in`` would).
    """
    if type(wanted) is ItemSet:
        return _np.frombuffer(wanted.flags(bound), dtype=bool)
    flags = _np.zeros(bound, dtype=bool)
    flags[[i for i in map(INDEX.get, wanted) if i is not None and i < bound]] = True
    return flags


def count_matching(table: ColumnarTable, condition: Condition) -> int:
    """How many rows satisfy ``condition`` (no materialization)."""
    mask = predicate_mask(table, condition)
    return int(mask.sum()) if _is_array(mask) else sum(mask)


# ---------------------------------------------------------------------------
# Set operators for the mediator merge
#
# One rule: when every operand is an ItemSet the operator is an integer
# one; otherwise every ItemSet operand is decoded and the C set methods
# run exactly as they did over frozensets (a merge value that is not a
# ``str`` / ``int``, a ragged relation's answer, a tampered payload).


def _as_set(items: Iterable[Any]) -> frozenset[Any] | set[Any]:
    if type(items) is ItemSet:
        return items.decoded()
    return items if isinstance(items, (set, frozenset)) else frozenset(items)


def union_items(sets: Iterable[Iterable[Any]]) -> ItemSet | frozenset[Any]:
    """``X_1 ∪ ... ∪ X_k`` — bitwise OR; the empty union is the empty set.

    The ``frozenset`` fallback starts from the largest operand, so the
    accumulator never rehashes below its final size (and an element
    present in several operands is represented by the largest's).
    """
    operands = list(sets)
    merged = union_of(operands)
    if merged is not None:
        return merged
    operands = [_as_set(s) for s in operands]
    operands.sort(key=len, reverse=True)
    return frozenset(operands[0].union(*operands[1:]))


def intersect_items(sets: Iterable[Iterable[Any]]) -> ItemSet | frozenset[Any]:
    """``X_1 ∩ ... ∩ X_k`` — bitwise AND.

    The ``frozenset`` fallback probes the smallest operand against the
    rest, bounding work by the smallest set.  Raises on an empty operand
    list (the identity would be the universe).
    """
    operands = list(sets)
    if not operands:
        raise ValueError("intersection of zero sets is undefined")
    common = intersection_of(operands)
    if common is not None:
        return common
    operands = [_as_set(s) for s in operands]
    operands.sort(key=len)
    return frozenset(operands[0].intersection(*operands[1:]))


def difference_items(left: Iterable[Any], right: Iterable[Any]) -> ItemSet | frozenset[Any]:
    """``Y − Z`` — bitwise AND-NOT, or a hash anti-probe of the right side."""
    if type(left) is ItemSet and type(right) is ItemSet:
        return left - right
    return frozenset(_as_set(left).difference(_as_set(right)))


# ---------------------------------------------------------------------------
# Diagnostics


def substrate_summary() -> str:
    """One line describing the active kernels (used by the CLI)."""
    kernels = "numpy" if numpy_enabled() else "python"
    return f"columnar substrate: on ({kernels} kernels)"
