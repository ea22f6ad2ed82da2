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
* Boolean structure (AND/OR/NOT) is computed as mask algebra, never by
  re-walking rows; semijoins probe a hash set against the merge column;
  the mediator merge operators are hash-based with smallest-first
  ordering and early exit.

The numpy fast path runs whenever numpy imports — there is no option to
set.  :func:`set_numpy_enabled` exists so the parity tests can run the
python kernels as their reference in a process that has numpy.
"""

from __future__ import annotations

import operator
from itertools import compress
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
from repro.relational.schema import Schema

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


def numpy_available() -> bool:
    """True when numpy imported successfully in this process."""
    return _np is not None


def numpy_enabled() -> bool:
    """True when the numpy fast path is active for mask kernels."""
    if _np is None:
        return False
    if _numpy_override is None:
        return True
    return _numpy_override


def set_numpy_enabled(enabled: bool | None) -> bool | None:
    """Force the numpy path on/off; ``None`` restores the default
    (numpy whenever it imported).

    Returns the previous override so callers can restore it.  Forcing
    ``True`` without numpy installed is a silent no-op (the python
    kernels run) — the flag never makes imports fail.
    """
    global _numpy_override
    previous = _numpy_override
    _numpy_override = None if enabled is None else bool(enabled)
    return previous


# ---------------------------------------------------------------------------
# The columnar batch


class ColumnarTable:
    """An immutable per-attribute view of a relation's rows.

    Columns are plain Python lists (shared structure with the row
    tuples' values); numpy mirrors of eligible columns are built lazily
    on first use and cached.  A table built from *ragged* rows (arity
    mismatches injected by the fault simulator via
    ``Relation.unchecked``) reports ``well_formed = False`` and must not
    be used for vectorized evaluation — callers fall back to the row
    path, which reproduces the historical per-row semantics exactly.
    """

    __slots__ = ("schema", "length", "well_formed", "_columns", "_np_cache", "_slice_of")

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
        self._np_cache: dict[str, tuple[str, Any, Any] | None] = {}
        self._slice_of: tuple[ColumnarTable, Sequence[Any]] | None = None

    def where(self, mask: Sequence[Any], length: int) -> "ColumnarTable":
        """The table of the ``length`` rows at the true positions of ``mask``.

        Nothing is copied here: each column is sliced out of this
        table's the first time it is asked for, so a query that reads
        two attributes of a fetched relation slices two columns.  The
        slice of a ragged table is ragged too (it has no columns).
        """
        table = object.__new__(ColumnarTable)
        table.schema = self.schema
        table.length = length
        table.well_formed = self.well_formed
        table._columns = {}
        table._np_cache = {}
        table._slice_of = (self, mask)
        return table

    def column(self, name: str) -> list[Any] | None:
        """The raw python column, or None when the schema lacks it."""
        column = self._columns.get(name)
        if column is None and self._slice_of is not None:
            parent, mask = self._slice_of
            whole = parent.column(name)
            if whole is not None:
                column = self._columns[name] = list(compress(whole, mask))
        return column

    @property
    def merge_column(self) -> list[Any]:
        return self.column(self.schema.merge_attribute)

    # -- numpy mirrors ---------------------------------------------------

    def np_column(self, name: str) -> tuple[str, Any, Any] | None:
        """``(kind, data, null_mask)`` for the numpy path, or None.

        ``kind`` is ``"num"`` (float64, ints within ±2**53), ``"str"``
        (unicode array), or ``"bool"``; ``null_mask`` is a boolean array
        marking positions that held ``None`` (or ``None`` itself when
        the column has no nulls).  Columns mixing domains, containing
        huge integers, or holding foreign objects are ineligible and
        cached as ``None`` — their predicates run on the python kernels.
        """
        if name in self._np_cache:
            return self._np_cache[name]
        built = self._build_np(name)
        self._np_cache[name] = built
        return built

    def _build_np(self, name: str) -> tuple[str, Any, Any] | None:
        if _np is None:
            return None
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
            elif isinstance(value, str):
                value_kind = "str"
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
        elif kind == "bool":
            data = _np.fromiter(
                (False if v is None else v for v in values),
                dtype=bool,
                count=len(values),
            )
        else:
            data = _np.array(
                ["" if v is None else v for v in values], dtype=str
            )
        return (kind, data, null)


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


def _leaf_mask_python(condition: Condition, table: ColumnarTable) -> Mask:
    n = table.length
    if isinstance(condition, TrueCondition):
        return [True] * n
    if isinstance(condition, FalseCondition):
        return _false_mask(n)
    attribute = condition.attribute  # type: ignore[attr-defined]
    column = table.column(attribute)
    if column is None:
        column = _missing_column(condition, table)
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
        return None
    kind, data, null = built
    result = None
    if isinstance(condition, Comparison):
        value = condition.value
        if value is None:
            result = _np.zeros(n, dtype=bool)
        elif isinstance(value, bool):
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
        elif isinstance(value, str):
            if kind != "str":
                result = _np.zeros(n, dtype=bool)
            else:
                result = _COMPARE[condition.op](data, value)
        else:
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
        elif isinstance(low, str) and isinstance(high, str):
            if kind != "str":
                result = _np.zeros(n, dtype=bool)
            else:
                result = (data >= low) & (data <= high)
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
    array when the fast path is active) aligned with the table's rows.
    """
    if numpy_enabled():
        return _mask_np(condition, table)
    return _mask_python(condition, table)


def _selected(values: Iterable[Any], mask: Mask) -> Iterator[Any]:
    if _np is not None and isinstance(mask, _np.ndarray):
        mask = mask.tolist()
    # itertools.compress is the C-speed gather over a python mask.
    return compress(values, mask)


def select_items(table: ColumnarTable, condition: Condition) -> frozenset[Any]:
    """``sq(c, R)`` on the columnar batch: distinct qualifying items."""
    mask = predicate_mask(table, condition)
    return frozenset(_selected(table.merge_column, mask))


def select_row_tuples(
    table: ColumnarTable, rows: tuple[tuple[Any, ...], ...], condition: Condition
) -> list[tuple[Any, ...]]:
    """The qualifying row tuples (the thin row view over the mask)."""
    mask = predicate_mask(table, condition)
    return list(_selected(rows, mask))


def semijoin_items(
    table: ColumnarTable, condition: Condition, wanted: frozenset[Any]
) -> frozenset[Any]:
    """``sjq(c, R, Y)``: hash-probe the merge column, then mask.

    Membership is tested first — rows outside the binding set never see
    the predicate — and the predicate mask is combined by mask algebra.
    """
    if not wanted:
        return frozenset()
    member = [v in wanted for v in table.merge_column]
    if not any(member):
        return frozenset()
    mask = predicate_mask(table, condition)
    if _np is not None and isinstance(mask, _np.ndarray):
        mask = mask.tolist()
    combined = [a and b for a, b in zip(member, mask)]
    return frozenset(_selected(table.merge_column, combined))


def count_matching(table: ColumnarTable, condition: Condition) -> int:
    """How many rows satisfy ``condition`` (no materialization)."""
    mask = predicate_mask(table, condition)
    if _np is not None and isinstance(mask, _np.ndarray):
        return int(mask.sum())
    return sum(mask)


# ---------------------------------------------------------------------------
# Hash-based set operators for the mediator merge


def union_items(sets: Iterable[Iterable[Any]]) -> frozenset[Any]:
    """``X_1 ∪ ... ∪ X_k`` — hash union, largest input first.

    Starting from the largest operand means the accumulator never
    rehashes below its final size; the empty union is the empty set.
    """
    materialized = [s if isinstance(s, (set, frozenset)) else set(s) for s in sets]
    if not materialized:
        return frozenset()
    materialized.sort(key=len, reverse=True)
    result = set(materialized[0])
    for s in materialized[1:]:
        result.update(s)
    return frozenset(result)


def intersect_items(sets: Iterable[Iterable[Any]]) -> frozenset[Any]:
    """``X_1 ∩ ... ∩ X_k`` — hash intersect, smallest input first.

    Probing the smallest operand against the rest bounds work by the
    smallest set; an empty intermediate short-circuits.  Raises on an
    empty operand list (the identity would be the universe).
    """
    materialized = [s if isinstance(s, (set, frozenset)) else set(s) for s in sets]
    if not materialized:
        raise ValueError("intersection of zero sets is undefined")
    materialized.sort(key=len)
    result = set(materialized[0])
    for s in materialized[1:]:
        if not result:
            break
        result.intersection_update(s)
    return frozenset(result)


def difference_items(left: Iterable[Any], right: Iterable[Any]) -> frozenset[Any]:
    """``Y − Z`` via hash anti-probe of the right side."""
    anti = right if isinstance(right, (set, frozenset)) else set(right)
    if not anti:
        return frozenset(left)
    return frozenset(v for v in left if v not in anti)


# ---------------------------------------------------------------------------
# Diagnostics


def substrate_summary() -> str:
    """One line describing the active kernels (used by the CLI)."""
    kernels = "numpy" if numpy_enabled() else "python"
    return f"columnar substrate: on ({kernels} kernels)"
