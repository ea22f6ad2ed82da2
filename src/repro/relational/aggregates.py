"""Decomposable aggregates over the fused entity set.

Aggregation fusion queries (`COUNT/SUM/AVG/MIN/MAX … GROUP BY`) run
*after* fusion: the fusion answer fixes the qualifying entity set, and
the aggregate summarizes every union-view row belonging to a qualifying
entity.  All five functions are **decomposable** — each source can
compute a partial state over its own rows and the mediator combines
partials — which is what makes partial-aggregate pushdown sound
(Dong et al.'s conflict-aware fusion aggregates the same way).

Determinism contract: a SUM/AVG total is the *left fold* ``((0 + v1) +
v2) + …`` over a group's non-null values in row order — what
``merge_partial`` continues across sources — and the mediator always
merges per-source partials in sorted source order, so the pushdown path
and the mediator-side path over raw tuples produce bit-identical
floats.  The fold is ``functools.reduce(operator.add, …)``: builtin
``sum`` is compensated for floats from python 3.12 on, ``math.fsum`` and
numpy's pairwise ``sum`` round differently again, so none of them may
stand in for it.  Only where no addition can round — exactly-``int``
values whose sums stay within 2**53 — do numpy reductions compute the
same states (:func:`_numpy_partials`).  MIN/MAX keep the first extremal
value they meet (``min`` / ``max`` do), so a ``1`` / ``1.0`` tie
returns the same object on every path.

Partial states (one per :class:`AggregateSpec`):

======== =====================================================
COUNT    ``int`` — rows (``*``) or non-null values (attribute)
SUM      ``(total, nonnull_count)`` — SUM of no rows is NULL
AVG      ``(total, nonnull_count)``
MIN/MAX  the extreme non-null value, or ``None``
======== =====================================================
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, repeat
from operator import add
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConditionError
from repro.relational import columnar
from repro.relational.items import ItemSet
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema

#: Aggregate functions supported by aggregation fusion queries.
AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")

#: Group key for the global (no GROUP BY) aggregate.
GLOBAL_GROUP: tuple[Any, ...] = ()

GroupKey = tuple
PartialState = Any
Partials = dict  # GroupKey -> tuple[PartialState, ...]


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list: ``func(attribute)``.

    ``attribute`` is ``None`` only for ``COUNT(*)``.  Specs are frozen
    values so plans and caches can key on them.
    """

    func: str
    attribute: str | None = None

    def __post_init__(self) -> None:
        func = self.func.lower()
        object.__setattr__(self, "func", func)
        if func not in AGGREGATE_FUNCS:
            raise ConditionError(
                f"unknown aggregate function {self.func!r}; "
                f"expected one of {AGGREGATE_FUNCS}"
            )
        if self.attribute is None and func != "count":
            raise ConditionError(f"{func.upper()}(*) is not defined; only COUNT(*)")

    @property
    def label(self) -> str:
        """The SQL rendering, used as the output column name."""
        return f"{self.func.upper()}({self.attribute or '*'})"

    def validate_against_schema(self, schema: Schema) -> None:
        if self.attribute is None:
            return
        attribute = schema.attribute(self.attribute)
        if self.func in ("sum", "avg") and attribute.data_type not in (
            DataType.INT,
            DataType.FLOAT,
        ):
            raise ConditionError(
                f"{self.label} requires a numeric attribute; "
                f"{self.attribute!r} is {attribute.data_type.name}"
            )

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class GroupedAggregates:
    """The finalized result of an aggregation fusion query.

    ``groups`` holds ``(key, values)`` pairs — one per group, sorted by
    the repr of the key so renderings are byte-identical across runs
    regardless of which path (pushdown or mediator-side) produced them.
    """

    group_by: tuple[str, ...]
    specs: tuple[AggregateSpec, ...]
    groups: tuple[tuple[GroupKey, tuple[Any, ...]], ...] = field(default=())

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.group_by + tuple(spec.label for spec in self.specs)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Each group as one dict keyed by group attributes + labels."""
        out = []
        for key, values in self.groups:
            row = dict(zip(self.group_by, key))
            row.update(zip((s.label for s in self.specs), values))
            out.append(row)
        return out

    def pretty(self) -> str:
        """A small fixed-width rendering for the CLI and traces."""
        names = self.column_names
        rows = [key + values for key, values in self.groups]
        widths = [
            max(len(str(name)), *(len(str(r[i])) for r in rows), 1)
            if rows
            else len(str(name))
            for i, name in enumerate(names)
        ]
        header = " | ".join(str(n).ljust(w) for n, w in zip(names, widths))
        bar = "-+-".join("-" * w for w in widths)
        lines = [header, bar]
        for r in rows:
            lines.append(" | ".join(str(v).ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Partial-state kernels


def _total(values: Sequence[Any]) -> PartialState:
    return (reduce(add, values, 0), len(values))


def _least(values: Sequence[Any]) -> PartialState:
    return min(values, default=None)


def _greatest(values: Sequence[Any]) -> PartialState:
    return max(values, default=None)


#: The partial state of one group, from its non-null values in row
#: order.  SUM and AVG share a state, so they share a fold.
_FOLDS: dict[str, Callable[[Sequence[Any]], PartialState]] = {
    "count": len,
    "sum": _total,
    "avg": _total,
    "min": _least,
    "max": _greatest,
}


def merge_partial(spec: AggregateSpec, left: PartialState, right: PartialState) -> PartialState:
    """Combine two partial states for one aggregate (left ⊕ right).

    Not commutative for float SUM/AVG rounding — callers must merge in
    sorted source order (both execution paths do).
    """
    func = spec.func
    if func == "count":
        return left + right
    if func in ("sum", "avg"):
        return (left[0] + right[0], left[1] + right[1])
    if left is None:
        return right
    if right is None:
        return left
    if func == "min":
        return right if right < left else left
    return right if right > left else left


def finalize_partial(spec: AggregateSpec, state: PartialState) -> Any:
    """The SQL value of a completed partial state."""
    func = spec.func
    if func == "count":
        return state
    if func == "sum":
        total, count = state
        return total if count else None
    if func == "avg":
        total, count = state
        return total / count if count else None
    return state


# ---------------------------------------------------------------------------
# Relation-level aggregation (a columnar group-by)


def _padded_column(relation: Relation, name: str) -> list[Any]:
    """One column of a ragged relation: positional extraction with a
    bounds check (missing positions read as NULL, mirroring ``row.get``
    in the dict path)."""
    try:
        pos = relation.schema.position(name)
    except Exception:
        return [None] * len(relation.rows)
    return [row[pos] if pos < len(row) else None for row in relation.rows]


def _bucket(keys: list[Any] | None, values: Sequence[Any]) -> dict[Any, Sequence[Any]]:
    """``values`` split by group, row order kept inside each group.

    ``keys`` is the group key of every row, or ``None`` when there is no
    GROUP BY: then every row — if there is one — is in the global group.
    """
    if keys is None:
        return {GLOBAL_GROUP: values} if values else {}
    buckets: dict[Any, list[Any]] = defaultdict(list)
    for key, value in zip(keys, values):
        buckets[key].append(value)
    return buckets


def _without_nulls(values: Sequence[Any]) -> Sequence[Any]:
    return [v for v in values if v is not None] if None in values else values


def partial_aggregate_rows(
    relation: Relation,
    specs: Iterable[AggregateSpec],
    group_by: Iterable[str] = (),
    items: ItemSet | frozenset[Any] | None = None,
) -> Partials:
    """Partial aggregate states for one relation's rows.

    ``items`` (when given) restricts input rows to those whose merge
    attribute is in the set — this is exactly what a source computes
    during partial-aggregate pushdown, with ``items`` the fusion
    answer's :class:`~repro.relational.items.ItemSet` bitmap.  The
    restriction is a slice of the relation's columnar view, as a
    ``fetch_rows`` answer is; only columns are read, so a fetched
    relation's row tuples are never built here.

    Two folds give the same states to the bit.  When numpy serves the
    rows, every GROUP BY key is dictionary encoded and every aggregated
    attribute is exactly ``int`` with no sum able to pass 2**53,
    :func:`_numpy_partials` reduces whole columns by group code.
    Otherwise the python fold buckets each distinct attribute by the
    group keys once and finishes every group with C-level folds over
    its bucket, in row order.
    """
    specs = tuple(specs)
    group_by = tuple(group_by)
    table = columnar.table_for(relation)
    if table is None:
        # Ragged rows: the null-padded merge values, probed one by one.
        member = None
        if items is not None:
            merge_values = _padded_column(relation, relation.schema.merge_attribute)
            member = list(map(items.__contains__, merge_values))

        def column(name: str) -> list[Any]:
            values = _padded_column(relation, name)
            return values if member is None else list(compress(values, member))

        n = len(relation.rows) if member is None else member.count(True)
        return _python_partials(column, n, specs, group_by)
    if items is not None:
        table = table.where(columnar.member_mask(table, items))
    # Measured crossover 32–48 rows (12 groups; COUNT/SUM/AVG/MIN/MAX of
    # an INT column; see DESIGN "Columnar substrate"), below the
    # predicate kernels' 64, so their size rule serves.
    if columnar.numpy_serves(table.length):
        partials = _numpy_partials(table, specs, group_by)
        if partials is not None:
            return partials

    def column(name: str) -> list[Any]:
        values = table.column(name)
        return [None] * table.length if values is None else values

    return _python_partials(column, table.length, specs, group_by)


def _python_partials(
    column: Callable[[str], list[Any]],
    n: int,
    specs: tuple[AggregateSpec, ...],
    group_by: tuple[str, ...],
) -> Partials:
    """The python fold over ``n`` rows whose columns ``column`` returns."""
    # One GROUP BY attribute is the common case: its raw values hash
    # faster than 1-tuples of them, so keys become tuples at the end.
    key_columns = [column(name) for name in group_by]
    if not key_columns:
        keys, as_key = None, tuple
    elif len(key_columns) == 1:
        keys, as_key = key_columns[0], lambda value: (value,)
    else:
        keys, as_key = list(zip(*key_columns)), tuple

    attributes = dict.fromkeys(spec.attribute for spec in specs if spec.attribute is not None)
    buckets = {name: _bucket(keys, column(name)) for name in attributes}
    # COUNT(*) asks for the group sizes: every bucketed column knows them.
    rows_of = next(iter(buckets.values())) if buckets else _bucket(keys, range(n))
    sizes = {key: len(rows) for key, rows in rows_of.items()}
    nonnull = {
        name: {key: _without_nulls(values) for key, values in groups.items()}
        for name, groups in buckets.items()
    }
    slots = [(_FOLDS[spec.func], spec.attribute) for spec in specs]
    states: dict[Any, dict[Any, PartialState]] = {(len, None): sizes}
    for fold, name in slots:
        if (fold, name) not in states:
            states[fold, name] = {key: fold(values) for key, values in nonnull[name].items()}
    return {as_key(key): [states[slot][key] for slot in slots] for key in sizes}


def _numpy_partials(
    table: columnar.ColumnarTable,
    specs: tuple[AggregateSpec, ...],
    group_by: tuple[str, ...],
) -> Partials | None:
    """The python fold's states by numpy reductions over group codes, or
    ``None`` when they could differ from it by a bit.

    Each state equals its python counterpart exactly: group sizes and
    non-null counts are ``bincount`` counts; a SUM is a ``bincount``
    of float64 weights that are exact integers, whose every partial sum
    stays within ±2**53 (checked: max |v| × rows), so no addition
    rounds; MIN/MAX are ``minimum.at`` / ``maximum.at`` over exact
    values, and an ``int`` has no distinct equal twin a first-met rule
    could pick.  ``tolist`` hands python ``int`` values back; an all-null
    group's extreme is ``None`` and its total ``0``.  Groups keep
    first-row order and the key objects of the source table's index.
    """
    import numpy as np

    n = table.length
    mirrors = {}
    for spec in specs:
        name = spec.attribute
        if name is not None and name not in mirrors:
            mirror = table.int_mirror(name)
            # In python ints: a float product could round down onto 2**53.
            if mirror is None or (n and int(np.abs(mirror[0]).max()) * n > columnar.SAFE_INT):
                return None
            mirrors[name] = mirror
    encodings = [table.encoded(name) for name in group_by]
    if None in encodings:
        return None
    if not encodings:
        if not n:
            return {}
        keys, codes = [GLOBAL_GROUP], np.zeros(n, dtype=np.uint8)
    else:
        index, codes = encodings[0]
        keys = [(value,) for value in index]
        for index, more in encodings[1:]:
            # Multiply the codes out, then renumber in first-row order.
            values, width = list(index), len(index)
            order, codes = columnar.first_appearance(
                codes.astype(np.int64) * width + more, len(keys) * width
            )
            keys = [keys[code // width] + (values[code % width],) for code in order.tolist()]
    groups = len(keys)
    sizes = np.bincount(codes, minlength=groups)
    # Per attribute: each non-null value's group, the value, and how many
    # non-null values every group has.
    present = {}
    for name, (data, null) in mirrors.items():
        if null is None:
            present[name] = codes, data, sizes
        else:
            at = codes[~null]
            present[name] = at, data[~null], np.bincount(at, minlength=groups)
    # SUM and AVG share a state, as in the python fold.
    slots = [("sum" if spec.func == "avg" else spec.func, spec.attribute) for spec in specs]
    states: dict[tuple[str, str | None], list[Any]] = {("count", None): sizes.tolist()}
    for func, name in slots:
        if (func, name) in states:
            continue
        at, values, counts = present[name]
        if func == "count":
            states[func, name] = counts.tolist()
        elif func == "sum":
            totals = np.bincount(at, weights=values, minlength=groups)
            states[func, name] = list(zip(totals.astype(np.int64).tolist(), counts.tolist()))
        else:
            ufunc, start = (np.minimum, np.inf) if func == "min" else (np.maximum, -np.inf)
            extremes = np.full(groups, start)
            ufunc.at(extremes, at, values)
            empty = counts == 0
            extremes[empty] = 0
            states[func, name] = [
                None if missing else value
                for value, missing in zip(extremes.astype(np.int64).tolist(), empty.tolist())
            ]
    rows = zip(*(states[slot] for slot in slots)) if slots else repeat(())
    return {key: list(row) for key, row in zip(keys, rows)}


def merge_partials(
    accumulated: Partials,
    incoming: Mapping,
    specs: Iterable[AggregateSpec],
) -> Partials:
    """Fold ``incoming`` partials into ``accumulated`` (mutates + returns).

    Order-sensitive for float sums: the mediator calls this once per
    source, in sorted source order, on both execution paths.
    """
    specs = tuple(specs)
    for key, states in incoming.items():
        mine = accumulated.get(key)
        if mine is None:
            accumulated[key] = list(states)
            continue
        for j, spec in enumerate(specs):
            mine[j] = merge_partial(spec, mine[j], states[j])
    return accumulated


def finalize_partials(
    partials: Mapping,
    specs: Iterable[AggregateSpec],
    group_by: Iterable[str] = (),
) -> GroupedAggregates:
    """Finalize merged partials into a deterministic result."""
    specs = tuple(specs)
    groups = tuple(
        sorted(
            (
                (key, tuple(finalize_partial(s, st) for s, st in zip(specs, states)))
                for key, states in partials.items()
            ),
            key=lambda pair: repr(pair[0]),
        )
    )
    return GroupedAggregates(
        group_by=tuple(group_by), specs=specs, groups=groups
    )


def aggregate_rows(
    relation: Relation,
    specs: Iterable[AggregateSpec],
    group_by: Iterable[str] = (),
    items: frozenset[Any] | None = None,
) -> GroupedAggregates:
    """One-shot aggregate of a single relation (partial + finalize)."""
    specs = tuple(specs)
    group_by = tuple(group_by)
    return finalize_partials(
        partial_aggregate_rows(relation, specs, group_by, items),
        specs,
        group_by,
    )


def partials_to_wire(partials: Partials) -> list[tuple[Any, ...]]:
    """Partials as a deterministic list of ``(key, states...)`` tuples.

    This is the shape a remote source "ships" to the mediator; its
    length is what the traffic model charges for (one row per group).
    """
    return [
        (key, *map(tuple_or_value, states))
        for key, states in sorted(partials.items(), key=lambda p: repr(p[0]))
    ]


def tuple_or_value(state: PartialState) -> PartialState:
    return tuple(state) if isinstance(state, list) else state
