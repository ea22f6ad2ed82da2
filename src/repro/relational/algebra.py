"""Item-set algebra: the local operations of the mediator.

Under simple plans the mediator combines *sets of items* (merge-attribute
values) with union and intersection (Sec. 2.3); postoptimized plans add
set difference and local selections over loaded relations (Sec. 4).
These are the data-level counterparts of the plan operators in
:mod:`repro.plans.operations` — the executor calls into this module.

Item sets are :class:`~repro.relational.items.ItemSet` bitmaps over the
process-wide item dictionary whenever the merge values are ``str`` /
``int`` — ``∪`` / ``∩`` / ``−`` are then integer ``|`` / ``&`` / ``& ~``
— and ``frozenset`` objects otherwise; every operator here takes either
kind (see :mod:`repro.relational.columnar` for the rule that mixes
them).  The executors decode a plan's answer once, at the end
(:func:`~repro.relational.items.as_frozenset`).

Every function here runs on the vectorized kernels in
:mod:`repro.relational.columnar`; only ragged fault-injected payloads
(``Relation.unchecked``) take the row-at-a-time dict evaluator.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.relational import columnar
from repro.relational.conditions import Condition
from repro.relational.items import EMPTY_ITEMS, ItemSet
from repro.relational.relation import Relation

#: What the functions below return: a bitmap, or the ``frozenset``
#: fallback for merge values that cannot be interned.
Items = ItemSet | frozenset


def select_rows(relation: Relation, condition: Condition) -> list[tuple[Any, ...]]:
    """All rows of ``relation`` satisfying ``condition``."""
    table = columnar.table_for(relation)
    if table is not None:
        return columnar.select_row_tuples(table, relation.rows, condition)
    predicate = _row_predicate(relation, condition)
    return [row for row in relation if predicate(row)]


def select_items(relation: Relation, condition: Condition) -> Items:
    """``sq(c, R)`` evaluated on data: the distinct items whose row satisfies c.

    This is the data-level semantics of the paper's selection query — the
    set of merge-attribute values of qualifying tuples.
    """
    table = columnar.table_for(relation)
    if table is not None:
        return columnar.select_items(table, condition)
    merge_pos = relation.schema.merge_position
    predicate = _row_predicate(relation, condition)
    return frozenset(row[merge_pos] for row in relation if predicate(row))


def semijoin_items(relation: Relation, condition: Condition, items: Iterable[Any]) -> Items:
    """``sjq(c, R, Y)`` evaluated on data: the subset of ``items`` that
    satisfy ``condition`` in ``relation``."""
    wanted = items if type(items) is ItemSet else frozenset(items)
    if not wanted:
        return EMPTY_ITEMS
    table = columnar.table_for(relation)
    if table is not None:
        return columnar.semijoin_items(table, condition, wanted)
    merge_pos = relation.schema.merge_position
    predicate = _row_predicate(relation, condition)
    return frozenset(
        row[merge_pos] for row in relation if row[merge_pos] in wanted and predicate(row)
    )


def project_items(relation: Relation) -> frozenset[Any]:
    """All distinct items in ``relation`` (projection onto M)."""
    return relation.items()


def union_many(sets: Iterable[Iterable[Any]]) -> Items:
    """``X := X_1 ∪ ... ∪ X_k`` (empty union is the empty set)."""
    return columnar.union_items(sets)


def intersect_many(sets: Iterable[Iterable[Any]]) -> Items:
    """``X := X_1 ∩ ... ∩ X_k``; raises on an empty intersection list."""
    return columnar.intersect_items(sets)


def difference(left: Iterable[Any], right: Iterable[Any]) -> Items:
    """``X := Y − Z`` — used by SJA+ to prune semijoin send-sets."""
    return columnar.difference_items(left, right)


def local_selection(relation: Relation, condition: Condition) -> Items:
    """``sq(c, Y)`` applied locally at the mediator on a loaded relation.

    After an ``lq(R_j)`` the mediator holds the full contents of the
    source and can evaluate any condition without further communication
    (Sec. 4, "Loading entire sources").  Identical semantics to
    :func:`select_items`; a separate name keeps executor traces honest
    about where work happened.
    """
    return select_items(relation, condition)


def _row_predicate(relation: Relation, condition: Condition):
    """The per-row predicate for ragged relations: ``row_to_dict`` is the
    only evaluator with defined behaviour for arity-mismatched rows."""
    schema = relation.schema
    return lambda row: condition.evaluate(schema.row_to_dict(row))
