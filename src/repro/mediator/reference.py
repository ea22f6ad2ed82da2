"""The correctness oracle: evaluate fusion queries on materialized ``U``.

The fusion-query semantics of Sec. 2.2 — ``SELECT u1.M FROM U u1, ..., U
um WHERE u1.M = ... = um.M AND c1 AND ... AND cm`` — says an item
qualifies iff, for *each* condition, *some* tuple of ``U`` with that
merge value satisfies it.  (The tuples may come from different sources;
that is the "fusion".)  Equivalently: intersect, over conditions, the
sets of items satisfying each condition anywhere.

This module computes that directly from ground-truth data, bypassing
wrappers and costs.  Every executed plan must return exactly this set —
the central property test of the whole library.
"""

from __future__ import annotations

from typing import Any

from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.relational.aggregates import (
    GroupedAggregates,
    finalize_partials,
    merge_partials,
    partial_aggregate_rows,
)
from repro.relational.algebra import intersect_many, select_items
from repro.relational.items import as_frozenset
from repro.relational.relation import Relation
from repro.sources.registry import Federation


def items_satisfying_anywhere(
    union_view: Relation, query: FusionQuery
) -> list[frozenset[Any]]:
    """Per condition, the set of items with a qualifying tuple in ``U``."""
    return [
        select_items(union_view, condition) for condition in query.conditions
    ]


def reference_answer(
    federation: Federation, query: FusionQuery
) -> frozenset[Any]:
    """The ground-truth fusion answer, from materialized data.

    Example:
        >>> from repro.sources.generators import dmv_fig1, DMV_FIG1_ANSWER
        >>> federation, query = dmv_fig1()
        >>> reference_answer(federation, query) == DMV_FIG1_ANSWER
        True
    """
    query.validate_against_schema(federation.schema)
    union_view = federation.union_view()
    return as_frozenset(intersect_many(items_satisfying_anywhere(union_view, query)))


def reference_aggregate(
    federation: Federation, query: AggregateQuery
) -> GroupedAggregates:
    """The ground-truth aggregation-fusion answer, from materialized data.

    The fusion part fixes the qualifying entity set; the aggregate then
    summarizes every source row belonging to a qualifying entity.
    Partials are computed per source and merged in sorted source order —
    the same arithmetic order as both execution paths, so float results
    are bit-identical, not merely approximately equal.
    """
    query.validate_against_schema(federation.schema)
    items = reference_answer(federation, query.fusion)
    merged: dict = {}
    for source in sorted(federation, key=lambda s: s.name):
        partials = partial_aggregate_rows(
            source.table.relation, query.specs, query.group_by, items=items
        )
        merged = merge_partials(merged, partials, query.specs)
    return finalize_partials(merged, query.specs, query.group_by)


def reference_answer_via_join(
    federation: Federation, query: FusionQuery
) -> frozenset[Any]:
    """The same answer computed by literally evaluating the m-way
    self-join of Sec. 2.2 (nested loops over ``U``).

    Exponentially slower; used only in tests as an independent second
    oracle confirming the per-condition-intersection semantics.
    """
    query.validate_against_schema(federation.schema)
    union_view = federation.union_view()
    schema = union_view.schema
    rows = [schema.row_to_dict(row) for row in union_view]
    merge = query.merge_attribute

    by_item: dict[Any, list[dict[str, Any]]] = {}
    for row in rows:
        by_item.setdefault(row[merge], []).append(row)

    answer = set()
    for item, item_rows in by_item.items():
        if all(
            any(condition.evaluate(row) for row in item_rows)
            for condition in query.conditions
        ):
            answer.add(item)
    return frozenset(answer)
