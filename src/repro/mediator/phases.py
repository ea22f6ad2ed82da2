"""One-phase vs two-phase record retrieval (Sec. 1 and Sec. 6).

The paper deliberately studies the *two-phase* approach — the fusion
query returns merge-attribute values; full records come in a second
phase — and names "moving away from the two-phase approach" as future
work, noting that one-phase plans "return other attributes in addition
to the merge attributes and this takes us out of the space of simple
plans."

This module implements both strategies and a cost-based chooser:

* **two-phase** — optimize + execute the item-level fusion plan, then
  ``fetch_rows`` of just the matches from every source;
* **one-phase** — issue *row-returning* selections ``sq*(c_i, R_j)``
  for every condition at every source, fuse locally, and keep the rows
  of matching entities (a filter-shaped plan over rows: no second
  round-trip, but every qualifying tuple travels, matched or not);
* **auto** — estimate both (using the shared statistics) and run the
  cheaper one.

The crossover is exactly the paper's intuition: two-phase wins when
conditions are selective relative to the answer ("we do not pay the
price of fetching full records until we know which ones are needed");
one-phase wins when most qualifying entities make it into the answer.

Both strategies return the same *entities*; the record sets differ
slightly by construction: two-phase fetches **all** rows of matched
entities, one-phase returns the rows that **qualified** under some
condition (a superset per condition, a subset per entity).  The
``items`` field is the ground truth either way.

"Every source" means one source per replica group
(:attr:`~repro.sources.registry.Federation.representative_names`), as
the fusion plan itself is planned: a mirror holds its representative's
rows, so reading it too would double every record and its cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.costs.estimates import SizeEstimator
from repro.mediator.session import Mediator
from repro.query.fusion import FusionQuery
from repro.relational.algebra import intersect_many
from repro.relational.relation import Relation
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource


class PhaseStrategy(enum.Enum):
    """How to retrieve the full records of matching entities."""

    TWO_PHASE = "two-phase"
    ONE_PHASE = "one-phase"
    AUTO = "auto"


@dataclass
class RecordAnswer:
    """Matched entities with their full rows, plus strategy accounting."""

    items: frozenset[Any]
    records: Relation
    strategy: PhaseStrategy
    actual_cost: float
    estimated_two_phase: float
    estimated_one_phase: float

    def summary(self) -> str:
        return (
            f"{len(self.items)} entities / {len(self.records)} rows via "
            f"{self.strategy.value}; actual cost {self.actual_cost:.1f} "
            f"(estimates: two-phase {self.estimated_two_phase:.1f}, "
            f"one-phase {self.estimated_one_phase:.1f})"
        )


def _representatives(federation: Federation) -> list[RemoteSource]:
    """One source per replica group, in federation order."""
    return [federation.source(name) for name in federation.representative_names]


def _rows_per_item(mediator: Mediator, source_name: str) -> float:
    statistics = mediator.statistics
    distinct = statistics.distinct_items(source_name)
    if distinct == 0:
        return 0.0
    return statistics.cardinality(source_name) / distinct


def estimate_one_phase_cost(mediator: Mediator, query: FusionQuery) -> float:
    """Expected cost of row-returning selections for every (c_i, R_j)."""
    total = 0.0
    for source in _representatives(mediator.federation):
        link = source.link
        ratio = _rows_per_item(mediator, source.name)
        for condition in query.conditions:
            expected_items = mediator.estimator.sq_output_size(
                condition, source.name
            )
            total += link.request_overhead + (
                expected_items * ratio * link.per_row_load
            )
    return total


def estimate_two_phase_cost(mediator: Mediator, query: FusionQuery) -> float:
    """Expected cost: the phase-1 plan :meth:`Mediator.answer` runs (over
    one source per replica group, from the plan cache when there is
    one) + the record fetch."""
    plan_result = mediator.plan(query)
    federation = mediator.federation
    # A mirror is no independent witness of an item: the answer size is
    # estimated over the representatives the fetch reads.
    answer_size = SizeEstimator(
        mediator.statistics, federation.representative_names
    ).answer_size(query.conditions)
    fetch = 0.0
    for source in _representatives(federation):
        link = source.link
        expected_rows = (
            answer_size
            * mediator.estimator.coverage(source.name)
            * _rows_per_item(mediator, source.name)
        )
        fetch += (
            link.request_overhead
            + answer_size * link.per_item_send
            + expected_rows * link.per_row_load
        )
    return plan_result.estimated_cost + fetch


def _run_two_phase(mediator: Mediator, query: FusionQuery) -> tuple[
    frozenset[Any], Relation, float
]:
    federation = mediator.federation
    before = federation.total_traffic_cost()
    answer = mediator.answer(query)
    records = mediator.fetch_records(answer.execution.item_set)
    return answer.items, records, federation.total_traffic_cost() - before


def _run_one_phase(mediator: Mediator, query: FusionQuery) -> tuple[
    frozenset[Any], Relation, float
]:
    federation = mediator.federation
    before = federation.total_traffic_cost()
    per_condition_items = []
    all_rows: list[Relation] = []
    merge_position = federation.schema.merge_position
    for condition in query.conditions:
        satisfied: set[Any] = set()
        for source in _representatives(federation):
            rows = source.selection_rows(condition)
            all_rows.append(rows)
            satisfied.update(row[merge_position] for row in rows)
        per_condition_items.append(frozenset(satisfied))
    items = intersect_many(per_condition_items)
    # Keep only matching entities, once each (several conditions may
    # return the same tuple).
    matched = Relation.union_all("one_phase_rows", all_rows).restrict_to_items(items)
    records = matched.derive(dict.fromkeys(matched.rows), name="matched_records")
    return items, records, federation.total_traffic_cost() - before


def answer_with_records(
    mediator: Mediator,
    query: FusionQuery | str,
    strategy: PhaseStrategy = PhaseStrategy.AUTO,
) -> RecordAnswer:
    """Retrieve matching entities *with* their full records.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> federation, query = dmv_fig1()
        >>> mediator = Mediator(federation)
        >>> result = answer_with_records(mediator, query)
        >>> sorted(result.items)
        ['J55', 'T21']
        >>> len(result.records) > 0
        True
    """
    query = mediator._coerce(query)
    estimated_two = estimate_two_phase_cost(mediator, query)
    estimated_one = estimate_one_phase_cost(mediator, query)
    chosen = strategy
    if strategy is PhaseStrategy.AUTO:
        chosen = (
            PhaseStrategy.ONE_PHASE
            if estimated_one < estimated_two
            else PhaseStrategy.TWO_PHASE
        )
    if chosen is PhaseStrategy.ONE_PHASE:
        items, records, cost = _run_one_phase(mediator, query)
    else:
        items, records, cost = _run_two_phase(mediator, query)
    return RecordAnswer(
        items=items,
        records=records,
        strategy=chosen,
        actual_cost=cost,
        estimated_two_phase=estimated_two,
        estimated_one_phase=estimated_one,
    )
