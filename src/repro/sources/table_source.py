"""The autonomous database behind each wrapper.

A :class:`TableSource` is the *source side* of the simulation: it owns a
relation and evaluates selection, semijoin, passed-binding, and load
requests against it.  It knows nothing about networks, capabilities, or
costs — those belong to :class:`~repro.sources.remote.RemoteSource`.
Separating the two keeps the data semantics testable in isolation and
lets the reference evaluator read the ground-truth data directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.relational.aggregates import AggregateSpec, Partials, partial_aggregate_rows
from repro.relational.algebra import select_items, select_rows, semijoin_items
from repro.relational.conditions import And, Comparison, Condition
from repro.relational.items import ItemSet
from repro.relational.relation import Relation


@dataclass
class SourceOpCounters:
    """How much work the source engine itself performed (diagnostics).

    ``rows_scanned`` counts the rows each request ranges over — the whole
    relation, one ``len`` per request — not the rows a kernel reads: a
    selection answered from a value index reads only the qualifying
    rows' ids and still counts the table.
    """

    selections: int = 0
    semijoins: int = 0
    binding_selections: int = 0
    loads: int = 0
    aggregates: int = 0
    rows_scanned: int = 0

    def reset(self) -> None:
        self.selections = 0
        self.semijoins = 0
        self.binding_selections = 0
        self.loads = 0
        self.aggregates = 0
        self.rows_scanned = 0


@dataclass
class TableSource:
    """An in-memory autonomous source relation ``R_j``.

    Example:
        >>> from repro.relational.schema import dmv_schema
        >>> from repro.relational.parser import parse_condition
        >>> src = TableSource(Relation("R1", dmv_schema(),
        ...     [("J55", "dui", 1993), ("T21", "sp", 1994)]))
        >>> src.selection(parse_condition("V = 'dui'"))
        ItemSet({'J55'})
    """

    relation: Relation
    counters: SourceOpCounters = field(default_factory=SourceOpCounters)

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def schema(self):
        return self.relation.schema

    def __len__(self) -> int:
        return len(self.relation)

    # ------------------------------------------------------------------
    # The operations of Sec. 2.1 / Sec. 4, evaluated on data.

    def selection(self, condition: Condition) -> ItemSet | frozenset[Any]:
        """``sq(c, R_j)``: items of tuples satisfying ``condition`` — an
        :class:`~repro.relational.items.ItemSet` unless a merge value is
        neither a ``str`` nor an ``int``."""
        self.counters.selections += 1
        self.counters.rows_scanned += len(self.relation)
        return select_items(self.relation, condition)

    def semijoin(
        self, condition: Condition, items: ItemSet | frozenset[Any]
    ) -> ItemSet | frozenset[Any]:
        """``sjq(c, R_j, Y)``: subset of ``items`` satisfying ``condition``."""
        self.counters.semijoins += 1
        self.counters.rows_scanned += len(self.relation)
        return semijoin_items(self.relation, condition, items)

    def selection_rows(self, condition: Condition) -> Relation:
        """``sq*(c, R_j)``: full rows (not just items) satisfying ``condition``.

        The one-phase strategy of Sec. 6 needs row-returning source
        queries; they are charged per row at the wrapper.
        """
        self.counters.selections += 1
        self.counters.rows_scanned += len(self.relation)
        keep = select_rows(self.relation, condition)
        return self.relation.derive(keep, name=f"{self.name}_rows")

    def binding_selection(self, condition: Condition, item: Any) -> bool:
        """``sq(c AND M = m, R_j)``: the passed-binding probe of Sec. 2.3.

        Returns True when the item satisfies the condition here — this is
        the unit the mediator uses to *emulate* a semijoin at sources
        without native support.
        """
        self.counters.binding_selections += 1
        self.counters.rows_scanned += len(self.relation)
        probe = And.of(
            condition,
            Comparison(self.schema.merge_attribute, "=", item),
        )
        return bool(select_items(self.relation, probe))

    def load(self) -> Relation:
        """``lq(R_j)``: the entire relation (Sec. 4's loading operation)."""
        self.counters.loads += 1
        self.counters.rows_scanned += len(self.relation)
        return self.relation

    def aggregate_partials(
        self,
        specs: tuple[AggregateSpec, ...],
        group_by: tuple[str, ...],
        items: ItemSet | frozenset[Any],
    ) -> Partials:
        """``aq(specs, R_j, Y)``: partial aggregate states over this source.

        Input rows are those whose merge attribute lies in ``items``
        (the fusion answer, an :class:`ItemSet` bitmap when interned:
        the membership mask is one flag gather); the mediator combines
        partials from every source.  Only reachable through wrappers
        declaring ``supports_aggregates``.
        """
        self.counters.aggregates += 1
        self.counters.rows_scanned += len(self.relation)
        return partial_aggregate_rows(
            self.relation, specs, group_by, items=items
        )
