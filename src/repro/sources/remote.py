"""The wrapper the mediator talks to: capabilities + network.

A :class:`RemoteSource` fronts a :class:`~repro.sources.table_source.TableSource`
with everything that makes an Internet source an *Internet* source:

* capability enforcement (Sec. 2.3) — native semijoins, passed-binding
  emulation, or neither;
* traffic charging through a :class:`~repro.sources.network.LinkProfile`,
  recorded in a :class:`~repro.sources.network.TrafficLog`;
* batching of native semijoin binding sets when the wrapper caps the
  batch size.  (Faults are injected by the runtime engine, not here.)

Semijoin *emulation* lives here deliberately: the paper says the mediator
emulates, and this class is the mediator-side stub of the source, so each
per-binding probe is charged as its own request — which is exactly why
emulated semijoins are expensive and why SJA's per-source choice matters.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CapabilityError
from repro.relational.aggregates import AggregateSpec, Partials
from repro.relational.algebra import union_many
from repro.relational.conditions import Condition
from repro.relational.items import EMPTY_ITEMS, ItemSet, items_of
from repro.relational.relation import Relation
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.network import LinkProfile, TrafficLog
from repro.sources.table_source import TableSource


class RemoteSource:
    """A source as seen from the mediator: wrapper + link + capabilities.

    Example:
        >>> from repro.relational.schema import dmv_schema
        >>> from repro.relational.parser import parse_condition
        >>> table = TableSource(Relation("R1", dmv_schema(),
        ...     [("J55", "dui", 1993)]))
        >>> src = RemoteSource(table)
        >>> src.selection(parse_condition("V = 'dui'"))
        ItemSet({'J55'})
        >>> src.traffic.message_count
        1
    """

    def __init__(
        self,
        table: TableSource,
        capabilities: SourceCapabilities | None = None,
        link: LinkProfile | None = None,
    ):
        self.table = table
        self.capabilities = capabilities or SourceCapabilities.full()
        self.link = link or LinkProfile()
        self.traffic = TrafficLog()

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def schema(self):
        return self.table.schema

    def __repr__(self) -> str:
        return (
            f"RemoteSource({self.name!r}, rows={len(self.table)}, "
            f"semijoin={self.capabilities.semijoin.value})"
        )

    def reset_traffic(self) -> None:
        """Forget accumulated traffic (used between benchmark runs)."""
        self.traffic.clear()
        self.table.counters.reset()

    # ------------------------------------------------------------------
    # Wrapper operations

    def selection(self, condition: Condition) -> ItemSet | frozenset[Any]:
        """``sq(c, R_j)`` over the simulated link."""
        answer = self.table.selection(condition)
        self.traffic.charge(
            self.link, self.name, "sq", items_sent=0, items_received=len(answer)
        )
        return answer

    def semijoin(
        self, condition: Condition, items: ItemSet | frozenset[Any]
    ) -> ItemSet | frozenset[Any]:
        """``sjq(c, R_j, Y)``, dispatching on the wrapper's capability tier.

        * NATIVE: the binding set is shipped as it is in one request (or,
          if the wrapper caps batch sizes below ``|Y|``, in batches of
          its items in ``repr`` order), each answering with its
          qualifying subset.
        * EMULATED: one ``c AND M = m`` probe request per binding — the
          mediator-side emulation of Sec. 2.3.
        * UNSUPPORTED: raises :class:`CapabilityError` (infinite cost; the
          optimizer should never have routed a semijoin here).
        """
        support = self.capabilities.semijoin
        if support is SemijoinSupport.UNSUPPORTED:
            raise CapabilityError(
                f"source {self.name!r} supports neither semijoins nor "
                "passed bindings"
            )
        if not items:
            return EMPTY_ITEMS
        if support is SemijoinSupport.NATIVE:
            return self._native_semijoin(condition, items)
        return self._emulated_semijoin(condition, items)

    def _native_semijoin(
        self, condition: Condition, items: ItemSet | frozenset[Any]
    ) -> ItemSet | frozenset[Any]:
        batch_size = self.capabilities.max_semijoin_batch
        if batch_size is None or batch_size >= len(items):
            return self._semijoin_request(condition, items)
        ordered = sorted(items, key=repr)  # deterministic batching
        return union_many(
            self._semijoin_request(condition, frozenset(ordered[start : start + batch_size]))
            for start in range(0, len(ordered), batch_size)
        )

    def _semijoin_request(
        self, condition: Condition, batch: ItemSet | frozenset[Any]
    ) -> ItemSet | frozenset[Any]:
        matched = self.table.semijoin(condition, batch)
        self.traffic.charge(
            self.link,
            self.name,
            "sjq",
            items_sent=len(batch),
            items_received=len(matched),
        )
        return matched

    def _emulated_semijoin(
        self, condition: Condition, items: ItemSet | frozenset[Any]
    ) -> ItemSet | frozenset[Any]:
        answer: list[Any] = []
        for item in sorted(items, key=repr):
            matched = self.table.binding_selection(condition, item)
            self.traffic.charge(
                self.link,
                self.name,
                "sjq-emulated",
                items_sent=1,
                items_received=1 if matched else 0,
            )
            if matched:
                answer.append(item)
        return items_of(answer)

    def selection_rows(self, condition: Condition) -> Relation:
        """Row-returning selection (one-phase strategy, Sec. 6).

        Unlike :meth:`selection`, the answer ships whole tuples and is
        charged per row — more expensive per result, but it saves the
        second phase when most qualifying entities end up in the answer.
        """
        rows = self.table.selection_rows(condition)
        self.traffic.charge(
            self.link,
            self.name,
            "sq-rows",
            items_sent=0,
            items_received=0,
            rows_loaded=len(rows),
        )
        return rows

    def fetch_rows(self, items: ItemSet | frozenset[Any]) -> Relation:
        """Second-phase fetch (Sec. 1): full rows for the matched items.

        Fusion queries return merge-attribute values only; "if additional
        information on the matching entities is needed, a 'second phase'
        query would be issued".  Bindings are charged like semijoin
        sends; the answer is charged per *row* because whole tuples come
        back.  ``items`` is the fusion answer as the run left it (an
        :class:`~repro.relational.items.ItemSet` bitmap when interned);
        the returned relation is a slice of the table whose row tuples
        are built when first read.
        """
        rows = self.table.relation.restrict_to_items(items)
        self.traffic.charge(
            self.link,
            self.name,
            "fetch",
            items_sent=len(items),
            items_received=0,
            rows_loaded=len(rows),
        )
        return rows

    def aggregate(
        self,
        specs: tuple[AggregateSpec, ...],
        group_by: tuple[str, ...],
        items: ItemSet | frozenset[Any],
    ) -> Partials:
        """``aq``: partial-aggregate pushdown (PR 10).

        Ships the fusion-answer bindings (the run's bitmap, as
        :meth:`fetch_rows` takes them) and receives one partial-state
        row per group — charged like a semijoin send with a per-group
        answer, which is the whole point: for large entity sets the
        partials are a fraction of the raw-tuple fetch the mediator
        would otherwise pay for.  Only wrappers declaring
        ``supports_aggregates`` accept the request.
        """
        if not self.capabilities.supports_aggregates:
            raise CapabilityError(
                f"source {self.name!r} does not support partial aggregates"
            )
        partials = self.table.aggregate_partials(specs, group_by, items)
        self.traffic.charge(
            self.link,
            self.name,
            "aq",
            items_sent=len(items),
            items_received=len(partials) * max(1, len(specs)),
        )
        return partials

    def load(self) -> Relation:
        """``lq(R_j)``: fetch the entire relation (Sec. 4)."""
        if not self.capabilities.supports_load:
            raise CapabilityError(
                f"source {self.name!r} does not support loading its contents"
            )
        relation = self.table.load()
        self.traffic.charge(
            self.link,
            self.name,
            "lq",
            items_sent=0,
            items_received=0,
            rows_loaded=len(relation),
        )
        return relation
