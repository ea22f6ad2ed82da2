"""The federation: the ordered set of sources forming the union view U.

A :class:`Federation` owns the :class:`~repro.sources.remote.RemoteSource`
wrappers participating in a fusion query and enforces the framework
assumption of Sec. 2.1: every source exports a relation over the *same*
schema, including the merge attribute.  It also materializes ``U`` for
the reference evaluator (a simulation-only oracle — the real mediator
never does this unless a plan says ``lq``).

Internet sources are replicated and overlapping (the Sec. 1 motivation:
nothing partitions the data in advance), and the resilience layer of
:mod:`repro.runtime` exploits that redundancy.  A federation can
therefore *declare* replica groups — sets of sources that mirror one
another — and *derive* a substitutability map from measured row overlap:
source B can stand in for source A exactly when B's rows contain A's,
because every fusion plan only ever unions per-source contributions, so
substituting a containing source loses nothing and can never invent an
answer that is not already in the union view.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import SchemaError, UnknownSourceError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.remote import RemoteSource


class Federation:
    """An ordered, name-addressable collection of remote sources.

    Args:
        sources: The member sources (non-empty, compatible schemas).
        name: The union view's name (the paper's ``U``).
        replica_groups: Optional groups of source names declared to
            mirror one another (see :meth:`declare_replicas`).

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> federation, query = dmv_fig1()
        >>> federation.size
        3
        >>> [s.name for s in federation]
        ['R1', 'R2', 'R3']
    """

    def __init__(
        self,
        sources: Sequence[RemoteSource],
        name: str = "U",
        replica_groups: Sequence[Sequence[str]] = (),
    ):
        if not sources:
            raise SchemaError("a federation requires at least one source")
        self.name = name
        self._sources: list[RemoteSource] = list(sources)
        self._by_name: dict[str, RemoteSource] = {}
        schema = self._sources[0].schema
        for source in self._sources:
            if source.name in self._by_name:
                raise SchemaError(f"duplicate source name {source.name!r}")
            if not source.schema.compatible_with(schema):
                raise SchemaError(
                    f"source {source.name!r} schema {source.schema} is not "
                    f"compatible with federation schema {schema}"
                )
            self._by_name[source.name] = source
        self.schema: Schema = schema
        self._replica_group_of: dict[str, int] = {}
        self._replica_groups: list[tuple[str, ...]] = []
        for group in replica_groups:
            self.declare_replicas(*group)

    # ------------------------------------------------------------------
    # Collection protocol

    def __iter__(self) -> Iterator[RemoteSource]:
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    @property
    def size(self) -> int:
        """The paper's ``n`` — the number of sources."""
        return len(self._sources)

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(source.name for source in self._sources)

    def source(self, name: str) -> RemoteSource:
        """Look a source up by name, raising if unknown."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSourceError(
                f"unknown source {name!r}; federation has {self.source_names}"
            ) from None

    # ------------------------------------------------------------------
    # Replication and substitutability

    def declare_replicas(self, *names: str) -> None:
        """Declare that ``names`` are replicas (mirrors) of one another.

        Replicas are assumed to serve identical content, so the runtime
        may transparently send any operation aimed at one member to
        another (hedged dispatch, breaker rerouting).  A source belongs
        to at most one group.
        """
        if len(names) < 2:
            raise SchemaError("a replica group needs at least two sources")
        if len(set(names)) != len(names):
            raise SchemaError(f"replica group {names!r} repeats a source")
        for member in names:
            self.source(member)  # raises UnknownSourceError
            if member in self._replica_group_of:
                raise SchemaError(
                    f"source {member!r} already belongs to a replica group"
                )
        index = len(self._replica_groups)
        self._replica_groups.append(tuple(names))
        for member in names:
            self._replica_group_of[member] = index

    @property
    def replica_groups(self) -> tuple[tuple[str, ...], ...]:
        """The declared replica groups, in declaration order."""
        return tuple(self._replica_groups)

    def replicas_of(self, name: str) -> tuple[str, ...]:
        """The declared mirrors of ``name`` (excluding ``name`` itself)."""
        self.source(name)
        index = self._replica_group_of.get(name)
        if index is None:
            return ()
        return tuple(
            member for member in self._replica_groups[index] if member != name
        )

    def group_of(self, name: str) -> tuple[str, ...]:
        """``name``'s full replica group, in declaration order.

        Unlike :meth:`replicas_of` the source itself is included, and a
        source outside every group yields the singleton ``(name,)`` —
        callers walking "all members that could serve this source's
        work" (availability math, load balancing) need no special case.
        """
        self.source(name)
        index = self._replica_group_of.get(name)
        if index is None:
            return (name,)
        return self._replica_groups[index]

    @property
    def representative_names(self) -> tuple[str, ...]:
        """One source per replica group plus every ungrouped source.

        Planning over representatives avoids charging every mirror for
        the same logical work; the mirrors stay available as failover
        capacity for the resilience layer.
        """
        chosen: list[str] = []
        seen_groups: set[int] = set()
        for source in self._sources:
            index = self._replica_group_of.get(source.name)
            if index is None:
                chosen.append(source.name)
            elif index not in seen_groups:
                seen_groups.add(index)
                chosen.append(source.name)
        return tuple(chosen)

    def substitutability(
        self, min_containment: float = 1.0
    ) -> dict[str, tuple[str, ...]]:
        """Overlap-derived substitutes for every source.

        Source B substitutes for source A when at least
        ``min_containment`` of A's rows also appear at B: fusion plans
        only union per-source contributions, so at full containment the
        swap is lossless, and below it the swap recovers exactly the
        shared fraction — never a spurious item, because B's rows are
        already part of the union view.  Reads ground-truth tables
        (simulation oracle, like :meth:`union_view`); a deployed
        mediator would mine the same map from query-log overlap.

        Declared replicas come first in each substitute list; derived
        substitutes follow in descending containment, ties in
        federation order.
        """
        if not 0.0 < min_containment <= 1.0:
            raise SchemaError(
                f"min_containment must be in (0, 1], got {min_containment}"
            )
        row_sets = {
            source.name: frozenset(source.table.relation.rows)
            for source in self._sources
        }
        result: dict[str, tuple[str, ...]] = {}
        for subject in self._sources:
            declared = self.replicas_of(subject.name)
            mine = row_sets[subject.name]
            scored: list[tuple[float, int, str]] = []
            for position, other in enumerate(self._sources):
                if other.name == subject.name or other.name in declared:
                    continue
                containment = (
                    len(mine & row_sets[other.name]) / len(mine)
                    if mine
                    else 1.0
                )
                if containment >= min_containment:
                    scored.append((-containment, position, other.name))
            result[subject.name] = declared + tuple(
                name for __, __, name in sorted(scored)
            )
        return result

    # ------------------------------------------------------------------
    # Oracle / accounting helpers

    def union_view(self) -> Relation:
        """Materialize ``U`` from ground-truth data (simulation oracle).

        Reads the underlying tables directly, bypassing wrappers and
        charges — only the reference evaluator and statistics collectors
        may use this.
        """
        return Relation.union_all(
            self.name, (source.table.relation for source in self._sources)
        )

    def all_items(self) -> frozenset:
        """Every distinct merge-attribute value across all sources."""
        return self.union_view().items()

    def reset_traffic(self) -> None:
        """Clear every source's traffic log (between measured runs)."""
        for source in self._sources:
            source.reset_traffic()

    def total_traffic_cost(self) -> float:
        """Sum of actual request costs across all sources."""
        return sum(source.traffic.total_cost for source in self._sources)

    def total_messages(self) -> int:
        return sum(source.traffic.message_count for source in self._sources)

    def describe(self) -> str:
        """Multi-line summary of the federation used by examples."""
        lines = [f"Federation {self.name!r}: {self.size} sources, schema {self.schema}"]
        for source in self._sources:
            lines.append(
                f"  {source.name}: {len(source.table)} rows, "
                f"semijoin={source.capabilities.semijoin.value}, "
                f"overhead={source.link.request_overhead}, "
                f"send/recv={source.link.per_item_send}/{source.link.per_item_receive}"
            )
        for group in self._replica_groups:
            lines.append(f"  replicas: {' = '.join(group)}")
        return "\n".join(lines)
