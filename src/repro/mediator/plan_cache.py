"""Mediator-level plan cache: repeated fusion queries skip the optimizer.

A fusion query's optimal plan depends only on the query itself (merge
attribute + condition *set* — condition order is irrelevant to the plan
space), the sources planned over, and the statistics snapshot the cost
arithmetic read.  :class:`PlanCache` keys entries on exactly those three
things:

* a canonical **query fingerprint** — merge attribute plus the sorted
  SQL forms of the conditions, so ``a AND b`` and ``b AND a`` share an
  entry while any changed constant misses;
* the planned **source tuple** — replica-group representative sets can
  change as groups are declared;
* a **statistics fingerprint** — providers that learn over time (e.g.
  :class:`~repro.sources.observed.ObservedStatistics`) expose a
  ``fingerprint()`` that changes with every refresh, so cached plans
  computed from stale statistics are invalidated cleanly.  Providers
  without the method are treated as immutable per instance (true for
  :class:`~repro.sources.statistics.ExactStatistics` and friends).

Eviction is LRU with a fixed capacity: heavy-traffic mediators serve a
small working set of repeated queries (the paper's Sec. 1 motivation),
so a bounded cache captures nearly all hits without growing without
limit.

Beside the plans the cache keeps a **statement map**: SQL text to the
frozen query it parses to, keyed on the parser entry (``"fusion"`` or
``"any"``), the view name, the merge attribute and the text.  A
repeated text is then tokenised and parsed once
(:meth:`PlanCache.statement`); the mediator still checks the parsed
query against its own schema on every call, so one cache may serve
federations whose schemas differ.  A text that fails to parse is never
stored.  The statement map has its own LRU order under the same
capacity and lock, and leaves the plan counters, ``len()`` and
``summary()`` alone: those describe plans only.

The cache is thread-safe: one :class:`PlanCache` is shared by every
worker of a :class:`~repro.serve.MediatorService`, so lookups, inserts,
LRU reshuffling, and the hit/miss counters are all guarded by an
internal lock.  Two workers may still *optimize* the same novel query
concurrently (both miss, both put — the second put wins harmlessly);
the lock only guarantees the structure itself never corrupts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Sequence

from repro.errors import OptimizationError
from repro.optimize.base import OptimizationResult
from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.sources.statistics import StatisticsProvider

#: Default number of plans kept (LRU beyond this), and of statements.
DEFAULT_CAPACITY = 128

#: A statement key: parser entry, view name, merge attribute, SQL text.
StatementKey = tuple[str, str, str, str]


def query_fingerprint(query: FusionQuery) -> str:
    """Canonical text form: merge attribute + sorted condition SQL."""
    conditions = "&".join(
        sorted(condition.to_sql() for condition in query.conditions)
    )
    return f"{query.merge_attribute}|{conditions}"


def statistics_fingerprint(statistics: StatisticsProvider) -> str:
    """The provider's own ``fingerprint()`` or an identity token."""
    method = getattr(statistics, "fingerprint", None)
    if callable(method):
        return str(method())
    return f"{type(statistics).__name__}@{id(statistics):x}"


class PlanCache:
    """An LRU map from (query, sources, statistics) to optimization results.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.mediator.session import Mediator
        >>> federation, query = dmv_fig1()
        >>> mediator = Mediator(federation, plan_cache=PlanCache(capacity=8))
        >>> first = mediator.answer(query)
        >>> second = mediator.answer(query)   # optimizer not invoked
        >>> mediator.plan_cache.hits, mediator.plan_cache.misses
        (1, 1)
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise OptimizationError(
                f"plan cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[
            tuple[str, tuple[str, ...], str], OptimizationResult
        ] = OrderedDict()
        self._statements: OrderedDict[StatementKey, FusionQuery | AggregateQuery] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def of(value: "PlanCache | int | bool | None") -> "PlanCache | None":
        """The ``plan_cache=`` sugar of ``Mediator`` and the service:
        an instance as is, ``True`` the default capacity, an int that
        capacity, ``False`` / ``None`` no cache; nothing else."""
        if value is True:
            return PlanCache()
        if value is False:
            return None
        if isinstance(value, int):
            return PlanCache(capacity=value)
        if value is None or isinstance(value, PlanCache):
            return value
        raise OptimizationError(
            "plan_cache must be a PlanCache, an int, a bool or None, "
            f"got {type(value).__name__}"
        )

    def _key(
        self,
        query: FusionQuery,
        sources: Sequence[str],
        statistics: StatisticsProvider,
    ) -> tuple[str, tuple[str, ...], str]:
        return (
            query_fingerprint(query),
            tuple(sources),
            statistics_fingerprint(statistics),
        )

    def get(
        self,
        query: FusionQuery,
        sources: Sequence[str],
        statistics: StatisticsProvider,
    ) -> OptimizationResult | None:
        """The cached result, refreshed to most-recently-used, or None."""
        key = self._key(query, sources, statistics)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self,
        query: FusionQuery,
        sources: Sequence[str],
        statistics: StatisticsProvider,
        result: OptimizationResult,
    ) -> None:
        key = self._key(query, sources, statistics)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def statement(
        self,
        key: StatementKey,
        parse: Callable[[], FusionQuery | AggregateQuery],
    ) -> FusionQuery | AggregateQuery:
        """The query ``key``'s text parses to: ``parse()`` runs on the
        first lookup only.  A parse error propagates and stores nothing,
        so a bad text raises the same error on every call.  The parse
        runs outside the lock (two workers may both parse a new text;
        the second put wins harmlessly)."""
        with self._lock:
            query = self._statements.get(key)
            if query is not None:
                self._statements.move_to_end(key)
                return query
        query = parse()
        with self._lock:
            self._statements[key] = query
            while len(self._statements) > self.capacity:
                self._statements.popitem(last=False)
        return query

    def clear(self) -> None:
        """Drop every plan and statement and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._statements.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def summary(self) -> str:
        return (
            f"plan cache: {len(self)}/{self.capacity} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"(hit rate {self.hit_rate:.0%})"
        )
