"""Statistics mined from observed runs — no oracle required.

Sec. 3 of the paper leaves open where the optimizer's statistics come
from ("whatever information is available at query optimization time").
:class:`~repro.sources.statistics.ExactStatistics` answers with an
oracle; this module answers with *observation*: run a warm-up query,
then mine its :class:`~repro.runtime.trace.RuntimeTrace` — live, or
rebuilt from a recorded event log by
:meth:`~repro.runtime.trace.RuntimeTrace.runs` — for the quantities the
cost model actually consumes.

The mining exploits two identities that make the estimates robust even
when the per-source distinct count ``D_s`` is unknown:

* a successful ``sq(c, R_s)`` returns exactly ``n_sc = D_s * sel(s, c)``
  items — so ``sq_output_size`` (which the estimator computes as
  ``D_s * sel``) is *exact* no matter what ``D_s`` we assume, as long as
  ``selectivity`` reports ``n_sc / D_s`` against the same ``D_s``;
* a successful ``sjq(c, R_s, X)`` that ships ``trials`` bindings and
  gets ``hits`` back measures the match fraction
  ``coverage * sel = n_sc / U`` directly — ``D_s`` cancels.

Combining both views of the same ``(source, condition)`` pair even
yields a universe estimate: ``U ≈ n_sc * trials / hits``.  Semijoin
ratios are shrunk toward a prior with a pseudo-count weight, mirroring
:class:`repro.runtime.availability.ObservedAvailability`.

Unknown sources never raise: planning must survive a source the warm-up
did not touch, so every accessor falls back to the prior.  This also
keeps replica names (which serve traffic but are not planned against)
harmless.
"""

from __future__ import annotations

import statistics as _statistics
import threading
from typing import TYPE_CHECKING, Iterable

from repro.relational.conditions import Condition
from repro.runtime.faults import AttemptFate
from repro.runtime.trace import RuntimeTrace
from repro.sources.statistics import DEFAULT_SELECTIVITY, _clamp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import Event, EventLog

#: Distinct-item count assumed for a source no observed run touched.
DEFAULT_DISTINCT = 32


class ObservedStatistics:
    """A :class:`~repro.sources.statistics.StatisticsProvider` built from
    the traces of observed runs.

    Args:
        prior_selectivity: Selectivity reported for (source, condition)
            pairs with no evidence; also the shrinkage target for
            semijoin match ratios.
        prior_weight: Pseudo-count weight of the prior when blending
            with observed semijoin trials (0 = trust ratios outright).
        default_distinct: Distinct-item count assumed for sources with
            no load and no selection evidence.
        universe: Optional hard override of the item-universe size;
            when ``None`` it is estimated from paired evidence.
    """

    def __init__(
        self,
        prior_selectivity: float = DEFAULT_SELECTIVITY,
        prior_weight: float = 2.0,
        default_distinct: int = DEFAULT_DISTINCT,
        universe: int | None = None,
    ):
        self.prior_selectivity = prior_selectivity
        self.prior_weight = prior_weight
        self.default_distinct = default_distinct
        self._universe_override = universe
        #: Exact item counts returned by successful selection queries.
        self._sq_counts: dict[tuple[str, str], int] = {}
        #: Accumulated semijoin evidence: (bindings shipped, survivors).
        self._sjq: dict[tuple[str, str], list[int]] = {}
        #: Rows bulk-loaded per source (lq observations).
        self._rows: dict[str, int] = {}
        #: Largest selection answer seen per source (lower bound on D_s).
        self._sq_max: dict[str, int] = {}
        self._mined = 0
        self._version = 0
        # One provider is shared by every query of a serving tier:
        # concurrent observe() folds and planner reads must never see a
        # half-applied batch (reentrant: accessors call each other).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Mining

    def observe(self, traces: "Iterable[RuntimeTrace]") -> int:
        """Fold runs in, a trace each; returns how many attempts were mined.

        Only successful (``fate == "ok"``) attempts carry usable counts;
        failed and cancelled attempts are skipped.  Attempts are keyed
        by the *planned* source — the span's — so a hedge served by a
        replica is still evidence about the logical source's data.
        """
        mined = 0
        with self._lock:
            for trace in traces:
                for span in trace.spans:
                    source = span.source
                    key = (source, span.condition)
                    op = span.operation.kind.value
                    for attempt in span.attempts:
                        if attempt.fate is not AttemptFate.OK or (
                            op == "sjq" and attempt.items_sent <= 0
                        ):
                            continue
                        mined += 1
                        if op == "sq":
                            received = attempt.items_received
                            self._sq_counts[key] = received
                            self._sq_max[source] = max(
                                self._sq_max.get(source, 0), received
                            )
                        elif op == "sjq":
                            totals = self._sjq.setdefault(key, [0, 0])
                            totals[0] += attempt.items_sent
                            totals[1] += attempt.items_received
                        else:  # lq, the one other remote operation
                            self._rows[source] = attempt.rows_loaded
            self._mined += mined
            if mined:
                self._version += 1
        return mined

    def fingerprint(self) -> str:
        """Cache token: changes whenever new evidence is folded in.

        :class:`~repro.mediator.plan_cache.PlanCache` keys entries on
        this, so plans computed from stale statistics are invalidated by
        the next successful :meth:`observe`.
        """
        with self._lock:
            return f"observed@{id(self):x}:v{self._version}"

    @staticmethod
    def from_events(
        events: "EventLog | Iterable[Event]", **kwargs
    ) -> "ObservedStatistics":
        """Mine a recorded log: every run in it, through
        :meth:`RuntimeTrace.runs <repro.runtime.trace.RuntimeTrace.runs>`."""
        stats = ObservedStatistics(**kwargs)
        stats.observe(RuntimeTrace.runs(events))
        return stats

    @property
    def observations(self) -> int:
        """Total successful attempts mined so far."""
        return self._mined

    def sources_seen(self) -> list[str]:
        names = (
            set(self._rows)
            | {source for source, _ in self._sq_counts}
            | {source for source, _ in self._sjq}
        )
        return sorted(names)

    # ------------------------------------------------------------------
    # StatisticsProvider

    def cardinality(self, source_name: str) -> int:
        rows = self._rows.get(source_name)
        if rows is not None:
            return rows
        return self.distinct_items(source_name)

    def distinct_items(self, source_name: str) -> int:
        rows = self._rows.get(source_name)
        if rows is not None:
            # Items are distinct merge values, so D_s <= rows; a bulk
            # load is the best evidence we ever get.
            return max(rows, self._sq_max.get(source_name, 0), 1)
        floor = self._sq_max.get(source_name, 0)
        return max(floor, self.default_distinct)

    def universe_size(self) -> int:
        if self._universe_override is not None:
            return self._universe_override
        estimates = []
        for key, count in self._sq_counts.items():
            totals = self._sjq.get(key)
            if totals and totals[1] > 0 and count > 0:
                trials, hits = totals
                estimates.append(count * trials / hits)
        # Hard lower bound backed by evidence alone (loads and selection
        # answers), deliberately excluding the default-distinct prior so
        # a measured universe estimate is never drowned by an assumption.
        floor = max(
            (
                max(self._rows.get(name, 0), self._sq_max.get(name, 0))
                for name in self.sources_seen()
            ),
            default=0,
        )
        if estimates:
            return max(floor, round(_statistics.median(estimates)), 1)
        if self.sources_seen():
            # No overlap evidence: assume disjoint sources (the widest
            # universe consistent with what was seen).
            return max(
                floor,
                sum(
                    self.distinct_items(name)
                    for name in self.sources_seen()
                ),
            )
        return max(floor, self.default_distinct)

    def selectivity(self, source_name: str, condition: Condition) -> float:
        key = (source_name, condition.to_sql())
        distinct = self.distinct_items(source_name)
        count = self._sq_counts.get(key)
        if count is not None:
            return _clamp(count / max(distinct, 1))
        totals = self._sjq.get(key)
        if totals is not None:
            trials, hits = totals
            match_fraction = (
                self.prior_weight * self.prior_selectivity + hits
            ) / (self.prior_weight + trials)
            universe = self.universe_size()
            return _clamp(match_fraction * universe / max(distinct, 1))
        return self.prior_selectivity

    # ------------------------------------------------------------------
    # Reporting

    def report(self) -> str:
        """Fixed-width dump of the mined evidence, for CLI/tutorial use."""
        lines = [
            f"observed statistics: {self._mined} attempts mined, "
            f"universe ~{self.universe_size()}"
        ]
        lines.append("source   rows  distinct  evidence")
        for name in self.sources_seen():
            sq = sum(1 for s, _ in self._sq_counts if s == name)
            sjq = sum(1 for s, _ in self._sjq if s == name)
            rows = self._rows.get(name)
            lines.append(
                f"{name:<8} {('-' if rows is None else rows):>4}  "
                f"{self.distinct_items(name):>8}  "
                f"{sq} sq counts, {sjq} sjq ratios"
            )
        return "\n".join(lines)
