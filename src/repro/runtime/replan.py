"""In-flight re-planning: mask dead sources, re-optimize, merge answers.

Hedging and breakers (:mod:`repro.runtime.engine`) recover an operation
*while it runs*; this module handles the case they cannot: an operation
exhausted its retry budget and no substitute could serve it, so the run
degraded.  The :class:`ResilientExecutor` then re-invokes the planner
on the residual problem — the same fusion query over the surviving
sources, with every dead source masked out and an unused substitute
swapped in where one exists — and executes the new plan on the *same*
engine, so circuit-breaker state carries across rounds and the replan
does not re-burn budget on sources already known dead.

Answers accumulate across rounds by union.  That is sound because fusion
answers are monotone in the evaluated sources: each round's (possibly
degraded) answer is a subset of the true answer — skipping a source only
ever under-fills some ``X_i = ∪_j sq(c_i, R_j)``, shrinking the final
intersection — so the union of subsets is still a subset.  Re-planning
can therefore only *add* confirmed answers, never invent spurious ones;
already-confirmed item sets are preserved verbatim.

Example:
    >>> from repro.sources.generators import dmv_fig1, replicate_federation
    >>> from repro.mediator.session import Mediator
    >>> federation, query = dmv_fig1()
    >>> federation = replicate_federation(federation, 2)
    >>> mediator = Mediator(federation, backend="runtime", replan=2)
    >>> sorted(mediator.replanner.run(query).items)
    ['J55', 'T21']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import CostModelError
from repro.mediator.executor import ExecutionResult
from repro.obs.events import ReplanEvent
from repro.optimize.base import OptimizationResult
from repro.query.fusion import FusionQuery
from repro.runtime.engine import RuntimeEngine
from repro.runtime.health import BreakerState
from repro.runtime.trace import OpStatus


@dataclass(frozen=True)
class ReplanRound:
    """One optimize-and-execute round of a resilient run."""

    round: int  # 0 = initial plan, 1.. = replans
    sources: tuple[str, ...]  # sources the optimizer planned over
    optimization: OptimizationResult
    result: ExecutionResult  # this round's engine run

    @property
    def dead_sources(self) -> tuple[str, ...]:
        """Planned sources of this round's degraded operations."""
        seen: list[str] = []
        for span in self.result.trace.remote_spans:
            if span.status is OpStatus.DEGRADED and span.source not in seen:
                seen.append(span.source)
        return tuple(seen)


@dataclass(frozen=True)
class ResilientResult:
    """The merged outcome of an initial run plus any replan rounds."""

    query: FusionQuery
    rounds: tuple[ReplanRound, ...]
    masked: tuple[str, ...]  # sources removed from planning as dead

    @property
    def items(self) -> frozenset[Any]:
        """Union of all rounds' answers (each a subset of the truth)."""
        merged: frozenset[Any] = frozenset()
        for round_ in self.rounds:
            merged |= round_.result.items
        return merged

    @property
    def replans(self) -> int:
        return len(self.rounds) - 1

    @property
    def complete(self) -> bool:
        """True when the final round finished with nothing degraded."""
        return self.rounds[-1].result.complete

    @property
    def makespan_s(self) -> float:
        """Total virtual time: rounds run back to back on one clock."""
        return sum(r.result.makespan_s for r in self.rounds)

    @property
    def total_cost(self) -> float:
        return sum(r.result.trace.total_cost for r in self.rounds)

    def summary(self) -> str:
        text = (
            f"{len(self.items)} items in {len(self.rounds)} round(s), "
            f"makespan {self.makespan_s:.3f}s, cost {self.total_cost:.1f}"
        )
        if self.masked:
            text += f", masked: {', '.join(self.masked)}"
        if not self.complete:
            text += " (still degraded)"
        return text


class ResilientExecutor:
    """Optimize → execute → re-plan around dead sources, bounded.

    Args:
        engine: The engine every round runs on.  Its health registry
            carries breaker and quarantine state from round to round;
            its recorder, if any, receives the ``replan`` events, and
            the executor advances that recorder's round counter and
            clock offset so event time stays monotone across re-plans.
        plan: The owner's planner, ``plan(query, sources) ->
            OptimizationResult``, asked once per round for a plan over
            the sources still standing (a
            :class:`~repro.mediator.session.Mediator` passes its own
            cached one).
        max_replans: How many re-planning rounds may follow the initial
            run (0 = plain execution, no re-planning).
    """

    def __init__(
        self,
        engine: RuntimeEngine,
        plan: Callable[[FusionQuery, tuple[str, ...]], OptimizationResult],
        max_replans: int = 2,
    ):
        if max_replans < 0:
            raise CostModelError(
                f"max_replans must be >= 0, got {max_replans}"
            )
        self.engine = engine
        self.federation = engine.federation
        self.recorder = engine.recorder
        self.plan = plan
        self.max_replans = max_replans

    def run(
        self,
        query: FusionQuery,
        source_names: Sequence[str] | None = None,
        budget_s: float | None = None,
    ) -> ResilientResult:
        """Execute ``query``, re-planning around dead sources as needed.

        When ``budget_s`` is given it bounds the *whole* resilient run:
        rounds share one clock, so each round's engine budget is the
        original budget minus the virtual time earlier rounds consumed,
        and re-planning stops once the budget is exhausted (the partial
        answer accumulated so far is returned on time instead).
        """
        query.validate_against_schema(self.federation.schema)
        if source_names is None:
            active = list(self.federation.representative_names)
        else:
            active = list(source_names)
        masked: list[str] = []
        rounds: list[ReplanRound] = []
        remaining_s = budget_s
        # The shared health registry may already be quarantining sources
        # (tripped by earlier queries); never plan onto them.
        for name in self.engine.health.quarantined_names():
            if name in active:
                self._mask_source(name, active, masked)
        for round_no in range(self.max_replans + 1):
            optimization = self.plan(query, tuple(active))
            recorder = self.recorder
            if recorder is not None:
                recorder.round = round_no
                recorder.record(
                    ReplanEvent(
                        recorder.clock_offset_s,
                        round_no,
                        optimization.optimizer,
                        sorted(active),
                        sorted(masked),
                        optimization.estimated_cost,
                    )
                )
            result = self.engine.run(optimization.plan, budget_s=remaining_s)
            if self.recorder is not None:
                # Rounds run back to back on one clock; shift the next
                # round's timestamps past everything this round emitted.
                self.recorder.clock_offset_s += result.makespan_s
            if remaining_s is not None:
                remaining_s -= result.makespan_s
            round_ = ReplanRound(
                round=round_no,
                sources=tuple(active),
                optimization=optimization,
                result=result,
            )
            rounds.append(round_)
            if result.complete:
                break
            if remaining_s is not None and remaining_s <= 0:
                break  # budget spent; return the partial union on time
            changed = False
            unusable = list(round_.dead_sources)
            # A round may also have quarantined a source on data
            # quality; replan around it exactly like a dead one.
            for name in self.engine.health.quarantined_names():
                if name in active and name not in unusable:
                    unusable.append(name)
            for dead in unusable:
                if self._mask_source(dead, active, masked):
                    changed = True
            if not active or not changed:
                break  # nothing left to reroute to; keep what we have
        return ResilientResult(
            query=query, rounds=tuple(rounds), masked=tuple(masked)
        )

    def _mask_source(
        self, dead: str, active: list[str], masked: list[str]
    ) -> bool:
        """Remove ``dead`` from planning, swapping in a substitute."""
        changed = False
        if dead not in masked:
            masked.append(dead)
        if dead in active:
            active.remove(dead)
            changed = True
        replacement = self._replacement(dead, active, masked)
        if replacement is not None:
            active.append(replacement)
            changed = True
        return changed

    def _replacement(
        self, dead: str, active: list[str], masked: list[str]
    ) -> str | None:
        """Best substitute for ``dead`` not already planned, dead, or
        quarantined."""
        for name in self.engine.substitutes_for(dead):
            if name not in active and name not in masked:
                if (
                    self.engine.health.state_of(name)
                    is BreakerState.QUARANTINED
                ):
                    continue
                return name
        return None
