"""Completeness-aware robust planning: optimize for the faulty setting.

The paper's cost model (Sec. 4) ranks plans by total work, implicitly
assuming every source answers.  :class:`RobustOptimizer` re-ranks a
small candidate set by the utility

    ``utility = cost + lambda * (1 - E[completeness]) * penalty``

where ``E[completeness]`` comes from propagating an
:class:`~repro.runtime.availability.AvailabilityModel` through each
candidate (:func:`~repro.runtime.availability.expected_completeness`)
and ``penalty`` normalizes "losing the whole answer" against the
cost-optimal plan's wire cost, so ``lambda`` is a unitless exchange
rate: at ``lambda = 1``, certain total loss is as bad as paying the
cheapest plan's cost a second time.

The candidate set wraps the existing SJA/SJA+ enumeration rather than
re-searching plan space:

* the cost-optimal SJA+ plan — listed first, so with ``lambda = 0``
  (or a perfect availability model) the stable argmin reproduces the
  cost-only choice exactly, with zero cost overhead;
* the un-postoptimized SJA plan and the FILTER plan over the same
  sources — differently shaped fallbacks with the same source set;
* when the federation declares replica groups and the executor has no
  transparent failover, the same three shapes over the *expanded*
  source set that plans every replica-group member as real work.
  These "dual-path" candidates pay duplicated wire cost to keep two
  independent paths to each condition alive — exactly the trade a high
  ``lambda`` asks for.  (With ``failover=True`` the executor already
  reaches mirrors via hedging/breakers/re-planning, so duplicating the
  work buys little completeness and the expansion is skipped.)

Re-planning integration: a
``Mediator(planning=Planning(optimizer="robust"), replan=...)``
re-ranks every replan round with the same utility, and an
:class:`~repro.runtime.availability.ObservedAvailability` model reads
the shared health registry live — sources that died in earlier rounds
are down-weighted automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.errors import CostModelError
from repro.optimize.base import OptimizationResult, Optimizer, _Stopwatch
from repro.optimize.search import DEFAULT_BEAM_WIDTH, PlanningBudget
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import build_filter_plan
from repro.plans.cost import estimate_plan_cost
from repro.plans.plan import Plan
from repro.query.fusion import FusionQuery
from repro.runtime.availability import (
    AvailabilityModel,
    CompletenessEstimate,
    expected_completeness,
)
from repro.sources.registry import Federation


@dataclass(frozen=True)
class CandidateScore:
    """One candidate plan's position on the cost/completeness frontier."""

    label: str
    cost: float
    expected_completeness: float
    utility: float

    def summary(self) -> str:
        return (
            f"{self.label}: cost {self.cost:.1f}, "
            f"E[compl] {self.expected_completeness:.3f}, "
            f"utility {self.utility:.1f}"
        )


@dataclass(frozen=True)
class RobustOptimizationResult(OptimizationResult):
    """An :class:`OptimizationResult` plus the robust ranking evidence."""

    expected_completeness: float = 1.0
    utility: float = 0.0
    candidates: tuple[CandidateScore, ...] = ()

    def summary(self) -> str:
        return (
            super().summary()
            + f"; E[completeness] {self.expected_completeness:.3f}"
            f" over {len(self.candidates)} candidates"
        )


class RobustOptimizer(Optimizer):
    """Re-rank cost-optimal candidates by expected completeness.

    Args:
        federation: Supplies replica groups for the completeness model
            and for the dual-path source expansion.
        availability: Per-source success probabilities (default:
            perfect — the optimizer then degenerates to SJA+).
        robustness: The ``lambda`` exchange rate (>= 0); 0 reproduces
            the SJA+ choice exactly.
        failover: True when the executor can transparently serve
            planned operations from mirrors (hedging, breakers,
            re-planning); dual-path expansion is skipped because the
            redundancy already exists at execution time.
        search: Plan-search strategy of the SJA search under SJA+, which
            also serves the un-postoptimized SJA candidates.
        beam_width: Beam width for ``search="beam"`` (ditto).
        planning_budget: Anytime-search budget of that search, exposed
            as ``self.planning_budget`` so the serving tier can re-arm
            it per query.
    """

    name = "robust"

    def __init__(
        self,
        federation: Federation,
        availability: AvailabilityModel | None = None,
        robustness: float = 1.0,
        failover: bool = False,
        search: str = "auto",
        beam_width: int = DEFAULT_BEAM_WIDTH,
        planning_budget: "PlanningBudget | None" = None,
    ):
        if not (math.isfinite(robustness) and robustness >= 0):
            raise CostModelError(
                f"robustness must be finite and >= 0, got {robustness}"
            )
        self.federation = federation
        self.availability = availability or AvailabilityModel.perfect()
        self.robustness = robustness
        self.failover = failover
        self.base = SJAPlusOptimizer(
            search=search,
            beam_width=beam_width,
            planning_budget=planning_budget,
        )

    @property
    def planning_budget(self) -> "PlanningBudget | None":
        """The SJA search's anytime budget."""
        return self.base.planning_budget

    # ------------------------------------------------------------------

    def _expanded_sources(
        self, source_names: Sequence[str]
    ) -> tuple[str, ...]:
        """``source_names`` with every planned group's mirrors added.

        Members join in federation order; a group contributes all its
        members as soon as any one of them is planned.  Sources outside
        every group pass through untouched.
        """
        planned = set(source_names)
        groups_planned = set()
        for index, group in enumerate(self.federation.replica_groups):
            if planned & set(group):
                groups_planned.add(index)
        expanded = []
        for name in self.federation.source_names:
            in_group = any(
                name in self.federation.replica_groups[index]
                for index in groups_planned
            )
            if name in planned or in_group:
                expanded.append(name)
        return tuple(expanded)

    def _score(
        self,
        plan: Plan,
        cost_model: CostModel,
        estimator: SizeEstimator,
        penalty: float,
    ) -> tuple[float, CompletenessEstimate, float]:
        cost = estimate_plan_cost(plan, cost_model, estimator).total
        estimate = expected_completeness(
            plan,
            self.federation,
            estimator,
            self.availability,
            failover=self.failover,
        )
        utility = cost + self.robustness * (1.0 - estimate.overall) * penalty
        return cost, estimate, utility

    def optimize(
        self,
        query: FusionQuery,
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ) -> RobustOptimizationResult:
        self._check_inputs(query, source_names)
        base_result = self.base.optimize(
            query, source_names, cost_model, estimator
        )
        with _Stopwatch() as watch:
            # (label, plan, search stats) — the base candidate first, so
            # ties (lambda = 0, perfect availability) keep its plan.
            candidates: list[tuple[str, Plan, int, int, int]] = [
                (
                    self.base.name,
                    base_result.plan,
                    base_result.orderings_considered,
                    base_result.plans_considered,
                    base_result.subsets_considered,
                )
            ]

            def add_shapes(names: Sequence[str], tag: str) -> None:
                sja_result = self.base.sja.optimize(query, names, cost_model, estimator)
                candidates.append(
                    (
                        f"SJA{tag}",
                        sja_result.plan,
                        sja_result.orderings_considered,
                        sja_result.plans_considered,
                        sja_result.subsets_considered,
                    )
                )
                candidates.append(
                    (
                        f"FILTER{tag}",
                        build_filter_plan(
                            query, names, description=f"filter plan{tag}"
                        ),
                        1,
                        1,
                        0,
                    )
                )

            add_shapes(source_names, "")
            expanded = self._expanded_sources(source_names)
            if not self.failover and expanded != tuple(source_names):
                expanded_base = self.base.optimize(
                    query, expanded, cost_model, estimator
                )
                candidates.append(
                    (
                        f"{self.base.name} dual-path",
                        expanded_base.plan,
                        expanded_base.orderings_considered,
                        expanded_base.plans_considered,
                        expanded_base.subsets_considered,
                    )
                )
                add_shapes(expanded, " dual-path")

            penalty = max(
                estimate_plan_cost(
                    base_result.plan, cost_model, estimator
                ).total,
                1.0,
            )
            scores: list[CandidateScore] = []
            best_index = 0
            best_utility = math.inf
            best: tuple[float, CompletenessEstimate, float] | None = None
            for index, (label, plan, *__) in enumerate(candidates):
                cost, estimate, utility = self._score(
                    plan, cost_model, estimator, penalty
                )
                scores.append(
                    CandidateScore(
                        label=label,
                        cost=cost,
                        expected_completeness=estimate.overall,
                        utility=utility,
                    )
                )
                if utility < best_utility - 1e-9:
                    best_index = index
                    best_utility = utility
                    best = (cost, estimate, utility)
            assert best is not None
            chosen_label, chosen_plan, *__ = candidates[best_index]
            cost, estimate, utility = best
        return RobustOptimizationResult(
            plan=chosen_plan,
            estimated_cost=self._finite_or_raise(cost, "the robust plan"),
            optimizer=self.name,
            orderings_considered=sum(c[2] for c in candidates),
            plans_considered=sum(c[3] for c in candidates),
            elapsed_s=base_result.elapsed_s + watch.elapsed,
            search_strategy=base_result.search_strategy,
            subsets_considered=sum(c[4] for c in candidates),
            budget_exhausted=base_result.budget_exhausted,
            expected_completeness=estimate.overall,
            utility=utility,
            candidates=tuple(scores),
        )
