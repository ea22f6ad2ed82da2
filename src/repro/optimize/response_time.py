"""Response-time-aware planning (the paper's Sec. 6 future work).

"In this paper, we focused on minimizing the total work in executing a
query. One could also consider minimizing the *response time* of a
query in a parallel execution model. This is a future direction..."

:class:`ResponseTimeSJAOptimizer` explores the same space as SJA —
orderings × per-source choices — but scores candidates by *estimated
makespan* under the parallel execution model of
:mod:`repro.mediator.schedule` instead of summed cost:

* for each ordering, each (condition, source) pair picks the option
  (selection vs semijoin) with the smaller estimated duration
  (time-greedy: a source's stage time is what it contributes to the
  stage's parallel frontier);
* the resulting plan is scheduled and the ordering with the smallest
  makespan wins.

This is a heuristic, not an optimum — per-source time-greedy choices
can interact through the schedule — but it exposes the real tension the
paper anticipated: filter plans finish in one parallel round while
semijoin chains serialize on ``X_{i-1}``, so the total-work winner and
the response-time winner often differ (benchmark R1).

Makespan is *not* stage-additive (selections pipeline past stage
boundaries in :mod:`repro.mediator.schedule`), so the subset strategies
of :mod:`repro.optimize.search` cannot score it exactly.  The search is
always ``auto``: up to the factorial budget every ordering is scored by
the true schedule; past it the subset DP (or, past that, the default
beam) searches an additive *stage-frontier surrogate* — each stage
costs the maximum per-source time it adds — and the surviving
ordering(s) are re-scored by the true schedule.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Callable, Iterable, Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.mediator.schedule import Schedule, estimated_response_time
from repro.optimize.base import OptimizationResult, Optimizer, _Stopwatch
from repro.optimize.search import (
    SearchOutcome,
    StagedEstimatorProblem,
    StageOutcome,
    beam_search,
    cost_along,
    resolve_strategy,
    search_ordering,
)
from repro.plans.builder import (
    IntersectPolicy,
    StagedChoice,
    build_staged_plan,
)
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Condition
from repro.sources.capabilities import SemijoinSupport
from repro.sources.registry import Federation


class ResponseTimeStagedProblem(StagedEstimatorProblem):
    """Additive surrogate for makespan: per-stage parallel frontier.

    Each (condition, source) pair takes the option with the smaller
    estimated duration (time-greedy); a stage costs ``max`` over sources
    of that duration — the wall-clock the stage adds if nothing
    pipelines across its boundary.  Additive by construction, so the
    subset strategies apply; the true schedule re-scores survivors.
    Link timings live on the federation, so the rule is built over one.
    """

    def __init__(
        self, conditions, source_names, cost_model, estimator, federation
    ):
        super().__init__(conditions, source_names, cost_model, estimator)
        self.federation = federation

    def first_stage(self, index: int) -> StageOutcome:
        condition = self.conditions[index]
        frontier = 0.0
        for source_name in self.source_names:
            frontier = max(
                frontier, self._selection_time(condition, source_name)
            )
        payload = tuple([StagedChoice.SELECTION] * len(self.source_names))
        return StageOutcome(frontier, payload)

    def later_stage(self, index: int, prefix_size: float) -> StageOutcome:
        condition = self.conditions[index]
        frontier = 0.0
        stage_choices = []
        for source_name, (__, semijoin) in zip(
            self.source_names, self.terms(index)
        ):
            choice, duration = self._source_timing(
                condition, source_name, prefix_size, semijoin
            )
            stage_choices.append(choice)
            frontier = max(frontier, duration)
        return StageOutcome(frontier, tuple(stage_choices))

    def _selection_time(self, condition: Condition, source_name: str) -> float:
        source = self.federation.source(source_name)
        return source.link.request_time_s(
            0,
            math.ceil(self.estimator.sq_output_size(condition, source_name)),
        )

    def _source_timing(
        self,
        condition: Condition,
        source_name: str,
        prefix_size: float,
        semijoin_cost: Callable[[float], float],
    ) -> tuple[StagedChoice, float]:
        """Time-greedy option for one (condition, source) and its duration."""
        source = self.federation.source(source_name)
        selection_time = self._selection_time(condition, source_name)
        if source.capabilities.semijoin is SemijoinSupport.UNSUPPORTED:
            return StagedChoice.SELECTION, selection_time
        if not math.isfinite(semijoin_cost(prefix_size)):
            return StagedChoice.SELECTION, selection_time
        bindings = math.ceil(prefix_size)
        received = math.ceil(
            self.estimator.sjq_output_size(condition, source_name, prefix_size)
        )
        if source.capabilities.semijoin is SemijoinSupport.EMULATED:
            semijoin_time = bindings * source.link.request_time_s(1, 1)
        else:
            requests = source.capabilities.semijoin_requests(max(bindings, 1))
            semijoin_time = source.link.request_time_s(bindings, received)
            semijoin_time += (requests - 1) * 2 * source.link.latency_s
        if selection_time <= semijoin_time:
            return StagedChoice.SELECTION, selection_time
        return StagedChoice.SEMIJOIN, semijoin_time


class ResponseTimeSJAOptimizer(Optimizer):
    """SJA-shaped search scored by estimated parallel makespan.

    Unlike the cost-based optimizers this one needs the federation
    itself (link timings live there), so it is constructed over one.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.costs.charge import ChargeCostModel
        >>> from repro.costs.estimates import SizeEstimator
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> optimizer = ResponseTimeSJAOptimizer(federation)
        >>> result = optimizer.optimize(query, federation.source_names,
        ...                             model, estimator)
        >>> result.optimizer
        'SJA-RT'
    """

    name = "SJA-RT"

    def __init__(self, federation: Federation):
        self.federation = federation
        #: Makespan of the winning plan (seconds); set by optimize().
        self.last_schedule: Schedule | None = None

    def optimize(
        self,
        query: FusionQuery,
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ) -> OptimizationResult:
        self._check_inputs(query, source_names)
        m = query.arity
        resolved = resolve_strategy("auto", m)
        best_schedule: Schedule | None = None
        best_plan = None
        orderings = 0
        subsets = 0
        with _Stopwatch() as watch:
            problem = ResponseTimeStagedProblem(
                query.conditions,
                source_names,
                cost_model,
                estimator,
                self.federation,
            )
            # Every candidate is re-scored by the true schedule, which
            # pipelines across stages: all m! orderings under
            # ``exhaustive``; under the subset strategies the winner of
            # the additive surrogate (the survivors, for beam).
            candidates: Iterable[SearchOutcome]
            if resolved == "exhaustive":
                candidates = (
                    cost_along(problem, ordering)
                    for ordering in permutations(range(m))
                )
            elif resolved == "beam":
                candidates = beam_search(problem, m)
            else:
                candidates = (search_ordering(problem, m, resolved),)
            for outcome in candidates:
                orderings += outcome.orderings_considered
                subsets = max(subsets, outcome.subsets_considered)
                plan = build_staged_plan(
                    query,
                    outcome.ordering,
                    outcome.payloads,
                    source_names,
                    intersect_policy=IntersectPolicy.ALWAYS,
                )
                schedule = estimated_response_time(
                    plan, self.federation, estimator
                )
                if (
                    best_schedule is None
                    or schedule.makespan_s < best_schedule.makespan_s
                ):
                    best_schedule = schedule
                    best_plan = plan
            assert best_plan is not None and best_schedule is not None
        self.last_schedule = best_schedule
        return OptimizationResult(
            plan=best_plan.with_description(
                "response-time optimized semijoin-adaptive plan"
            ),
            estimated_cost=best_schedule.makespan_s,
            optimizer=self.name,
            orderings_considered=orderings,
            plans_considered=orderings,
            elapsed_s=watch.elapsed,
            search_strategy=resolved,
            subsets_considered=subsets,
        )
