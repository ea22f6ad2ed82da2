"""Greedy polynomial-time variants of SJA.

Sec. 3: "If the number of conditions is large, one may employ the
efficient greedy versions of SJ and SJA that we present in [24]. Those
algorithms run in O(mn) time and still find optimal plans under many
realistic cost models," at the price of possible suboptimality under the
fully general model.  The extended version is not available, so we
implement two natural members of that family and measure their quality
against SJA in the C4 benchmark:

* :class:`SelectivityOrderOptimizer` — order conditions by ascending
  global selectivity (most selective first, the classic heuristic that
  shrinks binding sets fastest), then one SJA-style per-source pass:
  O(m·n + m·log m);
* :class:`GreedySJAOptimizer` — at each step pick the remaining
  condition whose best stage evaluation is cheapest given the current
  binding size, tie-breaking toward smaller result sets: O(m²·n).
"""

from __future__ import annotations

import math

from repro.optimize.search import (
    SearchOutcome,
    StagedEstimatorProblem,
    StagedOptimizer,
    cost_along,
)
from repro.optimize.sj import SJStagedProblem
from repro.optimize.sja import SJAStagedProblem
from repro.plans.builder import IntersectPolicy


class _MostSelectiveFirst(StagedOptimizer):
    """A fixed ordering — ascending global selectivity — costed once."""

    def _ordering(
        self, problem: StagedEstimatorProblem, m: int
    ) -> SearchOutcome:
        ordering = sorted(
            range(m),
            key=lambda index: problem.estimator.global_selectivity(
                problem.conditions[index]
            ),
        )
        return cost_along(problem, ordering)


class SelectivityOrderOptimizer(_MostSelectiveFirst):
    """One SJA pass over the most-selective-first condition ordering."""

    name = "SJA-G1"
    stage_rule = SJAStagedProblem
    description = "greedy (selectivity-ordered) semijoin-adaptive plan"


class GreedySJOptimizer(_MostSelectiveFirst):
    """Greedy ordering with per-stage *uniform* choices (the SJ analogue).

    The extended version [24] describes greedy variants of both SJ and
    SJA; this is the SJ-shaped one: conditions are scheduled
    most-selective-first and each stage compares the summed selection
    cost against the summed semijoin cost, exactly like one iteration of
    Fig. 3's loop B.  O(m·n + m·log m).
    """

    name = "SJ-G"
    stage_rule = SJStagedProblem
    intersect_policy = IntersectPolicy.AUTO
    description = "greedy (selectivity-ordered) semijoin plan"


class GreedySJAOptimizer(StagedOptimizer):
    """Stage-by-stage greedy ordering with per-source choices."""

    name = "SJA-G2"
    stage_rule = SJAStagedProblem
    description = "greedy (stage-by-stage) semijoin-adaptive plan"

    def _ordering(
        self, problem: StagedEstimatorProblem, m: int
    ) -> SearchOutcome:
        remaining = list(range(m))
        ordering: list[int] = []
        payloads = []
        total = 0.0
        prefix_size = 0.0
        while remaining:
            best_index = None
            best_stage = None
            best_selectivity = math.inf
            for index in remaining:
                if ordering:
                    stage = problem.later_stage(index, prefix_size)
                else:
                    stage = problem.first_stage(index)
                selectivity = problem.estimator.global_selectivity(
                    problem.conditions[index]
                )
                better = (
                    best_stage is None
                    or stage.cost < best_stage.cost - 1e-12
                    or (
                        abs(stage.cost - best_stage.cost) <= 1e-12
                        and selectivity < best_selectivity
                    )
                )
                if better:
                    best_index = index
                    best_stage = stage
                    best_selectivity = selectivity
            assert best_index is not None and best_stage is not None
            if ordering:
                prefix_size = problem.shrink(prefix_size, best_index)
            else:
                prefix_size = problem.first_prefix(best_index)
            ordering.append(best_index)
            payloads.append(best_stage.payload)
            total += best_stage.cost
            remaining.remove(best_index)
        return SearchOutcome(
            ordering=tuple(ordering),
            payloads=tuple(payloads),
            cost=total,
            strategy="exhaustive",
            orderings_considered=m,
        )

    def _plans_considered(self, outcome: SearchOutcome) -> int:
        # Step k costs every one of the m-k+1 remaining conditions.
        m = len(outcome.ordering)
        return m * (m + 1) // 2
