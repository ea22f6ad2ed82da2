"""The SJA+ algorithm (Sec. 4.1): SJA followed by postoptimization.

"First, it mimics SJA to obtain the best semijoin-adaptive plan ...
Then, it uses the difference operation to prune the semijoin sets, in
all the semijoin queries ... Finally, it considers the option of loading
entire source contents to further improve the plan."  Complexity
O(m!·m·n + m·n): the search term is SJA's, the postoptimization is
linear in the plan.

The resulting plans leave the simple-plan space (they use difference,
``lq``, and local selections), which is why this is a local
postoptimization rather than an up-front search: extending SJA to
consider set difference systematically would be exponential in ``n``
(Sec. 4.1, last paragraph).

Reported ``estimated_cost`` uses the generic plan coster — the only
ruler able to price difference-pruned and load-rewritten plans — so it
is directly comparable to costing SJA's plan with the same coster.
"""

from __future__ import annotations

from typing import Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.optimize.base import OptimizationResult, Optimizer, _Stopwatch
from repro.optimize.postopt import (
    apply_difference_pruning,
    apply_source_loading,
)
from repro.optimize.search import DEFAULT_BEAM_WIDTH, PlanningBudget
from repro.optimize.sja import SJAOptimizer
from repro.plans.cost import estimate_plan_cost
from repro.query.fusion import FusionQuery


class SJAPlusOptimizer(Optimizer):
    """SJA plus difference pruning and source loading.

    Both postoptimization passes always run; the C6 ablation applies
    them one at a time through :mod:`repro.optimize.postopt`.

    Args:
        search: Plan-search strategy of the underlying SJA search.
        beam_width: Beam width for ``search="beam"``.
        planning_budget: Anytime-search budget of the SJA search; also
            exposed as ``self.planning_budget`` so the serving tier can
            re-arm it per query.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.costs.charge import ChargeCostModel
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> result = SJAPlusOptimizer().optimize(
        ...     query, federation.source_names, model, estimator)
        >>> result.optimizer
        'SJA+'
    """

    name = "SJA+"

    def __init__(
        self,
        search: str = "auto",
        beam_width: int = DEFAULT_BEAM_WIDTH,
        planning_budget: "PlanningBudget | None" = None,
    ):
        self.sja = SJAOptimizer(
            search=search,
            beam_width=beam_width,
            planning_budget=planning_budget,
        )

    @property
    def planning_budget(self) -> "PlanningBudget | None":
        """The SJA search's anytime budget."""
        return self.sja.planning_budget

    def optimize(
        self,
        query: FusionQuery,
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ) -> OptimizationResult:
        self._check_inputs(query, source_names)
        base_result = self.sja.optimize(
            query, source_names, cost_model, estimator
        )
        with _Stopwatch() as watch:
            plan = apply_difference_pruning(base_result.plan)
            breakdown = estimate_plan_cost(plan, cost_model, estimator)
            loaded = apply_source_loading(
                plan, cost_model, estimator, breakdown=breakdown
            )
            if loaded is not plan:  # rewritten: price what was built
                plan = loaded
                breakdown = estimate_plan_cost(plan, cost_model, estimator)
            estimated = breakdown.total
        return OptimizationResult(
            plan=plan.with_description(
                plan.description.replace(
                    self.sja.name + " ", ""
                ) or "SJA+ postoptimized plan"
            ),
            estimated_cost=self._finite_or_raise(estimated, "the SJA+ plan"),
            optimizer=self.name,
            orderings_considered=base_result.orderings_considered,
            plans_considered=base_result.plans_considered + 1,
            elapsed_s=base_result.elapsed_s + watch.elapsed,
            search_strategy=base_result.search_strategy,
            subsets_considered=base_result.subsets_considered,
            budget_exhausted=base_result.budget_exhausted,
        )
