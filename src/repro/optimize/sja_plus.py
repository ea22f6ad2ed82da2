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
from repro.errors import CostModelError
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

    Args:
        base: The optimizer producing the staged plan to postoptimize
            (defaults to :class:`~repro.optimize.sja.SJAOptimizer`; a
            greedy variant can be substituted for large ``m``).
        prune_difference: Apply the difference-pruning pass.
        load_sources: Apply the source-loading pass.
        search: Plan-search strategy handed to the default base
            optimizer.  A supplied ``base`` is configured itself, so
            passing this (or the next two) with it raises
            :class:`~repro.errors.CostModelError`.
        beam_width: Beam width for ``search="beam"``.
        planning_budget: Anytime-search budget handed to the default
            base optimizer; also exposed as ``self.planning_budget`` so
            the serving tier can re-arm it per query.

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
        base: Optimizer | None = None,
        prune_difference: bool = True,
        load_sources: bool = True,
        search: str = "auto",
        beam_width: int = DEFAULT_BEAM_WIDTH,
        planning_budget: "PlanningBudget | None" = None,
    ):
        if base is not None:
            for setting, value, default in (
                ("search", search, "auto"),
                ("beam_width", beam_width, DEFAULT_BEAM_WIDTH),
                ("planning_budget", planning_budget, None),
            ):
                if value != default:
                    raise CostModelError(
                        f"{setting} cannot configure a supplied base "
                        "optimizer; configure the base itself"
                    )
        self.base = base or SJAOptimizer(
            search=search,
            beam_width=beam_width,
            planning_budget=planning_budget,
        )
        self.prune_difference = prune_difference
        self.load_sources = load_sources

    @property
    def planning_budget(self) -> "PlanningBudget | None":
        """The base optimizer's anytime budget (None when unsupported)."""
        return getattr(self.base, "planning_budget", None)

    def optimize(
        self,
        query: FusionQuery,
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ) -> OptimizationResult:
        self._check_inputs(query, source_names)
        base_result = self.base.optimize(
            query, source_names, cost_model, estimator
        )
        with _Stopwatch() as watch:
            plan = base_result.plan
            if self.prune_difference:
                plan = apply_difference_pruning(plan)
            breakdown = estimate_plan_cost(plan, cost_model, estimator)
            if self.load_sources:
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
                    self.base.name + " ", ""
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
