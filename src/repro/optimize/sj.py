"""The SJ algorithm (Fig. 3): optimal semijoin plan.

For every ordering of the conditions (loop A), evaluate the first
condition by selection queries, then for each later condition (loop B)
compare the summed cost of n selection queries against the summed cost
of n semijoin queries with binding set ``X_{i-1}`` and take the cheaper
*uniform* option.  Complexity O(m!·m·n); the per-stage decision is
locally optimal because the stage's *result set* ``X_i`` — and hence
every later stage's binding size — is the same either way.

The ordering search is delegated to :mod:`repro.optimize.search`:
``search="auto"`` keeps the faithful factorial sweep at small m and
switches to the exact subset DP beyond it.
"""

from __future__ import annotations

from typing import Sequence

from repro.optimize.search import (
    SearchedOptimizer,
    StagedEstimatorProblem,
    StageOutcome,
    StageRows,
)
from repro.plans.builder import IntersectPolicy, StagedChoice


class SJStagedProblem(StagedEstimatorProblem):
    """Fig. 3 stage costing: uniform selection-vs-semijoin per stage.

    The payload of each stage is the tuple of per-source
    :class:`~repro.plans.builder.StagedChoice` decisions — the same
    choice at every source — ready for
    :func:`~repro.plans.builder.build_staged_plan`.
    """

    def _uniform(self, cost: float, choice: StagedChoice) -> StageOutcome:
        return StageOutcome(cost, (choice,) * len(self.source_names))

    def first_stage(self, index: int) -> StageOutcome:
        cost = sum(self.selection_costs(index))
        return self._uniform(cost, StagedChoice.SELECTION)

    def later_stage(self, index: int, prefix_size: float) -> StageOutcome:
        selection_cost = sum(self.selection_costs(index))
        semijoin_cost = sum(semijoin(prefix_size) for __, semijoin in self.terms(index))
        if selection_cost < semijoin_cost:
            return self._uniform(selection_cost, StagedChoice.SELECTION)
        return self._uniform(semijoin_cost, StagedChoice.SEMIJOIN)

    def later_stage_rows(self, prefix_rows: Sequence[Sequence[float]]) -> StageRows:
        # Each column summed by the builtin ``sum`` over python floats,
        # exactly as ``later_stage`` sums its semijoins; a payload is the
        # same uniform choice at its column.
        prices = self.semijoin_prices(prefix_rows)
        if not isinstance(prices, list):
            prices = prices.tolist()
        selections = [
            sum(self.selection_costs(index)) for index in range(len(prefix_rows))
        ]
        semijoins = [list(map(sum, zip(*table))) for table in prices]
        costs = [
            [selection if selection < semijoin else semijoin for semijoin in row]
            for selection, row in zip(selections, semijoins)
        ]

        def payload(index: int, column: int) -> tuple[StagedChoice, ...]:
            if selections[index] < semijoins[index][column]:
                return self._uniform(0.0, StagedChoice.SELECTION).payload
            return self._uniform(0.0, StagedChoice.SEMIJOIN).payload

        return StageRows(costs, payload)


class SJOptimizer(SearchedOptimizer):
    """Compute the optimal semijoin plan (Fig. 3).

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.costs.estimates import SizeEstimator
        >>> from repro.costs.charge import ChargeCostModel
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> result = SJOptimizer().optimize(
        ...     query, federation.source_names, model, estimator)
        >>> result.orderings_considered  # m! = 2
        2
    """

    name = "SJ"
    stage_rule = SJStagedProblem
    intersect_policy = IntersectPolicy.AUTO
    description = "SJ optimal semijoin plan"
