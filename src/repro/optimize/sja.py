"""The SJA algorithm (Fig. 4): optimal semijoin-adaptive plan.

Identical search skeleton to SJ, but inside each stage the choice
between selection and semijoin is made *per source* (the "source loop"
of Fig. 4): ``if sq_cost(c_{o_i}, R_j) < sjq_cost(c_{o_i}, R_j, X_{i-1})
then selection else semijoin``.  Despite searching a space of size
``O(m!·2^{n(m-2)})`` — versus ``O(m!·2^{m-2})`` for SJ — the running
time is the same ``O(m!·m·n)``, because per-source decisions are
independent: the stage result ``X_i`` does not depend on how each source
was probed.

The ordering search itself is delegated to
:mod:`repro.optimize.search`: ``search="auto"`` keeps the faithful
factorial sweep at small m and switches to the exact subset DP beyond
it (same plan cost, exponentially fewer states).
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


# The source loop runs m·2^(m-1)·n times per subset search; reading an
# enum member off its class goes through the metaclass every time.
_SELECTION = StagedChoice.SELECTION
_SEMIJOIN = StagedChoice.SEMIJOIN


class SJAStagedProblem(StagedEstimatorProblem):
    """Fig. 4 stage costing: per-source selection-vs-semijoin choice.

    The payload of each stage is the tuple of per-source
    :class:`~repro.plans.builder.StagedChoice` decisions, ready for
    :func:`~repro.plans.builder.build_staged_plan`.
    """

    def first_stage(self, index: int) -> StageOutcome:
        cost = sum(self.selection_costs(index))
        return StageOutcome(cost, (_SELECTION,) * len(self.source_names))

    def later_stage(self, index: int, prefix_size: float) -> StageOutcome:
        cost = 0.0
        stage_choices = []
        for selection_cost, semijoin in self.terms(index):  # source loop
            semijoin_cost = semijoin(prefix_size)
            if selection_cost < semijoin_cost:
                stage_choices.append(_SELECTION)
                cost += selection_cost
            else:
                stage_choices.append(_SEMIJOIN)
                cost += semijoin_cost
        return StageOutcome(cost, tuple(stage_choices))

    def later_stage_rows(self, prefix_rows: Sequence[Sequence[float]]) -> StageRows:
        # The source loop over whole rows: per source the cheaper of
        # selection and semijoin (the same comparison), summed source by
        # source from 0.0 (the same order), so every cost has the bits
        # ``later_stage`` gives it; a payload repeats the comparison at
        # its column.
        prices = self.semijoin_prices(prefix_rows)
        selections = [self.selection_costs(index) for index in range(len(prefix_rows))]
        if isinstance(prices, list):
            costs = []
            for selection_row, table, sizes in zip(selections, prices, prefix_rows):
                totals = [0.0] * len(sizes)
                for selection, row in zip(selection_row, table):
                    totals = [
                        total + (selection if selection < semijoin else semijoin)
                        for total, semijoin in zip(totals, row)
                    ]
                costs.append(totals)

            def semijoins(index: int, column: int) -> list[float]:
                return [row[column] for row in prices[index]]

        else:
            import numpy as np  # a big table came back as one 3-D array

            selection = np.array(selections, dtype=float)[:, :, None]
            chosen = np.where(selection < prices, selection, prices)
            totals = np.zeros_like(chosen[:, 0])
            for source in range(chosen.shape[1]):
                totals += chosen[:, source]
            costs = totals.tolist()

            def semijoins(index: int, column: int) -> list[float]:
                return prices[index, :, column].tolist()

        def payload(index: int, column: int) -> tuple[StagedChoice, ...]:
            return tuple(
                _SELECTION if selection < semijoin else _SEMIJOIN
                for selection, semijoin in zip(
                    selections[index], semijoins(index, column)
                )
            )

        return StageRows(costs, payload)


class SJAOptimizer(SearchedOptimizer):
    """Compute the optimal semijoin-adaptive plan (Fig. 4).

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.costs.estimates import SizeEstimator
        >>> from repro.costs.charge import ChargeCostModel
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> result = SJAOptimizer().optimize(
        ...     query, federation.source_names, model, estimator)
        >>> result.estimated_cost <= 100.0
        True
    """

    name = "SJA"
    stage_rule = SJAStagedProblem
    description = "SJA optimal semijoin-adaptive plan"
    # Fig. 4 appends the stage-end intersection unconditionally.
    intersect_policy = IntersectPolicy.ALWAYS
