"""Adaptive execution: mid-query reoptimization with actual set sizes.

The Sec. 3 optimizers commit to a full plan using *estimated*
intermediate sizes under independence — and the paper notes that with
autonomous sources "we often have no information about the dependence of
conditions".  The adaptive executor removes that bet: it interleaves
planning and execution, one stage at a time.

1. Pick the first condition as the one whose selection stage is
   cheapest relative to how much it shrinks the candidate set; evaluate
   it with selection queries everywhere.
2. After each stage it holds the *actual* ``X_i``.  If ``X_i`` is empty
   the answer is empty — stop immediately (early termination).
3. Otherwise re-cost every remaining condition's stage with the actual
   ``|X_i|`` (per-source selection-vs-semijoin choice, as in SJA's
   source loop) and execute the cheapest next stage.

The result is an SJA-shaped execution whose ordering and choices adapt
to observed cardinalities.  When the oracle estimates are exact it
matches static SJA closely; when estimates are wrong (sampled
statistics, correlated conditions) it recovers most of the gap — see
``benchmarks/bench_adaptive.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.optimize.search import StageOutcome
from repro.optimize.sja import SJAStagedProblem
from repro.plans.builder import StagedChoice
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Condition
from repro.relational.items import EMPTY_ITEMS, as_frozenset
from repro.sources.registry import Federation


@dataclass
class AdaptiveStage:
    """What one adaptively-chosen stage did."""

    condition: Condition
    choices: dict[str, str]  # source -> 'sq' | 'sjq'
    estimated_cost: float
    actual_cost: float
    input_size: int
    output_size: int


@dataclass
class AdaptiveResult:
    """Answer and accounting of one adaptive execution."""

    items: frozenset[Any]
    stages: list[AdaptiveStage] = field(default_factory=list)
    terminated_early: bool = False
    stages_skipped: int = 0

    @property
    def total_cost(self) -> float:
        return sum(stage.actual_cost for stage in self.stages)

    def ordering(self) -> list[Condition]:
        return [stage.condition for stage in self.stages]

    def summary(self) -> str:
        skip = (
            f", stopped early ({self.stages_skipped} stages skipped)"
            if self.terminated_early
            else ""
        )
        return (
            f"{len(self.items)} items, actual cost {self.total_cost:.1f}, "
            f"{len(self.stages)} stages{skip}"
        )


class AdaptiveExecutor:
    """Interleaved optimize-and-execute over a federation.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.costs.charge import ChargeCostModel
        >>> from repro.costs.estimates import SizeEstimator
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> executor = AdaptiveExecutor(federation, model, estimator)
        >>> sorted(executor.execute(query).items)
        ['J55', 'T21']
    """

    def __init__(
        self,
        federation: Federation,
        cost_model: CostModel,
        estimator: SizeEstimator,
    ):
        self.federation = federation
        self.cost_model = cost_model
        self.estimator = estimator

    # ------------------------------------------------------------------

    def execute(self, query: FusionQuery) -> AdaptiveResult:
        """Run ``query`` adaptively and return the fused answer."""
        query.validate_against_schema(self.federation.schema)
        # Fig. 4's stage rule, asked one stage at a time with *actual*
        # binding-set sizes in place of the estimated prefix.
        rule = SJAStagedProblem(
            query.conditions,
            self.federation.source_names,
            self.cost_model,
            self.estimator,
        )
        remaining = list(range(query.arity))
        result = AdaptiveResult(items=frozenset())
        current: Any = None  # no binding set before stage 1

        while remaining:
            if current is None:
                # Cheapest selection stage, tie-broken by smaller result.
                outcomes = {
                    index: rule.first_stage(index) for index in remaining
                }
                index = min(
                    remaining,
                    key=lambda index: (
                        outcomes[index].cost,
                        self.estimator.global_selectivity(
                            query.conditions[index]
                        ),
                    ),
                )
            elif not current:
                result.terminated_early = True
                result.stages_skipped = len(remaining)
                break
            else:
                # Cheapest next stage given the actual current set size.
                size = float(len(current))
                outcomes = {
                    index: rule.later_stage(index, size) for index in remaining
                }
                index = min(remaining, key=lambda index: outcomes[index].cost)
            remaining.remove(index)
            current, stage = self._run_stage(
                query.conditions[index], outcomes[index], current
            )
            result.stages.append(stage)

        result.items = as_frozenset(current)
        return result

    # ------------------------------------------------------------------
    # Execution pieces

    def _run_stage(
        self,
        condition: Condition,
        chosen: StageOutcome,
        current: Any,
    ) -> tuple[Any, AdaptiveStage]:
        """Evaluate one stage as the rule chose; ``current`` is None
        for the opening stage, which has no binding set to intersect.
        Item sets stay as the sources return them (bitmaps, usually):
        the stage accumulates with ``|`` / ``&`` / ``-``."""
        cost_before = self.federation.total_traffic_cost()
        confirmed: Any = EMPTY_ITEMS
        choices: dict[str, str] = {}
        for source, choice in zip(self.federation, chosen.payload):
            choices[source.name] = choice.value
            if choice is StagedChoice.SELECTION:
                answer = source.selection(condition)
                confirmed |= answer if current is None else answer & current
            else:
                # Difference pruning for free: never re-send items that
                # an earlier source in this stage already confirmed.
                confirmed |= source.semijoin(condition, current - confirmed)
        stage = AdaptiveStage(
            condition=condition,
            choices=choices,
            estimated_cost=chosen.cost,
            actual_cost=self.federation.total_traffic_cost() - cost_before,
            input_size=0 if current is None else len(current),
            output_size=len(confirmed),
        )
        return confirmed, stage
