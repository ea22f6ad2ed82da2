"""Shared experiment plumbing: planning kits, optimizer comparisons.

Experiments repeatedly need the same bundle — federation, query, oracle
statistics, estimator, charge model — and the same comparison loop over
optimizers measuring estimated cost, actual executed cost, message
counts, and wall-clock optimization time.  This module is that plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.mediator.reference import reference_answer
from repro.optimize.base import Optimizer
from repro.query.fusion import FusionQuery
from repro.runtime.engine import RuntimeEngine
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    synthetic_query,
)
from repro.sources.registry import Federation
from repro.sources.statistics import ExactStatistics


@dataclass
class PlanningKit:
    """Everything needed to optimize and execute one query."""

    federation: Federation
    query: FusionQuery
    cost_model: CostModel
    estimator: SizeEstimator

    @property
    def source_names(self) -> tuple[str, ...]:
        return self.federation.source_names


def make_kit(
    config: SyntheticConfig, m: int, query_seed: int | None = None
) -> PlanningKit:
    """Build a synthetic federation with oracle statistics and charges."""
    federation = build_synthetic(config)
    query = synthetic_query(
        config, m=m, seed=config.seed + 1000 if query_seed is None else query_seed
    )
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    return PlanningKit(federation, query, cost_model, estimator)


def kit_for_federation(federation: Federation, query: FusionQuery) -> PlanningKit:
    """Wrap an existing federation (e.g. the DMV example) into a kit."""
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    return PlanningKit(federation, query, cost_model, estimator)


@dataclass
class OptimizerRun:
    """Measured behaviour of one optimizer on one kit."""

    name: str
    estimated_cost: float
    actual_cost: float
    messages: int
    items_sent: int
    answer_size: int
    correct: bool
    optimize_ms: float
    plan_queries: int


def run_optimizers(
    kit: PlanningKit, optimizers: Sequence[Optimizer]
) -> list[OptimizerRun]:
    """Optimize + execute each optimizer on the kit, verifying answers."""
    expected = reference_answer(kit.federation, kit.query)
    engine = RuntimeEngine(kit.federation)
    runs: list[OptimizerRun] = []
    for optimizer in optimizers:
        result = optimizer.optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        )
        kit.federation.reset_traffic()
        execution = engine.run(result.plan)
        runs.append(
            OptimizerRun(
                name=result.optimizer,
                estimated_cost=result.estimated_cost,
                actual_cost=execution.total_cost,
                messages=execution.total_messages,
                items_sent=sum(
                    source.traffic.items_sent for source in kit.federation
                ),
                answer_size=len(execution.items),
                correct=execution.items == expected,
                optimize_ms=result.elapsed_s * 1e3,
                plan_queries=result.plan.remote_op_count,
            )
        )
    kit.federation.reset_traffic()
    return runs
