"""Static plan costing: estimated cost of *any* plan under a cost model.

The optimizers of Sec. 3 cost staged plans inline while searching (the
pseudocode of Figs. 3/4); this module is the general-purpose counterpart
that can cost an arbitrary plan — including the extended plans SJA+
produces and the non-staged simple plans the brute-force search samples.

Register sizes are propagated as expected values.  Local set operations
treat register contents as independent random subsets of the item
universe ``D``: a register of estimated size ``s`` contains each item
with probability ``p = s / D``, so

* union:        ``D * (1 - prod_k (1 - p_k))``
* intersection: ``D * prod_k p_k``
* difference:   ``D * p_left * (1 - p_right)``

which is exactly the independence assumption the paper's optimizers
already make for intermediate sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.errors import PlanValidationError
from repro.plans.operations import (
    DifferenceOp,
    IntersectOp,
    LoadOp,
    LocalSelectionOp,
    Operation,
    SelectionOp,
    SemijoinOp,
    UnionOp,
)
from repro.plans.plan import Plan


class OpCostEstimate(NamedTuple):
    """Cost/size estimate of one plan step: an immutable slotted record."""

    step: int
    operation: Operation
    cost: float
    output_size: float


@dataclass(frozen=True)
class PlanCostBreakdown:
    """Estimated total cost and per-step detail of a plan."""

    total: float
    steps: tuple[OpCostEstimate, ...]
    result_size: float

    def remote_total(self) -> float:
        """Total over remote operations only (equals ``total`` since local
        ops are free, but kept for symmetry with execution traces)."""
        return sum(step.cost for step in self.steps if step.operation.remote)

    def by_source(self) -> dict[str, float]:
        """Estimated cost attributed to each source."""
        totals: dict[str, float] = {}
        for step in self.steps:
            if step.operation.remote:
                source = step.operation.source  # type: ignore[attr-defined]
                totals[source] = totals.get(source, 0.0) + step.cost
        return totals


def estimate_plan_cost(
    plan: Plan,
    cost_model: CostModel,
    estimator: SizeEstimator,
) -> PlanCostBreakdown:
    """Estimate the cost of ``plan`` under ``cost_model``.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.costs.charge import ChargeCostModel
        >>> from repro.plans.builder import build_filter_plan
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> breakdown = estimate_plan_cost(
        ...     build_filter_plan(query, federation.source_names),
        ...     model, estimator)
        >>> round(breakdown.total, 1)
        68.0
    """
    universe = float(estimator.statistics.universe_size())
    sizes: dict[str, float] = {}
    relation_provenance: dict[str, str] = {}
    steps: list[OpCostEstimate] = []
    total = 0.0

    def probability(register: str) -> float:
        if universe <= 0:
            return 0.0
        return min(1.0, sizes[register] / universe)

    for index, op in enumerate(plan.operations, start=1):
        if isinstance(op, SelectionOp):
            cost = cost_model.sq_cost(op.condition, op.source)
            size = estimator.sq_output_size(op.condition, op.source)
        elif isinstance(op, SemijoinOp):
            input_size = sizes[op.input_register]
            cost = cost_model.sjq_cost(op.condition, op.source, input_size)
            size = estimator.sjq_output_size(
                op.condition, op.source, input_size
            )
        elif isinstance(op, LoadOp):
            cost = cost_model.lq_cost(op.source)
            size = float(estimator.statistics.cardinality(op.source))
            relation_provenance[op.target] = op.source
        elif isinstance(op, LocalSelectionOp):
            source = relation_provenance.get(op.input_register)
            if source is None:
                raise PlanValidationError(
                    f"local selection reads {op.input_register!r} which is "
                    "not a loaded relation"
                )
            cost = 0.0
            size = estimator.sq_output_size(op.condition, source)
        elif isinstance(op, UnionOp):
            cost = 0.0
            miss = 1.0
            for register in op.inputs:
                miss *= 1.0 - probability(register)
            size = universe * (1.0 - miss)
        elif isinstance(op, IntersectOp):
            cost = 0.0
            product = 1.0
            for register in op.inputs:
                product *= probability(register)
            size = universe * product
        elif isinstance(op, DifferenceOp):
            cost = 0.0
            size = universe * probability(op.left) * (
                1.0 - probability(op.right)
            )
        else:  # pragma: no cover - new op kinds must be handled explicitly
            raise PlanValidationError(f"cannot cost operation {op!r}")

        sizes[op.target] = size
        total += cost
        steps.append(OpCostEstimate(index, op, cost, size))

    return PlanCostBreakdown(
        total=total, steps=tuple(steps), result_size=sizes[plan.result]
    )
