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

The rule is written once, per step, in :class:`StepPricer`:
:func:`estimate_plan_cost` applies it to every step of a plan, and SJA+'s
postoptimization walk (:func:`repro.optimize.postopt.postoptimize`)
applies it to the steps it emits.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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


class StepPricer:
    """The per-operation pricing rule, applied one plan step at a time.

    Holds what pricing a step reads of the steps before it: each
    register's estimated size and the source each loaded relation came
    from.  :meth:`price` prices a step and records it; :meth:`carry`
    records a step at a ``(cost, size)`` priced before — a step whose
    inputs hold what they held then prices the same.  The recorded
    steps are ``operations``, ``costs`` and ``output_sizes``, in order;
    :meth:`breakdown` sums them.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.costs.charge import ChargeCostModel
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> pricer = StepPricer(model, estimator)
        >>> pricer.price(LoadOp("T_R1", "R1"))
        >>> pricer.costs, pricer.output_sizes
        ([16.0], [3.0])
    """

    __slots__ = (
        "cost_model",
        "estimator",
        "universe",
        "sizes",
        "loaded_from",
        "operations",
        "costs",
        "output_sizes",
    )

    def __init__(self, cost_model: CostModel, estimator: SizeEstimator):
        self.cost_model = cost_model
        self.estimator = estimator
        self.universe = float(estimator.statistics.universe_size())
        self.sizes: dict[str, float] = {}
        self.loaded_from: dict[str, str] = {}
        self.operations: list[Operation] = []
        self.costs: list[float] = []
        self.output_sizes: list[float] = []

    def _probability(self, register: str) -> float:
        if self.universe <= 0:
            return 0.0
        return min(1.0, self.sizes[register] / self.universe)

    def price(self, op: Operation) -> None:
        """Price ``op`` against the registers recorded so far; record it."""
        cost_model, estimator = self.cost_model, self.estimator
        if isinstance(op, SelectionOp):
            cost = cost_model.sq_cost(op.condition, op.source)
            size = estimator.sq_output_size(op.condition, op.source)
        elif isinstance(op, SemijoinOp):
            input_size = self.sizes[op.input_register]
            cost = cost_model.sjq_cost(op.condition, op.source, input_size)
            size = estimator.sjq_output_size(
                op.condition, op.source, input_size
            )
        elif isinstance(op, LoadOp):
            cost = cost_model.lq_cost(op.source)
            size = float(estimator.statistics.cardinality(op.source))
        elif isinstance(op, LocalSelectionOp):
            source = self.loaded_from.get(op.input_register)
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
                miss *= 1.0 - self._probability(register)
            size = self.universe * (1.0 - miss)
        elif isinstance(op, IntersectOp):
            cost = 0.0
            product = 1.0
            for register in op.inputs:
                product *= self._probability(register)
            size = self.universe * product
        elif isinstance(op, DifferenceOp):
            cost = 0.0
            size = self.universe * self._probability(op.left) * (
                1.0 - self._probability(op.right)
            )
        else:  # pragma: no cover - new op kinds must be handled explicitly
            raise PlanValidationError(f"cannot cost operation {op!r}")
        self.carry(op, cost, size)

    def price_all(self, operations: Iterable[Operation]) -> "StepPricer":
        """Price ``operations`` one after another; returns this pricer."""
        price = self.price
        for op in operations:
            price(op)
        return self

    def carry(self, op: Operation, cost: float, size: float) -> None:
        """Record ``op`` at a ``(cost, size)`` priced before."""
        if isinstance(op, LoadOp):
            self.loaded_from[op.target] = op.source
        self.sizes[op.target] = size
        self.operations.append(op)
        self.costs.append(cost)
        self.output_sizes.append(size)

    def breakdown(self, result: str) -> PlanCostBreakdown:
        """The recorded steps as the breakdown of a plan answering
        ``result``, totalled in step order."""
        return PlanCostBreakdown(
            # A plain left fold: ``sum`` compensates from Python 3.12 on.
            total=functools.reduce(operator.add, self.costs, 0.0),
            steps=tuple(
                map(
                    OpCostEstimate,
                    itertools.count(1),
                    self.operations,
                    self.costs,
                    self.output_sizes,
                )
            ),
            result_size=self.sizes[result],
        )


def estimate_plan_cost(
    plan: Plan,
    cost_model: CostModel,
    estimator: SizeEstimator,
) -> PlanCostBreakdown:
    """Estimate the cost of ``plan`` under ``cost_model``: the
    :class:`StepPricer` applied to every step.

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
    return (
        StepPricer(cost_model, estimator)
        .price_all(plan.operations)
        .breakdown(plan.result)
    )
