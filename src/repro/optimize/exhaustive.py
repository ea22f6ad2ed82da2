"""Brute-force searches over the staged plan spaces (validation only).

These optimizers exist to *check* SJ and SJA, not to replace them: they
enumerate every spec in the corresponding space and cost each with the
same staged accounting the fast algorithms use
(:func:`repro.plans.space.staged_plan_cost`), so "SJA's plan is optimal
in its space" is a meaningful, exactly-comparable statement.  The
adaptive space has ``m! * 2^(n(m-1))`` specs, so both classes guard
against accidental blow-ups.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import Iterator, Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.errors import OptimizationError
from repro.optimize.base import OptimizationResult, Optimizer, _Stopwatch
from repro.plans.builder import (
    IntersectPolicy,
    StagedChoice,
    build_staged_plan,
    uniform_choices,
)
from repro.plans.space import (
    enumerate_adaptive_specs,
    enumerate_semijoin_specs,
    raw_adaptive_space_size,
    raw_semijoin_space_size,
    staged_plan_cost,
)
from repro.query.fusion import FusionQuery

Specs = Iterator[tuple[Sequence[int], Sequence[Sequence[StagedChoice]]]]


class _SpecEnumerationOptimizer(Optimizer):
    """Cost every (ordering, choice matrix) spec of a space; keep the best."""

    space: str
    intersect_policy: IntersectPolicy
    description: str

    def __init__(self, max_specs: int = 2_000_000):
        self.max_specs = max_specs

    @abstractmethod
    def _specs(self, m: int, n: int) -> tuple[int, Specs]:
        """The space's size and a lazy sweep of its (ordering, choices)."""

    def optimize(
        self,
        query: FusionQuery,
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ) -> OptimizationResult:
        self._check_inputs(query, source_names)
        m = query.arity
        n = len(source_names)
        size, specs = self._specs(m, n)
        if size > self.max_specs:
            raise OptimizationError(
                f"{self.space} space has {size} specs, over the "
                f"{self.max_specs} guard"
            )
        best_cost = math.inf
        best_spec = None
        considered = 0
        with _Stopwatch() as watch:
            for ordering, choices in specs:
                considered += 1
                cost = staged_plan_cost(
                    query, ordering, choices, source_names, cost_model,
                    estimator,
                )
                if best_spec is None or cost < best_cost:
                    best_cost = cost
                    best_spec = (ordering, choices)
            assert best_spec is not None
            ordering, choices = best_spec
            plan = build_staged_plan(
                query,
                ordering,
                choices,
                source_names,
                intersect_policy=self.intersect_policy,
                description=self.description,
            )
        return OptimizationResult(
            plan=plan,
            estimated_cost=self._finite_or_raise(best_cost, "the best plan"),
            optimizer=self.name,
            orderings_considered=math.factorial(m),
            plans_considered=considered,
            elapsed_s=watch.elapsed,
        )


class ExhaustiveSemijoinOptimizer(_SpecEnumerationOptimizer):
    """Enumerate all semijoin-plan specs; must agree with SJ's optimum."""

    name = "SJ-exhaustive"
    space = "semijoin"
    intersect_policy = IntersectPolicy.AUTO
    description = "exhaustively optimal semijoin plan"

    def _specs(self, m: int, n: int) -> tuple[int, Specs]:
        return raw_semijoin_space_size(m), (
            (ordering, uniform_choices(m, n, stages))
            for ordering, stages in enumerate_semijoin_specs(m)
        )


class ExhaustiveAdaptiveOptimizer(_SpecEnumerationOptimizer):
    """Enumerate all semijoin-adaptive specs; must agree with SJA."""

    name = "SJA-exhaustive"
    space = "adaptive"
    intersect_policy = IntersectPolicy.ALWAYS
    description = "exhaustively optimal semijoin-adaptive plan"

    def _specs(self, m: int, n: int) -> tuple[int, Specs]:
        return raw_adaptive_space_size(m, n), enumerate_adaptive_specs(m, n)
