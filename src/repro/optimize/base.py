"""The optimizer interface and result record.

Every optimizer maps ``(query, source names, cost model, size
estimator)`` to a plan plus search statistics.  Optimizers never touch
data — only statistics — so they can be benchmarked on federations that
exist solely as cost tables (the C4 scaling experiments do this).
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.errors import OptimizationError
from repro.plans.plan import Plan
from repro.query.fusion import FusionQuery


@dataclass(frozen=True)
class OptimizationResult:
    """The outcome of one optimization run.

    Attributes:
        plan: The chosen plan.
        estimated_cost: Its estimated cost, in the optimizer's own
            accounting (the Figs. 3/4 arithmetic for the staged
            optimizers; the generic plan coster for SJA+ and baselines).
        optimizer: Name of the producing algorithm.
        orderings_considered: How many complete condition orderings were
            enumerated (0 when a subset-based search strategy is used —
            those never materialize orderings).
        plans_considered: How many complete plans were costed by
            enumeration (matches ``orderings_considered`` for the staged
            optimizers; 0 under subset-based strategies).
        elapsed_s: Wall-clock optimization time.
        search_strategy: The concrete plan-search strategy that produced
            the plan (``"exhaustive"``, ``"dp"``, ``"bnb"``, ``"beam"``,
            ``"anytime"`` — never ``"auto"``).
        subsets_considered: Subset states expanded by a subset-based
            strategy (0 for exhaustive enumeration).
        budget_exhausted: True when an ``anytime`` search hit its
            planning budget and returned its best-so-far incumbent
            instead of a proven optimum.
    """

    plan: Plan
    estimated_cost: float
    optimizer: str
    orderings_considered: int = 0
    plans_considered: int = 0
    elapsed_s: float = 0.0
    search_strategy: str = "exhaustive"
    subsets_considered: int = 0
    budget_exhausted: bool = False

    @property
    def searched(self) -> str:
        """``"N subsets considered"`` after a subset-based search,
        ``"N plans considered"`` otherwise."""
        if self.subsets_considered and not self.plans_considered:
            return f"{self.subsets_considered} subsets considered"
        return f"{self.plans_considered} plans considered"

    def summary(self) -> str:
        strategy = self.search_strategy
        if self.budget_exhausted:
            strategy += ", budget exhausted"
        return (
            f"{self.optimizer}: cost {self.estimated_cost:.1f}, "
            f"{self.plan.remote_op_count} source queries, "
            f"{self.searched} ({strategy}) "
            f"in {self.elapsed_s * 1e3:.2f} ms"
        )


class Optimizer(ABC):
    """Base class for fusion-query optimizers."""

    name: str = "optimizer"

    @abstractmethod
    def optimize(
        self,
        query: FusionQuery,
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ) -> OptimizationResult:
        """Produce the algorithm's best plan for ``query``."""

    def _check_inputs(
        self, query: FusionQuery, source_names: Sequence[str]
    ) -> None:
        if not source_names:
            raise OptimizationError("no sources to optimize over")
        if query.arity < 1:
            raise OptimizationError("query has no conditions")

    @staticmethod
    def _finite_or_raise(cost: float, what: str) -> float:
        if not math.isfinite(cost):
            raise OptimizationError(
                f"{what} has infinite estimated cost; no feasible plan"
            )
        return cost


class _Stopwatch:
    """Tiny context manager capturing elapsed wall-clock seconds."""

    def __enter__(self) -> "_Stopwatch":
        self._start = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
