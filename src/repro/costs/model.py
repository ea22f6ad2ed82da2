"""The abstract cost model of Sec. 2.4 and its axioms.

A cost model answers three questions for the optimizer:

* ``sq_cost(c, R_j)`` — cost of a selection query;
* ``sjq_cost(c, R_j, |X|)`` — cost of a semijoin query given the
  (estimated) size of the binding set.  The paper passes the set ``X``
  itself; at optimization time only an estimate of ``|X|`` exists, so
  the interface takes a size.  An unsupported semijoin costs ``inf``
  (Sec. 2.3);
* ``lq_cost(R_j)`` — cost of loading the whole source (Sec. 4's ``lq``).

A model may also answer ``sjq_pricer(c, R_j)`` — ``sjq_cost`` with the
pair resolved once, a function of ``|X|`` alone; the default is
``sjq_cost`` partially applied — and ``sjq_price_table(conditions,
sources, sizes)`` — a query's semijoin prices at many sources and many
``|X|`` in one call, a conditions × sources × sizes table (one row of
sizes per condition) whose every cell is bit-equal to the pricer's
answer.  Its default walks the pricers; the charge-shaped models answer
a big table with one numpy broadcast.  The subset DP prices every later
stage of a query with one table.

Axioms (Sec. 2.4), checkable via :func:`check_cost_axioms`:

1. non-negativity of all operation costs;
2. subadditivity in the semijoin set: splitting ``X`` into ``Y ∪ Z``
   never beats sending ``X`` whole;
3. local mediator operations are free (enforced by construction — the
   interface has no local-op cost);
4. plan cost = sum of operation costs (enforced by the plan coster).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.errors import CostModelError
from repro.relational.conditions import Condition

#: The infinite cost assigned to unsupported operations.
INFINITE_COST = math.inf


class CostModel(ABC):
    """Estimates the cost of the three wrapper operations.

    Implementations must be pure functions of their arguments (the
    optimizers call them many times and may cache), must never return
    negative values, and should return :data:`INFINITE_COST` for
    operations a source cannot support.
    """

    @abstractmethod
    def sq_cost(self, condition: Condition, source_name: str) -> float:
        """Estimated cost of ``sq(condition, R_source)``."""

    @abstractmethod
    def sjq_cost(
        self, condition: Condition, source_name: str, input_size: float
    ) -> float:
        """Estimated cost of ``sjq(condition, R_source, X)`` with |X| ≈
        ``input_size`` (which may be fractional — it is an estimate)."""

    @abstractmethod
    def lq_cost(self, source_name: str) -> float:
        """Estimated cost of loading the entire source (``lq(R_source)``)."""

    def sjq_pricer(
        self, condition: Condition, source_name: str
    ) -> Callable[[float], float]:
        """``sjq_cost`` with ``(condition, source)`` already resolved.

        Override it to do the per-pair work (capability tier, charges,
        match fraction) once instead of once per ``|X|``.  Contract:
        ``sjq_pricer(c, s)(x)`` is bit-equal to ``sjq_cost(c, s, x)`` —
        same value, same :class:`CostModelError` on a bad size — for the
        life of one ``optimize()`` call, which is how long it is held.
        """
        return partial(self.sjq_cost, condition, source_name)

    def sjq_price_table(
        self,
        conditions: Sequence[Condition],
        source_names: Sequence[str],
        sizes: Sequence[Sequence[float]],
    ) -> Sequence[Sequence[Sequence[float]]]:
        """``sjq_pricer(conditions[i], s)(x)`` for every condition (the
        outer axis), every source ``s`` (in ``source_names`` order) and
        every size ``x`` of ``sizes[i]``, condition ``i``'s own row of
        sizes; all rows hold the same number of sizes.

        Override it to price a whole query at once.  The table is nested
        lists, or one 3-D float64 numpy array (the charge-shaped models,
        for a table big enough to pay for numpy).  Contract: every cell
        bit-equal to the pricer's answer, and a size outside
        ``0 <= |X| < inf`` raises the pricer's :class:`CostModelError`.
        """
        return [
            [
                [pricer(size) for size in row]
                for pricer in (
                    self.sjq_pricer(condition, source) for source in source_names
                )
            ]
            for condition, row in zip(conditions, sizes)
        ]

    def supports_semijoin(self, source_name: str, condition: Condition) -> bool:
        """True if any finite-cost semijoin is possible at the source."""
        return math.isfinite(self.sjq_cost(condition, source_name, 1))

    @staticmethod
    def _require_size(input_size: float) -> float:
        # Written so that NaN, which fails every comparison, is rejected.
        if not 0 <= input_size < INFINITE_COST:
            raise CostModelError(f"invalid semijoin input size: {input_size}")
        return input_size

    @staticmethod
    def _require_sizes(sizes: Sequence[float]) -> None:
        """:meth:`_require_size` over a row of sizes in one pass; the
        first bad size raises the same error."""
        if not all(0 <= size < INFINITE_COST for size in sizes):
            for size in sizes:
                CostModel._require_size(size)


@dataclass(frozen=True)
class AxiomViolation:
    """One detected violation of the Sec. 2.4 axioms."""

    axiom: str
    detail: str


def check_cost_axioms(
    model: CostModel,
    conditions: Iterable[Condition],
    source_names: Iterable[str],
    sizes: Sequence[int] = (0, 1, 2, 5, 10, 100),
) -> list[AxiomViolation]:
    """Probe ``model`` for axiom violations over a grid of inputs.

    Checks non-negativity of ``sq``/``sjq``/``lq`` costs, monotone
    subadditivity of the semijoin set (``cost(y + z) <= cost(y) +
    cost(z)``), and that semijoin cost is non-decreasing in the set size
    (implied by subadditivity with axiom 1 for the models considered
    here, but checked directly because it is what the SJA+ difference
    postoptimization relies on).

    Returns the list of violations (empty when the model is sound).
    """
    violations: list[AxiomViolation] = []
    conditions = list(conditions)
    source_names = list(source_names)

    for source in source_names:
        lq = model.lq_cost(source)
        if not math.isnan(lq) and lq < 0:
            violations.append(
                AxiomViolation("non-negativity", f"lq_cost({source}) = {lq}")
            )
        for condition in conditions:
            sq = model.sq_cost(condition, source)
            if sq < 0:
                violations.append(
                    AxiomViolation(
                        "non-negativity",
                        f"sq_cost({condition}, {source}) = {sq}",
                    )
                )
            costs = {}
            for size in sizes:
                sjq = model.sjq_cost(condition, source, size)
                costs[size] = sjq
                if sjq < 0:
                    violations.append(
                        AxiomViolation(
                            "non-negativity",
                            f"sjq_cost({condition}, {source}, {size}) = {sjq}",
                        )
                    )
            ordered = sorted(sizes)
            for smaller, larger in zip(ordered, ordered[1:]):
                if costs[smaller] > costs[larger] + 1e-9:
                    violations.append(
                        AxiomViolation(
                            "monotonicity",
                            f"sjq_cost decreases from |X|={smaller} "
                            f"({costs[smaller]}) to |X|={larger} "
                            f"({costs[larger]}) at {source}",
                        )
                    )
            for y in ordered:
                for z in ordered:
                    whole = model.sjq_cost(condition, source, y + z)
                    split = costs.get(y, model.sjq_cost(condition, source, y))
                    split += costs.get(z, model.sjq_cost(condition, source, z))
                    if whole > split + 1e-9:
                        violations.append(
                            AxiomViolation(
                                "subadditivity",
                                f"sjq_cost({source}, {y + z}) = {whole} > "
                                f"sjq_cost({y}) + sjq_cost({z}) = {split}",
                            )
                        )
    return violations


class UniformCostModel(CostModel):
    """A trivially simple model for unit tests and worked examples.

    Every selection costs ``sq``, every semijoin costs
    ``sjq_fixed + sjq_per_item * |X|``, every load costs ``lq``.
    Satisfies all axioms whenever parameters are non-negative.
    """

    def __init__(
        self,
        sq: float = 100.0,
        sjq_fixed: float = 10.0,
        sjq_per_item: float = 1.0,
        lq: float = 1000.0,
    ):
        for name, value in (
            ("sq", sq),
            ("sjq_fixed", sjq_fixed),
            ("sjq_per_item", sjq_per_item),
            ("lq", lq),
        ):
            if value < 0:
                raise CostModelError(f"{name} must be non-negative, got {value}")
        self.sq = sq
        self.sjq_fixed = sjq_fixed
        self.sjq_per_item = sjq_per_item
        self.lq = lq

    def sq_cost(self, condition: Condition, source_name: str) -> float:
        return self.sq

    def sjq_cost(
        self, condition: Condition, source_name: str, input_size: float
    ) -> float:
        self._require_size(input_size)
        return self.sjq_fixed + self.sjq_per_item * input_size

    def lq_cost(self, source_name: str) -> float:
        return self.lq

