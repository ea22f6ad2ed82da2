"""A cost model read from explicit lookup tables, for tests.

The optimizer tests build adversarial scenarios from it — e.g. the
Sec. 2.5 situation where one source's semijoins are cheap and another's
are ruinous, which is exactly where SJA beats SJ.  It is a test helper,
not part of the library: a real mediator prices from statistics and
link charges (:mod:`repro.costs.charge`).
"""

from __future__ import annotations

from repro.costs.model import INFINITE_COST, CostModel
from repro.relational.conditions import Condition


class TableCostModel(CostModel):
    """A cost model defined by explicit lookup tables.

    ``sq_table[(condition, source)]`` gives selection costs;
    ``sjq_table[(condition, source)]`` gives ``(fixed, per_item)``
    pairs; ``lq_table[source]`` gives load costs.  Missing entries fall
    back to the provided defaults.
    """

    def __init__(
        self,
        sq_table: dict[tuple[Condition, str], float] | None = None,
        sjq_table: dict[tuple[Condition, str], tuple[float, float]] | None = None,
        lq_table: dict[str, float] | None = None,
        default_sq: float = 100.0,
        default_sjq: tuple[float, float] = (10.0, 1.0),
        default_lq: float = INFINITE_COST,
    ):
        self.sq_table = dict(sq_table or {})
        self.sjq_table = dict(sjq_table or {})
        self.lq_table = dict(lq_table or {})
        self.default_sq = default_sq
        self.default_sjq = default_sjq
        self.default_lq = default_lq

    def sq_cost(self, condition: Condition, source_name: str) -> float:
        return self.sq_table.get((condition, source_name), self.default_sq)

    def sjq_cost(
        self, condition: Condition, source_name: str, input_size: float
    ) -> float:
        self._require_size(input_size)
        fixed, per_item = self.sjq_table.get(
            (condition, source_name), self.default_sjq
        )
        return fixed + per_item * input_size

    def lq_cost(self, source_name: str) -> float:
        return self.lq_table.get(source_name, self.default_lq)
