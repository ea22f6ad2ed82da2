"""A cost model with parameters learned by query sampling (ref. [25]).

Identical in shape to :class:`~repro.costs.charge.ChargeCostModel` — the
semijoin formula is the same code,
:func:`~repro.costs.charge.charge_sjq_pricer` and its batched
:func:`~repro.costs.charge.charge_sjq_price_table` — but the per-source
(overhead, send, receive) charges come from
:func:`repro.sources.sampling.calibrate_federation` — i.e. the mediator
*measured* them with probe queries rather than reading them from
configuration.  This is the honest Internet setting: autonomous sources
do not publish their cost structure.

Loads are not probed (fetching whole sources as calibration would defeat
the purpose), so ``lq_cost`` extrapolates: rows are charged like
received items scaled by :data:`LOAD_FACTOR`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.costs.charge import charge_sjq_price_table, charge_sjq_pricer
from repro.costs.estimates import SizeEstimator
from repro.costs.model import INFINITE_COST, CostModel
from repro.relational.conditions import Condition
from repro.sources.capabilities import SourceCapabilities
from repro.sources.registry import Federation
from repro.sources.sampling import FittedLinkParameters, calibrate_federation

#: A loaded row is charged as this many received items.
LOAD_FACTOR = 2.0


class CalibratedCostModel(CostModel):
    """Charge-shaped cost model over fitted per-source parameters."""

    def __init__(
        self,
        fitted: dict[str, FittedLinkParameters],
        capabilities: dict[str, SourceCapabilities],
        estimator: SizeEstimator,
        cardinalities: dict[str, int],
    ):
        self.fitted = dict(fitted)
        self.capabilities = dict(capabilities)
        self.estimator = estimator
        self.cardinalities = dict(cardinalities)

    @staticmethod
    def calibrate(
        federation: Federation,
        estimator: SizeEstimator,
        probe_conditions: list[Condition],
        seed: int = 0,
    ) -> "CalibratedCostModel":
        """Probe the federation and return a model over the fitted numbers."""
        fitted = calibrate_federation(federation, probe_conditions, seed=seed)
        return CalibratedCostModel(
            fitted=fitted,
            capabilities={
                source.name: source.capabilities for source in federation
            },
            estimator=estimator,
            cardinalities={
                source.name: len(source.table) for source in federation
            },
        )

    # ------------------------------------------------------------------

    def sq_cost(self, condition: Condition, source_name: str) -> float:
        parameters = self.fitted[source_name]
        received = self.estimator.sq_output_size(condition, source_name)
        return parameters.request_overhead + received * parameters.per_item_receive

    def sjq_cost(
        self, condition: Condition, source_name: str, input_size: float
    ) -> float:
        return self.sjq_pricer(condition, source_name)(input_size)

    def sjq_pricer(
        self, condition: Condition, source_name: str
    ) -> Callable[[float], float]:
        return charge_sjq_pricer(
            self.fitted[source_name],
            self.capabilities[source_name],
            self.estimator,
            condition,
            source_name,
        )

    def sjq_price_table(
        self,
        condition: Condition,
        source_names: Sequence[str],
        sizes: Sequence[float],
    ) -> Sequence[Sequence[float]]:
        return charge_sjq_price_table(
            [self.fitted[source] for source in source_names],
            [self.capabilities[source] for source in source_names],
            self.estimator,
            condition,
            source_names,
            sizes,
        )

    def lq_cost(self, source_name: str) -> float:
        capabilities = self.capabilities[source_name]
        if not capabilities.supports_load:
            return INFINITE_COST
        parameters = self.fitted[source_name]
        rows = self.cardinalities[source_name]
        return (
            parameters.request_overhead
            + rows * parameters.per_item_receive * LOAD_FACTOR
        )
