"""A cost model with parameters learned by query sampling (ref. [25]).

One charge model, two sources of numbers: this is
:class:`~repro.costs.charge.ChargeCostModel` itself, over per-source
(overhead, send, receive) charges that
:func:`repro.sources.sampling.calibrate_federation` fitted — i.e. the
mediator *measured* them with probe queries rather than reading them
from configuration.  This is the honest Internet setting: autonomous
sources do not publish their cost structure.  The constructor only turns
each :class:`~repro.sources.sampling.FittedLinkParameters` into the
:class:`~repro.sources.network.LinkProfile` the charge model reads; every
cost is the charge model's.

Loads are not probed (fetching whole sources as calibration would defeat
the purpose), so ``lq_cost`` extrapolates: a loaded row is charged like
a received item scaled by :data:`LOAD_FACTOR`.
"""

from __future__ import annotations

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.relational.conditions import Condition
from repro.sources.capabilities import SourceCapabilities
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation
from repro.sources.sampling import FittedLinkParameters, calibrate_federation

#: A loaded row is charged as this many received items.
LOAD_FACTOR = 2.0


class CalibratedCostModel(ChargeCostModel):
    """The charge model over fitted per-source parameters.  A negative or
    non-finite fitted charge raises ``CostModelError`` here, as in any
    :class:`LinkProfile`; calibration clamps at zero, so never makes one."""

    def __init__(
        self,
        fitted: dict[str, FittedLinkParameters],
        capabilities: dict[str, SourceCapabilities],
        estimator: SizeEstimator,
        cardinalities: dict[str, int],
    ):
        self.fitted = dict(fitted)
        super().__init__(
            profiles={
                name: LinkProfile(
                    request_overhead=parameters.request_overhead,
                    per_item_send=parameters.per_item_send,
                    per_item_receive=parameters.per_item_receive,
                    per_row_load=parameters.per_item_receive * LOAD_FACTOR,
                )
                for name, parameters in self.fitted.items()
            },
            capabilities=capabilities,
            estimator=estimator,
            cardinalities=cardinalities,
        )

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
