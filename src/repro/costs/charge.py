"""The concrete charge-based cost model.

Mirrors the simulated network's actual charging
(:class:`~repro.sources.network.LinkProfile`) with *estimated* item
counts from a :class:`~repro.costs.estimates.SizeEstimator`:

* ``sq_cost``: one request overhead plus the estimated answer items
  received;
* ``sjq_cost``: depends on the capability tier —

  - native: ``ceil(|X| / batch)`` request overheads + bindings sent +
    estimated matches received;
  - emulated: ``|X|`` per-binding probe requests (each pays overhead and
    one binding) + estimated matches received — this is why emulated
    semijoins are expensive and why SJA's per-source choice matters;
  - unsupported: infinite (Sec. 2.3);

* ``lq_cost``: one overhead plus rows times the per-row load charge.

The semijoin formula is written once, in :func:`charge_sjq_pricer`;
``sjq_cost`` is that pricer applied, here and in
:class:`~repro.costs.calibrated.CalibratedCostModel`.

Because estimation uses the very same formulas as execution accounting,
any estimated-vs-actual gap observed in the E1 benchmark is attributable
purely to *size* estimation error, not cost-shape mismatch.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.costs.estimates import SizeEstimator
from repro.costs.model import INFINITE_COST, CostModel
from repro.relational.conditions import Condition
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation

if TYPE_CHECKING:
    from repro.sources.sampling import FittedLinkParameters


def charge_sjq_pricer(
    charges: "LinkProfile | FittedLinkParameters",
    capabilities: SourceCapabilities,
    estimator: SizeEstimator,
    condition: Condition,
    source_name: str,
) -> Callable[[float], float]:
    """The charge-shaped semijoin price as a function of ``|X|`` alone.

    Tier, charges (declared or fitted: the three attributes are named
    alike), batch and match fraction are resolved here; every returned
    function checks the size first, then answers ``inf`` for an
    unsupported source and ``0.0`` for an empty binding set.
    """
    require_size = CostModel._require_size
    if capabilities.semijoin is SemijoinSupport.UNSUPPORTED:

        def unsupported(input_size: float) -> float:
            require_size(input_size)
            return INFINITE_COST

        return unsupported

    overhead = charges.request_overhead
    send = charges.per_item_send
    receive = charges.per_item_receive
    fraction = estimator.match_fraction(condition, source_name)
    if capabilities.semijoin is SemijoinSupport.EMULATED:
        # One probe request per binding: overhead + one item sent each.
        per_binding = overhead + send

        def emulated(input_size: float) -> float:
            require_size(input_size)
            if input_size == 0:
                return 0.0
            return input_size * per_binding + (input_size * fraction) * receive

        return emulated

    batch = capabilities.max_semijoin_batch

    def native(input_size: float) -> float:
        require_size(input_size)
        if input_size == 0:
            return 0.0
        requests = (
            1 if batch is None else math.ceil(math.ceil(input_size) / batch)
        )
        return (
            requests * overhead
            + input_size * send
            + (input_size * fraction) * receive
        )

    return native


class ChargeCostModel(CostModel):
    """Cost model parameterized by per-source link profiles and capabilities.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.sources.statistics import ExactStatistics
        >>> federation, query = dmv_fig1()
        >>> stats = ExactStatistics(federation)
        >>> estimator = SizeEstimator(stats, federation.source_names)
        >>> model = ChargeCostModel.for_federation(federation, estimator)
        >>> model.sq_cost(query.conditions[0], "R1")
        12.0
    """

    def __init__(
        self,
        profiles: dict[str, LinkProfile],
        capabilities: dict[str, SourceCapabilities],
        estimator: SizeEstimator,
        cardinalities: dict[str, int],
    ):
        self.profiles = dict(profiles)
        self.capabilities = dict(capabilities)
        self.estimator = estimator
        self.cardinalities = dict(cardinalities)

    @staticmethod
    def for_federation(
        federation: Federation, estimator: SizeEstimator
    ) -> "ChargeCostModel":
        """Build the model from a federation's declared profiles.

        This assumes the mediator *knows* each source's charges — the
        oracle setting.  Use :class:`~repro.costs.calibrated.CalibratedCostModel`
        for the learned-parameters setting.
        """
        return ChargeCostModel(
            profiles={source.name: source.link for source in federation},
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
        profile = self.profiles[source_name]
        received = self.estimator.sq_output_size(condition, source_name)
        return profile.request_overhead + received * profile.per_item_receive

    def sjq_cost(
        self, condition: Condition, source_name: str, input_size: float
    ) -> float:
        return self.sjq_pricer(condition, source_name)(input_size)

    def sjq_pricer(
        self, condition: Condition, source_name: str
    ) -> Callable[[float], float]:
        return charge_sjq_pricer(
            self.profiles[source_name],
            self.capabilities[source_name],
            self.estimator,
            condition,
            source_name,
        )

    def lq_cost(self, source_name: str) -> float:
        capabilities = self.capabilities[source_name]
        if not capabilities.supports_load:
            return INFINITE_COST
        profile = self.profiles[source_name]
        rows = self.cardinalities[source_name]
        return profile.request_overhead + rows * profile.per_row_load
