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

The semijoin formula is written once, in :func:`_semijoin_charge`: the
scalar :func:`charge_sjq_pricer` and the batched
:func:`charge_sjq_price_table` — a whole query's conditions × sources ×
sizes, one call per subset search — both evaluate it (the table on
numpy arrays when the table is big enough to pay for numpy), and
``sjq_cost`` is that pricer applied.

The charges are declared (:meth:`ChargeCostModel.for_federation` reads
each source's configured link: the oracle setting) or fitted by query
sampling (:class:`~repro.costs.calibrated.CalibratedCostModel`, the
subclass whose constructor turns fitted parameters into link profiles);
either way this one class prices them.

Because estimation uses the very same formulas as execution accounting,
any estimated-vs-actual gap observed in the E1 benchmark is attributable
purely to *size* estimation error, not cost-shape mismatch.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import INFINITE_COST, CostModel
from repro.relational.columnar import numpy_serves
from repro.relational.conditions import Condition
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation

#: A query's price table built by numpy, and folded by the stage rule as
#: an array, costs ≈ 25–35 µs more per search than one built by walking
#: the pricers and folded as lists, and ≈ 0.3 µs less per cell, so a
#: table smaller than this is lists.  Measured crossover (SJA and SJ row
#: pass, best of 9, n = 2–24 sources): 48–72 cells.  The subset DP's
#: table holds m · n · (2^(m-1) − 1) cells: Fig. 1's 6, R7's m = 4 one
#: 112, ``plan_fresh``'s 7 056.
_NUMPY_MIN_CELLS = 64


def _resolve_semijoin(
    charges: LinkProfile, capabilities: SourceCapabilities
) -> tuple[float, float, int | None] | None:
    """``(overhead per request, charge per binding, batch)`` of a
    source's semijoin, or ``None`` when it is unsupported.  An emulated
    semijoin is a native one whose request term is zero: each binding is
    its own probe, paying one overhead and one item sent."""
    if capabilities.semijoin is SemijoinSupport.UNSUPPORTED:
        return None
    if capabilities.semijoin is SemijoinSupport.EMULATED:
        return 0.0, charges.request_overhead + charges.per_item_send, None
    return (
        charges.request_overhead,
        charges.per_item_send,
        capabilities.max_semijoin_batch,
    )


def _semijoin_charge(requests, overhead, per_binding, fraction, receive, input_size):
    """The charge-shaped semijoin price of a non-empty binding set — on
    floats, or on numpy arrays broadcast against each other (the same
    IEEE operations in the same order, so the same bits)."""
    return (
        requests * overhead
        + input_size * per_binding
        + (input_size * fraction) * receive
    )


def charge_sjq_pricer(
    charges: LinkProfile,
    capabilities: SourceCapabilities,
    estimator: SizeEstimator,
    condition: Condition,
    source_name: str,
) -> Callable[[float], float]:
    """The charge-shaped semijoin price as a function of ``|X|`` alone.

    Tier, charges, batch and match fraction are resolved here; every
    returned function checks the size first, then answers ``inf`` for
    an unsupported source and ``0.0`` for an empty binding set.
    """
    require_size = CostModel._require_size
    resolved = _resolve_semijoin(charges, capabilities)
    if resolved is None:

        def unsupported(input_size: float) -> float:
            require_size(input_size)
            return INFINITE_COST

        return unsupported

    overhead, per_binding, batch = resolved
    receive = charges.per_item_receive
    fraction = estimator.match_fraction(condition, source_name)

    def price(input_size: float) -> float:
        require_size(input_size)
        if input_size == 0:
            return 0.0
        requests = 1 if batch is None else math.ceil(math.ceil(input_size) / batch)
        return _semijoin_charge(
            requests, overhead, per_binding, fraction, receive, input_size
        )

    return price


def charge_sjq_price_table(
    charges: Sequence[LinkProfile],
    capabilities: Sequence[SourceCapabilities],
    estimator: SizeEstimator,
    conditions: Sequence[Condition],
    source_names: Sequence[str],
    sizes: Sequence[Sequence[float]],
) -> Sequence[Sequence[Sequence[float]]]:
    """:meth:`CostModel.sjq_price_table` for the charge-shaped models:
    the :func:`charge_sjq_pricer` of every condition at every source
    (``charges[j]`` and ``capabilities[j]`` are ``source_names[j]``'s)
    at every size of the condition's row, cell for cell the same bits.
    A table of :data:`_NUMPY_MIN_CELLS` cells or more is one numpy
    broadcast of the formula (a 3-D array): the per-source columns are
    resolved once, the match fraction once per (condition, supported
    source), and all sizes are checked in one pass.  A smaller table
    walks the pricers."""
    cells = len(source_names) * sum(map(len, sizes))
    if not numpy_serves(cells, _NUMPY_MIN_CELLS):
        for row in sizes:
            CostModel._require_sizes(row)
        return [
            [
                list(map(price, row))
                for price in map(
                    charge_sjq_pricer,
                    charges,
                    capabilities,
                    repeat(estimator),
                    repeat(condition),
                    source_names,
                )
            ]
            for condition, row in zip(conditions, sizes)
        ]
    import numpy as np

    x = np.asarray(sizes, dtype=float)[:, None, :]  # conditions × 1 × sizes
    if not ((x >= 0) & (x < INFINITE_COST)).all():
        for row in sizes:
            CostModel._require_sizes(row)
    # One row of parameters per source, read below as 1 × sources × 1
    # columns; an unsupported source is priced as zeros, then inf.
    parameters, takes_semijoins = [], []
    for declared, capable in zip(charges, capabilities):
        resolved = _resolve_semijoin(declared, capable)
        takes_semijoins.append(resolved is not None)
        if resolved is None:
            parameters.append((0.0, 0.0, 1.0, False, 0.0))
            continue
        overhead, per_binding, batch = resolved
        parameters.append(
            (
                overhead,
                per_binding,
                batch or 1.0,
                batch is not None,
                declared.per_item_receive,
            )
        )
    overhead, per_binding, batch, batched, receive = (
        np.array(parameters, dtype=float)
        .reshape(len(parameters), 5)
        .T[:, None, :, None]
    )
    supported = np.array(takes_semijoins)[None, :, None]
    fraction = np.array(
        [
            [
                estimator.match_fraction(condition, source) if takes_semijoin else 0.0
                for takes_semijoin, source in zip(takes_semijoins, source_names)
            ]
            for condition in conditions
        ],
        dtype=float,
    ).reshape(len(conditions), len(parameters), 1)  # conditions × sources × 1
    requests = np.where(batched, np.ceil(np.ceil(x) / batch), 1.0)
    table = _semijoin_charge(requests, overhead, per_binding, fraction, receive, x)
    return np.where(supported, np.where(x == 0, 0.0, table), INFINITE_COST)


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

    def sjq_price_table(
        self,
        conditions: Sequence[Condition],
        source_names: Sequence[str],
        sizes: Sequence[Sequence[float]],
    ) -> Sequence[Sequence[Sequence[float]]]:
        return charge_sjq_price_table(
            [self.profiles[source] for source in source_names],
            [self.capabilities[source] for source in source_names],
            self.estimator,
            conditions,
            source_names,
            sizes,
        )

    def lq_cost(self, source_name: str) -> float:
        capabilities = self.capabilities[source_name]
        if not capabilities.supports_load:
            return INFINITE_COST
        profile = self.profiles[source_name]
        rows = self.cardinalities[source_name]
        return profile.request_overhead + rows * profile.per_row_load
