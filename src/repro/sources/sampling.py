"""Query-sampling cost calibration (Zhu & Larson style, ref. [25]).

The mediator in an autonomous federation does not know each source's
cost parameters; ref. [25] of the paper proposes estimating "local cost
parameters in a multidatabase system" by issuing *sample queries* and
regressing observed costs.  This module reproduces that loop against the
simulated sources:

1. issue probe selection and semijoin queries to each source;
2. record the observed (items_sent, items_received, cost) triples from
   the wrapper's traffic log;
3. least-squares fit ``cost ≈ overhead + send·items_sent +
   receive·items_received`` per source (non-negative clamped).

The fitted parameters feed
:class:`~repro.costs.calibrated.CalibratedCostModel` — the charge model
with each source's fitted charges in place of its declared link profile
— closing the loop: an optimizer using *learned* costs instead of oracle
ones.  The clamp keeps every fitted charge finite and non-negative, as a
:class:`~repro.sources.network.LinkProfile` requires.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import StatisticsError
from repro.relational.conditions import Condition
from repro.sources.capabilities import SemijoinSupport
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource


@dataclass(frozen=True)
class FittedLinkParameters:
    """Learned per-source cost parameters with fit quality.

    Attributes:
        request_overhead: Fitted fixed cost per request.
        per_item_send: Fitted marginal cost per binding shipped.
        per_item_receive: Fitted marginal cost per answer item.
        residual: Root-mean-square error of the fit over the probes.
        probes: Number of observations used.
    """

    request_overhead: float
    per_item_send: float
    per_item_receive: float
    residual: float
    probes: int

    def predict(self, items_sent: int, items_received: int) -> float:
        """Predicted request cost for a hypothetical exchange."""
        return (
            self.request_overhead
            + items_sent * self.per_item_send
            + items_received * self.per_item_receive
        )


@dataclass(frozen=True)
class ProbeObservation:
    """One sample query's observed traffic."""

    operation: str
    items_sent: int
    items_received: int
    cost: float


def probe_source(
    source: RemoteSource,
    conditions: list[Condition],
    binding_pool: frozenset,
    seed: int = 0,
    semijoin_sizes: tuple[int, ...] = (1, 4, 16, 64),
) -> list[ProbeObservation]:
    """Issue sample queries to one source and return the observations.

    Selections use each probe condition once; semijoins (when supported
    natively) use random binding subsets of the given sizes drawn from
    ``binding_pool``.  The source's traffic log is snapshotted around
    each probe so only probe traffic is observed.
    """
    if not conditions:
        raise StatisticsError("probing requires at least one condition")
    rng = random.Random(seed)
    observations: list[ProbeObservation] = []
    pool = sorted(binding_pool, key=repr)

    def capture(last_count: int) -> None:
        for record in source.traffic.records[last_count:]:
            observations.append(
                ProbeObservation(
                    operation=record.operation,
                    items_sent=record.items_sent,
                    items_received=record.items_received,
                    cost=record.cost,
                )
            )

    for condition in conditions:
        mark = len(source.traffic.records)
        source.selection(condition)
        capture(mark)

    if source.capabilities.semijoin is not SemijoinSupport.UNSUPPORTED and pool:
        if source.capabilities.semijoin is SemijoinSupport.EMULATED:
            # Each emulated binding is its own probe request — a few
            # bindings already yield plenty of observations, and large
            # sets would be needlessly expensive to calibrate with.
            sizes: tuple[int, ...] = (1, 2, 4)
        else:
            sizes = semijoin_sizes
        for size in sizes:
            subset = frozenset(rng.sample(pool, min(size, len(pool))))
            for condition in conditions[:2]:
                mark = len(source.traffic.records)
                source.semijoin(condition, subset)
                capture(mark)
    return observations


def fit_parameters(observations: list[ProbeObservation]) -> FittedLinkParameters:
    """Non-negative least-squares fit of the linear charge model."""
    if len(observations) < 3:
        raise StatisticsError(
            f"need at least 3 probe observations to fit, got {len(observations)}"
        )
    design = [
        (1.0, float(obs.items_sent), float(obs.items_received))
        for obs in observations
    ]
    target = [float(obs.cost) for obs in observations]
    clamped = [max(0.0, x) for x in _least_squares(design, target)]
    squared = [
        (sum(a * x for a, x in zip(row, clamped)) - cost) ** 2
        for row, cost in zip(design, target)
    ]
    return FittedLinkParameters(
        request_overhead=clamped[0],
        per_item_send=clamped[1],
        per_item_receive=clamped[2],
        residual=math.sqrt(sum(squared) / len(squared)),
        probes=len(observations),
    )


def _least_squares(design: list[tuple[float, ...]], target: list[float]) -> list[float]:
    """``x`` minimising ``|design·x − target|²``, by the normal equations.

    Solved exactly over fractions (every float is one), so the only
    rounding is the final conversion.  A column that is zero in every row
    gets coefficient 0, as the minimum-norm solution gives it (a source
    without semijoins never sends items).

    Raises:
        StatisticsError: when the other columns are linearly dependent.
    """
    live = [j for j in range(len(design[0])) if any(row[j] for row in design)]
    rows = [[Fraction(row[j]) for j in live] + [Fraction(t)] for row, t in zip(design, target)]
    # [DᵀD | Dᵀt]: positive definite when the columns are independent, so
    # Gauss-Jordan needs no row swaps and meets a zero pivot otherwise.
    n = len(live)
    system = [[sum(r[i] * r[j] for r in rows) for j in range(n + 1)] for i in range(n)]
    for col, pivot in enumerate(system):
        if pivot[col] == 0:
            raise StatisticsError("probe observations are linearly dependent")
        for other in system:
            if other is not pivot:
                factor = other[col] / pivot[col]
                other[:] = [a - factor * b for a, b in zip(other, pivot)]
    solution = [0.0] * len(design[0])
    for col, (j, row) in enumerate(zip(live, system)):
        solution[j] = float(row[n] / row[col])
    return solution


def calibrate_federation(
    federation: Federation,
    conditions: list[Condition],
    seed: int = 0,
) -> dict[str, FittedLinkParameters]:
    """Probe every source and fit per-source cost parameters.

    Returns a mapping from source name to fitted parameters.  Probe
    traffic is removed from the sources' logs afterwards so calibration
    does not pollute subsequent cost accounting.
    """
    fitted: dict[str, FittedLinkParameters] = {}
    binding_pool = federation.all_items()
    for index, source in enumerate(federation):
        before = len(source.traffic.records)
        observations = probe_source(
            source, conditions, binding_pool, seed=seed + index
        )
        # Drop probe traffic from the log: calibration is bookkept separately.
        del source.traffic.records[before:]
        fitted[source.name] = fit_parameters(observations)
    return fitted
