"""Network simulation: transfer charges, latency, traffic accounting.

The paper's cost model (Sec. 2.4) makes "sending queries to the sources
and receiving answers from them" the only costs that matter.  We model
each wrapper request as:

``cost = request_overhead + items_sent * per_item_send
                          + items_received * per_item_receive``

with per-source parameters in a :class:`LinkProfile` — this is the
"fixed per-query plus linear per-item" family most distributed-database
cost models use, and it satisfies the paper's axioms (non-negativity and
subadditivity of splitting a semijoin set) whenever the parameters are
non-negative.  A :class:`TrafficLog` accumulates what actually happened
during execution, including a simulated wall-clock via latency and
bandwidth, which lets benchmarks report response time as well as the
paper's total-work objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.errors import CostModelError

#: Process-wide traffic observer (see :func:`install_traffic_observer`).
_traffic_observer = None


def install_traffic_observer(callback) -> None:
    """Install a process-wide callback invoked with every
    :class:`TrafficRecord` as it is charged, on any traffic log.

    :meth:`TrafficLog.charge` is the single chokepoint every simulated
    wire exchange passes through, so one observer sees the traffic of
    every federation in the process — the benchmark harness uses this
    (with :func:`repro.obs.metrics.traffic_metrics_observer`) to write a
    metrics snapshot next to each experiment report.  Only one observer
    may be installed at a time; install over an existing one raises.
    """
    global _traffic_observer
    if _traffic_observer is not None:
        raise CostModelError("a traffic observer is already installed")
    _traffic_observer = callback


def uninstall_traffic_observer() -> None:
    """Remove the installed traffic observer (no-op when none is)."""
    global _traffic_observer
    _traffic_observer = None


@dataclass(frozen=True)
class LinkProfile:
    """Cost and timing parameters of the mediator <-> source link.

    Attributes:
        request_overhead: Fixed cost charged per wrapper request (connection
            setup, query parsing at the source, response framing...).
        per_item_send: Cost per item shipped *to* the source (semijoin
            bindings).
        per_item_receive: Cost per item shipped *from* the source (answers).
        per_row_load: Cost per row when loading the full relation
            (``lq`` ships whole tuples, not just items, so it is charged
            per row and usually more than ``per_item_receive``).
        latency_s: Simulated one-way request latency in seconds.
        items_per_s: Simulated transfer bandwidth (items per second).
    """

    request_overhead: float = 10.0
    per_item_send: float = 1.0
    per_item_receive: float = 1.0
    per_row_load: float = 2.0
    latency_s: float = 0.1
    items_per_s: float = 1000.0

    def __post_init__(self) -> None:
        numeric = {
            "request_overhead": self.request_overhead,
            "per_item_send": self.per_item_send,
            "per_item_receive": self.per_item_receive,
            "per_row_load": self.per_row_load,
            "latency_s": self.latency_s,
        }
        for name, value in numeric.items():
            if not math.isfinite(value):
                raise CostModelError(f"{name} must be finite, got {value}")
            if value < 0:
                raise CostModelError(f"{name} must be non-negative, got {value}")
        if not math.isfinite(self.items_per_s) or self.items_per_s <= 0:
            raise CostModelError(
                f"items_per_s must be positive and finite, "
                f"got {self.items_per_s}"
            )

    def request_cost(
        self, items_sent: int, items_received: int, rows_loaded: int = 0
    ) -> float:
        """Total-work cost of one request/response exchange."""
        if min(items_sent, items_received, rows_loaded) < 0:
            raise CostModelError("traffic volumes must be non-negative")
        return (
            self.request_overhead
            + items_sent * self.per_item_send
            + items_received * self.per_item_receive
            + rows_loaded * self.per_row_load
        )

    def request_time_s(
        self, items_sent: int, items_received: int, rows_loaded: int = 0
    ) -> float:
        """Simulated elapsed time of one exchange (round trip + transfer)."""
        volume = items_sent + items_received + rows_loaded
        return 2 * self.latency_s + volume / self.items_per_s


class TrafficRecord(NamedTuple):
    """One wrapper request as observed on the simulated wire: an
    immutable slotted record."""

    source_name: str
    operation: str  # 'sq' | 'sjq' | 'sjq-emulated' | 'lq'
    items_sent: int
    items_received: int
    rows_loaded: int
    cost: float
    elapsed_s: float


@dataclass
class TrafficLog:
    """Accumulates :class:`TrafficRecord` entries during plan execution."""

    records: list[TrafficRecord] = field(default_factory=list)

    def charge(
        self,
        profile: LinkProfile,
        source_name: str,
        operation: str,
        items_sent: int,
        items_received: int,
        rows_loaded: int = 0,
    ) -> TrafficRecord:
        """Record one exchange and return its record."""
        record = TrafficRecord(
            source_name=source_name,
            operation=operation,
            items_sent=items_sent,
            items_received=items_received,
            rows_loaded=rows_loaded,
            cost=profile.request_cost(items_sent, items_received, rows_loaded),
            elapsed_s=profile.request_time_s(
                items_sent, items_received, rows_loaded
            ),
        )
        self.records.append(record)
        if _traffic_observer is not None:
            _traffic_observer(record)
        return record

    def __iter__(self) -> Iterator[TrafficRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()

    # -- aggregate views --------------------------------------------------

    @property
    def total_cost(self) -> float:
        """Sum of request costs — the paper's total-work objective."""
        return sum(record.cost for record in self.records)

    @property
    def total_elapsed_s(self) -> float:
        """Serial simulated time (requests issued one after another)."""
        return sum(record.elapsed_s for record in self.records)

    @property
    def message_count(self) -> int:
        return len(self.records)

    @property
    def items_sent(self) -> int:
        return sum(record.items_sent for record in self.records)

    @property
    def items_received(self) -> int:
        return sum(record.items_received for record in self.records)

    def by_source(self) -> dict[str, float]:
        """Total cost per source name."""
        totals: dict[str, float] = {}
        for record in self.records:
            totals[record.source_name] = (
                totals.get(record.source_name, 0.0) + record.cost
            )
        return totals

    def by_operation(self) -> dict[str, float]:
        """Total cost per operation kind ('sq', 'sjq', ...)."""
        totals: dict[str, float] = {}
        for record in self.records:
            totals[record.operation] = (
                totals.get(record.operation, 0.0) + record.cost
            )
        return totals

    def summary(self) -> str:
        """One-line human-readable summary used in traces."""
        return (
            f"{self.message_count} messages, "
            f"{self.items_sent} items sent, {self.items_received} received, "
            f"cost {self.total_cost:.1f}, "
            f"simulated {self.total_elapsed_s:.3f}s"
        )
