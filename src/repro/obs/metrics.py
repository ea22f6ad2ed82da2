"""Metrics registry: counters, gauges, histograms; JSON + Prometheus out.

All timestamps are *virtual-clock* seconds supplied by the caller (the
discrete-event runtime), never wall-clock, so exported snapshots are
deterministic and replayable: two runs with the same seed export the
same bytes.  Histograms use fixed bucket boundaries declared at first
registration — no adaptive resizing, so bucket counts diff cleanly
across runs.

Identity is ``(name, sorted labels)``, Prometheus-style::

    registry = MetricsRegistry()
    registry.counter("repro_attempts_total", source="R1", fate="ok").inc()
    registry.histogram("repro_attempt_duration_s").observe(0.4, now_s=1.5)
    print(registry.to_prometheus())

A :class:`~repro.obs.recorder.Recorder` does not update metrics as
events land: it appends each event to the registry's one pending list
(:meth:`MetricsRegistry.record`), and every reader — ``counter`` /
``gauge`` / ``histogram``, the exporters, ``len`` — first folds what is
pending through :func:`repro.obs.fold.fold_event`, in arrival order and
under the registry lock.  A metric object fetched earlier therefore
shows later events only after the next read of its registry.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ObservabilityError

#: Default histogram boundaries for virtual-time durations (seconds).
DURATION_BUCKETS_S: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Default histogram boundaries for item-count distributions.
SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0,
)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format escaping for label values.

    The text format requires backslash, double-quote, and line-feed to
    be escaped inside quoted label values; anything else passes
    through.  Without this, a label value containing e.g. a SQL snippet
    with quotes produced unparseable exposition text.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(labels: LabelItems) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


class _Metric:
    """Shared identity + last-update bookkeeping."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        #: Virtual-clock time of the last update (None = never stamped).
        self.updated_s: float | None = None
        # Guards the value/bucket updates: one registry is shared by
        # every worker of a serving tier, so increments must not race.
        self._lock = threading.Lock()

    def _stamp(self, now_s: float | None) -> None:
        if now_s is not None:
            self.updated_s = now_s


class Counter(_Metric):
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0, now_s: float | None = None) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount
            self._stamp(now_s)


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float, now_s: float | None = None) -> None:
        with self._lock:
            self.value = float(value)
            self._stamp(now_s)

    def inc(self, amount: float = 1.0, now_s: float | None = None) -> None:
        with self._lock:
            self.value += amount
            self._stamp(now_s)


class Histogram(_Metric):
    """Cumulative-bucket histogram over fixed boundaries."""

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelItems, buckets: Sequence[float]
    ):
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {self.name} buckets must be strictly "
                f"increasing and non-empty, got {buckets!r}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, now_s: float | None = None) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            self._stamp(now_s)

    def cumulative(self) -> list[int]:
        """Cumulative counts per boundary plus the +Inf total."""
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out

    def fraction_le(self, value: float) -> float:
        """Estimated fraction of observations ``<= value``.

        Linear interpolation inside the containing bucket (each
        bucket's lower edge is the previous boundary, 0.0 for the
        first), matching the assumptions of
        ``histogram_quantile``-style estimation.  Returns 0.0 for an
        empty histogram.
        """
        with self._lock:
            counts = list(self.counts)
            total = self.count
        if total == 0:
            return 0.0
        below = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                width = bound - lower
                inside = counts[i]
                fraction = 1.0 if width <= 0 else (value - lower) / width
                return (below + inside * min(1.0, max(0.0, fraction))) / total
            below += counts[i]
            lower = bound
        return 1.0  # beyond the last finite boundary

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate from the cumulative buckets.

        ``q`` is a fraction in [0, 1] (0.5 = p50, 0.99 = p99).  The
        estimate interpolates linearly within the bucket containing the
        target rank; ranks falling in the +Inf bucket clamp to the last
        finite boundary (the histogram cannot resolve beyond it).
        Deterministic: depends only on bucket counts.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(
                f"quantile must be in [0, 1], got {q}"
            )
        with self._lock:
            counts = list(self.counts)
            total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        below = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            inside = counts[i]
            if below + inside >= rank and inside > 0:
                fraction = (rank - below) / inside
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
            below += inside
            lower = bound
        return self.buckets[-1]

    def quantiles(
        self, qs: Sequence[float] = (0.50, 0.95, 0.99)
    ) -> tuple[float, ...]:
        """Interpolated p50/p95/p99 (by default) in one call."""
        return tuple(self.quantile(q) for q in qs)


class MetricsRegistry:
    """All metrics of one run, keyed by (name, labels).

    Example:
        >>> registry = MetricsRegistry()
        >>> registry.counter("demo_total", source="R1").inc(2, now_s=1.0)
        >>> registry.counter("demo_total", source="R1").value
        2.0
    """

    def __init__(self):
        self._metrics: dict[tuple[str, LabelItems], _Metric] = {}
        self._kinds: dict[str, str] = {}
        # Guards registration, folding and the exporters' iteration;
        # individual metric updates take the metric's own lock instead.
        self._lock = threading.RLock()
        #: Events recorded but not yet folded, in arrival order.  Every
        #: recorder sharing this registry appends here (list.append is
        #: atomic), so thread-mode workers keep their global emit order.
        self._pending: list[Any] = []
        self._folding = False

    def record(self, event: Any) -> None:
        """Queue one :class:`~repro.obs.events.Event` for the next read."""
        self._pending.append(event)

    def _fold_pending(self) -> None:
        """Fold the pending events; the caller holds ``self._lock``.

        The folds read metrics through this registry's own accessors,
        which land back here: a nested call returns at once, so one
        event's updates are never interleaved with the next one's.  An
        event whose fold raises is dropped from the queue, and the error
        surfaces at the read.
        """
        if self._folding or not self._pending:
            return
        from repro.obs.fold import fold_event  # fold.py imports this module

        pending = self._pending
        done = 0
        self._folding = True
        try:
            # Other threads may append meanwhile: they block on no lock,
            # and len() picks their events up in order.
            while done < len(pending):
                event = pending[done]
                done += 1
                fold_event(self, event)
        finally:
            del pending[:done]
            self._folding = False

    def _get(
        self,
        name: str,
        labels: dict[str, str],
        factory: Callable[[str, LabelItems], _Metric],
        kind: str,
    ) -> _Metric:
        with self._lock:
            self._fold_pending()
            declared = self._kinds.get(name)
            if declared is not None and declared != kind:
                raise ObservabilityError(
                    f"metric {name!r} already registered as {declared}, "
                    f"requested {kind}"
                )
            key = (name, _label_key(labels))
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[1])
                self._metrics[key] = metric
                self._kinds[name] = kind
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, labels, Counter, "counter")  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, labels, Gauge, "gauge")  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DURATION_BUCKETS_S,
        **labels: str,
    ) -> Histogram:
        return self._get(
            name,
            labels,
            lambda n, key: Histogram(n, key, buckets),
            "histogram",
        )  # type: ignore[return-value]

    def __len__(self) -> int:
        with self._lock:
            self._fold_pending()
            return len(self._metrics)

    def _sorted(self) -> Iterable[_Metric]:
        with self._lock:
            self._fold_pending()
            keys = sorted(self._metrics, key=lambda k: (k[0], k[1]))
            return [self._metrics[key] for key in keys]

    # ------------------------------------------------------------------
    # Exporters

    def to_json(self) -> dict[str, Any]:
        """Deterministic JSON-ready snapshot of every metric."""
        out: dict[str, Any] = {}
        for metric in self._sorted():
            entry: dict[str, Any] = {"kind": metric.kind}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value  # type: ignore[attr-defined]
            if metric.updated_s is not None:
                entry["updated_s"] = metric.updated_s
            out[metric.name + _label_text(metric.labels)] = entry
        return out

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (deterministic ordering)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for metric in self._sorted():
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_types.add(metric.name)
            if isinstance(metric, Histogram):
                cumulative = metric.cumulative()
                for bound, count in zip(metric.buckets, cumulative):
                    labels = metric.labels + (("le", format(bound, "g")),)
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_label_text(tuple(sorted(labels)))} {count}"
                    )
                labels = metric.labels + (("le", "+Inf"),)
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_label_text(tuple(sorted(labels)))} {cumulative[-1]}"
                )
                lines.append(
                    f"{metric.name}_sum{_label_text(metric.labels)} "
                    f"{format(metric.sum, 'g')}"
                )
                lines.append(
                    f"{metric.name}_count{_label_text(metric.labels)} "
                    f"{metric.count}"
                )
            else:
                value = metric.value  # type: ignore[attr-defined]
                lines.append(
                    f"{metric.name}{_label_text(metric.labels)} "
                    f"{format(value, 'g')}"
                )
        return "\n".join(lines)


def traffic_metrics_observer(
    registry: MetricsRegistry,
) -> Callable[[Any], None]:
    """A :func:`repro.sources.network.install_traffic_observer` callback.

    Folds every :class:`~repro.sources.network.TrafficRecord` charged
    anywhere in the process into ``registry`` — the benchmark harness
    uses this to snapshot traffic moved (messages, items, rows, cost)
    per source and operation next to each experiment report.
    """

    def observe(record: Any) -> None:
        source = record.source_name
        registry.counter(
            "repro_messages_total", source=source, op=record.operation
        ).inc()
        registry.counter(
            "repro_items_sent_total", source=source
        ).inc(record.items_sent)
        registry.counter(
            "repro_items_received_total", source=source
        ).inc(record.items_received)
        registry.counter(
            "repro_rows_loaded_total", source=source
        ).inc(record.rows_loaded)
        registry.counter(
            "repro_wire_cost_total", source=source
        ).inc(record.cost)

    return observe
