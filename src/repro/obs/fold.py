"""The metric catalogue: every ``repro_*`` series is a fold of events.

One small function per event type, in a table keyed by type
(:data:`EVENT_FOLDS`).  Each reads only the event's timestamp and
fields, so a registry rebuilt from a persisted JSONL file
(:func:`metrics_from_events`) exports the same bytes as the one a
:class:`~repro.obs.recorder.Recorder` folded live — same samples, same
buckets, same ``updated_s`` stamps.  A metric is added, renamed or
dropped here and nowhere else; a number no event carries cannot become
a metric (the process-wide traffic counters of
:func:`~repro.obs.metrics.traffic_metrics_observer` observe the
simulated network, not a mediator run, and are not part of this
catalogue).

Durations are differences of the engine-local fields (``end - start``,
``started - queued``); every stamp is the event's ``ts``, which already
carries the recorder's clock offset.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.obs.events import Event
from repro.obs.metrics import (
    DURATION_BUCKETS_S,
    SIZE_BUCKETS,
    MetricsRegistry,
)

Fields = Mapping[str, Any]


def _run_start(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter("repro_runs_total", backend=f["backend"]).inc(now_s=ts)


def _run_end(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    # ``run_end`` is emitted at the makespan instant, so its stamp *is*
    # the makespan on the recorder's (round-offset) clock.
    metrics.gauge("repro_makespan_s").set(ts, now_s=ts)
    metrics.counter("repro_answer_items_total").inc(f["items"], now_s=ts)


def _sendset(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.histogram("repro_sendset_size", buckets=SIZE_BUCKETS).observe(
        f["size"], now_s=ts
    )


def _attempt(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    source = f["source"]
    duration_s = f["end"] - f["start"]
    metrics.counter(
        "repro_attempts_total", source=source, fate=f["fate"]
    ).inc(now_s=ts)
    metrics.counter("repro_wire_busy_seconds_total", source=source).inc(
        duration_s, now_s=ts
    )
    metrics.counter("repro_op_cost_total", source=source).inc(
        f["cost"], now_s=ts
    )
    metrics.counter("repro_op_items_sent_total", source=source).inc(
        f["items_sent"], now_s=ts
    )
    metrics.counter("repro_op_items_received_total", source=source).inc(
        f["items_received"], now_s=ts
    )
    if f["rows_loaded"]:
        metrics.counter("repro_op_rows_loaded_total", source=source).inc(
            f["rows_loaded"], now_s=ts
        )
    metrics.histogram(
        "repro_attempt_duration_s", buckets=DURATION_BUCKETS_S
    ).observe(duration_s, now_s=ts)


def _retry(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter("repro_retries_total", source=f["source"]).inc(now_s=ts)


def _hedge(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter(
        "repro_hedges_total", target=f["target"], trigger=f["trigger"]
    ).inc(now_s=ts)


def _breaker(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter(
        "repro_breaker_transitions_total", source=f["source"], to=f["to"]
    ).inc(now_s=ts)


def _quality(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    # Only answers with detectable issues emit ``quality``, so these
    # series count tainted answers; a clean one leaves no trace.
    source = f["source"]
    metrics.counter(
        "repro_verify_answers_total", source=source, outcome="tainted"
    ).inc(now_s=ts)
    for reason, field in (
        ("corrupt", "corrupt"),
        ("duplicate", "duplicates"),
        ("conflict", "conflicts"),
    ):
        if f[field]:
            metrics.counter(
                "repro_verify_values_dropped_total",
                source=source,
                reason=reason,
            ).inc(f[field], now_s=ts)
    metrics.gauge("repro_verify_quality_score", source=source).set(
        f["score"], now_s=ts
    )


def _quarantine(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    if f["action"] == "enter":
        metrics.counter(
            "repro_verify_quarantines_total", source=f["source"]
        ).inc(now_s=ts)


def _op(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter("repro_ops_total", status=f["status"]).inc(now_s=ts)
    if f["remote"]:
        metrics.histogram(
            "repro_op_queue_wait_s", buckets=DURATION_BUCKETS_S
        ).observe(f["started"] - f["queued"], now_s=ts)


def _replan(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    if f["round"] > 0:  # round 0 is the initial plan, not a re-plan
        metrics.counter("repro_replan_rounds_total").inc(now_s=ts)


def _shed(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter(
        "repro_serve_deadline_shed_total",
        tenant=f["tenant"],
        reason=f["reason"],
    ).inc(now_s=ts)


def _deadline(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter(
        "repro_serve_deadline_expired_total",
        tenant=f["tenant"],
        stage=f["stage"],
    ).inc(now_s=ts)


def _plan(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.counter("repro_serve_plans_total", cache=f["cache"]).inc(now_s=ts)
    metrics.histogram(
        "repro_plan_latency_s", buckets=DURATION_BUCKETS_S
    ).observe(f["elapsed"], now_s=ts)


#: ``phases`` event field -> ``phase`` label (the span analyzer's names;
#: the instantaneous admission phase is folded into ``queue``).
_PHASE_LABELS = (
    ("queue", "queue"),
    ("plan", "plan"),
    ("pool", "pool"),
    ("exec_wait", "exec.wait"),
    ("exec_wire", "exec.wire"),
    ("exec_backoff", "exec.backoff"),
    ("merge", "merge"),
)


def _phases(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    for field, phase in _PHASE_LABELS:
        metrics.histogram(
            "repro_serve_phase_latency_s",
            buckets=DURATION_BUCKETS_S,
            phase=phase,
        ).observe(f[field], now_s=ts)


def _serve(metrics: MetricsRegistry, ts: float, f: Fields) -> None:
    metrics.gauge("repro_serve_queue_depth").set(f["queue_depth"], now_s=ts)
    metrics.gauge("repro_serve_in_flight").set(f["in_flight"], now_s=ts)
    phase, tenant = f["phase"], f["tenant"]
    if phase == "admitted":
        metrics.counter("repro_serve_admitted_total", tenant=tenant).inc(
            now_s=ts
        )
    elif phase == "rejected":
        metrics.counter(
            "repro_serve_rejected_total", tenant=tenant, reason=f["detail"]
        ).inc(now_s=ts)
    elif phase in ("completed", "failed"):
        metrics.counter(
            "repro_serve_completed_total",
            tenant=tenant,
            outcome="ok" if phase == "completed" else "error",
        ).inc(now_s=ts)
        if phase == "completed" and f["detail"] == "partial":
            # Completeness SLOs read this next to the ok counter.
            metrics.counter("repro_serve_partial_total", tenant=tenant).inc(
                now_s=ts
            )
        metrics.histogram(
            "repro_serve_latency_s",
            buckets=DURATION_BUCKETS_S,
            tenant=tenant,
        ).observe(f["latency"], now_s=ts)


#: Event type -> the fold that turns one such event into metric updates.
EVENT_FOLDS: dict[str, Callable[[MetricsRegistry, float, Fields], None]] = {
    "run_start": _run_start,
    "attempt": _attempt,
    "sendset": _sendset,
    "retry": _retry,
    "hedge": _hedge,
    "breaker": _breaker,
    "quality": _quality,
    "quarantine": _quarantine,
    "op": _op,
    "run_end": _run_end,
    "replan": _replan,
    "shed": _shed,
    "deadline": _deadline,
    "plan": _plan,
    "phases": _phases,
    "serve": _serve,
}


def fold_event(metrics: MetricsRegistry, event: Event) -> None:
    """Apply one event's metric updates to ``metrics``."""
    EVENT_FOLDS[event.type](metrics, event.ts, event.fields)


def metrics_from_events(events: Iterable[Event]) -> MetricsRegistry:
    """The registry a recorder would have built live over ``events``.

    Example:
        >>> from repro.obs.events import EventLog
        >>> log = EventLog()
        >>> __ = log.emit(1.5, "retry", round=0, step=2, source="R1",
        ...               retries=1, at=2.0)
        >>> print(metrics_from_events(log).to_prometheus())
        # TYPE repro_retries_total counter
        repro_retries_total{source="R1"} 1
    """
    metrics = MetricsRegistry()
    for event in events:
        metrics.record(event)  # folded at the first read, as live
    return metrics
