"""The metric catalogue: every ``repro_*`` series is a fold of events.

One small function per event type, in a table keyed by type
(:data:`EVENT_FOLDS`).  Each reads only the event's timestamp and
field attributes, so a registry rebuilt from a persisted JSONL file
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

from typing import Callable, Iterable

from repro.obs.events import Event
from repro.obs.metrics import (
    DURATION_BUCKETS_S,
    SIZE_BUCKETS,
    MetricsRegistry,
)

def _run_start(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter("repro_runs_total", backend=e.backend).inc(now_s=e.ts)


def _run_end(metrics: MetricsRegistry, e: Event) -> None:
    # ``run_end`` is emitted at the makespan instant, so its stamp *is*
    # the makespan on the recorder's (round-offset) clock.
    metrics.gauge("repro_makespan_s").set(e.ts, now_s=e.ts)
    metrics.counter("repro_answer_items_total").inc(e.items, now_s=e.ts)


def _sendset(metrics: MetricsRegistry, e: Event) -> None:
    metrics.histogram("repro_sendset_size", buckets=SIZE_BUCKETS).observe(
        e.size, now_s=e.ts
    )


def _attempt(metrics: MetricsRegistry, e: Event) -> None:
    source = e.source
    duration_s = e.end - e.start
    metrics.counter(
        "repro_attempts_total", source=source, fate=e.fate
    ).inc(now_s=e.ts)
    metrics.counter("repro_wire_busy_seconds_total", source=source).inc(
        duration_s, now_s=e.ts
    )
    metrics.counter("repro_op_cost_total", source=source).inc(
        e.cost, now_s=e.ts
    )
    metrics.counter("repro_op_items_sent_total", source=source).inc(
        e.items_sent, now_s=e.ts
    )
    metrics.counter("repro_op_items_received_total", source=source).inc(
        e.items_received, now_s=e.ts
    )
    if e.rows_loaded:
        metrics.counter("repro_op_rows_loaded_total", source=source).inc(
            e.rows_loaded, now_s=e.ts
        )
    metrics.histogram(
        "repro_attempt_duration_s", buckets=DURATION_BUCKETS_S
    ).observe(duration_s, now_s=e.ts)


def _retry(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter("repro_retries_total", source=e.source).inc(now_s=e.ts)


def _hedge(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter(
        "repro_hedges_total", target=e.target, trigger=e.trigger
    ).inc(now_s=e.ts)


def _breaker(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter(
        "repro_breaker_transitions_total", source=e.source, to=e.to
    ).inc(now_s=e.ts)


def _quality(metrics: MetricsRegistry, e: Event) -> None:
    # Only answers with detectable issues emit ``quality``, so these
    # series count tainted answers; a clean one leaves no trace.
    source = e.source
    metrics.counter(
        "repro_verify_answers_total", source=source, outcome="tainted"
    ).inc(now_s=e.ts)
    for reason, field in (
        ("corrupt", "corrupt"),
        ("duplicate", "duplicates"),
        ("conflict", "conflicts"),
    ):
        if getattr(e, field):
            metrics.counter(
                "repro_verify_values_dropped_total",
                source=source,
                reason=reason,
            ).inc(getattr(e, field), now_s=e.ts)
    metrics.gauge("repro_verify_quality_score", source=source).set(
        e.score, now_s=e.ts
    )


def _quarantine(metrics: MetricsRegistry, e: Event) -> None:
    if e.action == "enter":
        metrics.counter(
            "repro_verify_quarantines_total", source=e.source
        ).inc(now_s=e.ts)


def _op(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter("repro_ops_total", status=e.status).inc(now_s=e.ts)
    if e.remote:
        metrics.histogram(
            "repro_op_queue_wait_s", buckets=DURATION_BUCKETS_S
        ).observe(e.started - e.queued, now_s=e.ts)


def _replan(metrics: MetricsRegistry, e: Event) -> None:
    if e.round > 0:  # round 0 is the initial plan, not a re-plan
        metrics.counter("repro_replan_rounds_total").inc(now_s=e.ts)


def _shed(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter(
        "repro_serve_deadline_shed_total",
        tenant=e.tenant,
        reason=e.reason,
    ).inc(now_s=e.ts)


def _deadline(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter(
        "repro_serve_deadline_expired_total",
        tenant=e.tenant,
        stage=e.stage,
    ).inc(now_s=e.ts)


def _plan(metrics: MetricsRegistry, e: Event) -> None:
    metrics.counter("repro_serve_plans_total", cache=e.cache).inc(now_s=e.ts)
    metrics.histogram(
        "repro_plan_latency_s", buckets=DURATION_BUCKETS_S
    ).observe(e.elapsed, now_s=e.ts)


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


def _phases(metrics: MetricsRegistry, e: Event) -> None:
    for field, phase in _PHASE_LABELS:
        metrics.histogram(
            "repro_serve_phase_latency_s",
            buckets=DURATION_BUCKETS_S,
            phase=phase,
        ).observe(getattr(e, field), now_s=e.ts)


def _serve(metrics: MetricsRegistry, e: Event) -> None:
    metrics.gauge("repro_serve_queue_depth").set(e.queue_depth, now_s=e.ts)
    metrics.gauge("repro_serve_in_flight").set(e.in_flight, now_s=e.ts)
    phase, tenant = e.phase, e.tenant
    if phase == "admitted":
        metrics.counter("repro_serve_admitted_total", tenant=tenant).inc(
            now_s=e.ts
        )
    elif phase == "rejected":
        metrics.counter(
            "repro_serve_rejected_total", tenant=tenant, reason=e.detail
        ).inc(now_s=e.ts)
    elif phase in ("completed", "failed"):
        metrics.counter(
            "repro_serve_completed_total",
            tenant=tenant,
            outcome="ok" if phase == "completed" else "error",
        ).inc(now_s=e.ts)
        if phase == "completed" and e.detail == "partial":
            # Completeness SLOs read this next to the ok counter.
            metrics.counter("repro_serve_partial_total", tenant=tenant).inc(
                now_s=e.ts
            )
        metrics.histogram(
            "repro_serve_latency_s",
            buckets=DURATION_BUCKETS_S,
            tenant=tenant,
        ).observe(e.latency, now_s=e.ts)


#: Event type -> the fold that turns one such event into metric updates.
EVENT_FOLDS: dict[str, Callable[[MetricsRegistry, Event], None]] = {
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
    EVENT_FOLDS[event.type](metrics, event)


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
