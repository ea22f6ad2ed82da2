"""The instrumentation hub the execution layers report into.

A :class:`Recorder` owns an event log and (optionally) a metrics
registry and exposes one domain-level method per observable incident;
each call updates both sinks consistently, so engines never touch metric
names or event schemas directly.  Everything is keyed to the virtual
clock passed by the caller.  Events and metrics are all it writes:
spans, profiles and timelines are folds of the event stream, built by
whoever wants them (:func:`repro.obs.spans.engine_spans`,
:class:`repro.obs.profile.QueryProfile`,
:func:`repro.obs.replay.trace_from_events`).

A recorder is shared across re-plan rounds: the resilient executor bumps
``round`` and ``clock_offset_s`` between rounds, so event timestamps
stay monotone across a whole resilient run even though each engine round
restarts its clock at zero.

With ``Recorder()`` both a metrics registry and an event log are
created; pass ``metrics=None`` to keep events only (the event log is
always on — everything else is derived from it).  The execution layers
accept ``recorder=None`` (their default) and skip all instrumentation,
which keeps the zero-config runtime byte-identical to the
uninstrumented one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import EventLog
from repro.obs.metrics import (
    DURATION_BUCKETS_S,
    SIZE_BUCKETS,
    MetricsRegistry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.trace import AttemptSpan, OpSpan


_UNSET = object()


class Recorder:
    """Collects events and metrics from one mediator's executions."""

    def __init__(
        self,
        metrics: MetricsRegistry | None | object = _UNSET,
        events: EventLog | None = None,
    ):
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if metrics is _UNSET else metrics  # type: ignore[assignment]
        )
        self.events: EventLog = EventLog() if events is None else events
        #: Current re-plan round (0 = initial plan), set by the caller.
        self.round = 0
        #: Added to every timestamp — keeps event time monotone across
        #: re-plan rounds whose engine clocks each restart at zero.
        self.clock_offset_s = 0.0

    # ------------------------------------------------------------------
    # Low-level sinks

    def _emit(self, now_s: float, event_type: str, **fields) -> None:
        self.events.emit(self.clock_offset_s + now_s, event_type, **fields)

    def _now(self, now_s: float) -> float:
        return self.clock_offset_s + now_s

    # ------------------------------------------------------------------
    # Run lifecycle

    def run_started(
        self, now_s: float, backend: str, plan, result_register: str
    ) -> None:
        self._emit(
            now_s,
            "run_start",
            backend=backend,
            round=self.round,
            plan_ops=len(plan.operations),
            remote_ops=plan.remote_op_count,
            result=result_register,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_runs_total", backend=backend
            ).inc(now_s=self._now(now_s))

    def run_finished(
        self,
        now_s: float,
        backend: str,
        makespan_s: float,
        retries: int,
        degraded: int,
        recovered: int,
        hedges: int,
        cost: float,
        items: int,
    ) -> None:
        self._emit(
            now_s,
            "run_end",
            backend=backend,
            round=self.round,
            makespan=makespan_s,
            retries=retries,
            degraded=degraded,
            recovered=recovered,
            hedges=hedges,
            cost=cost,
            items=items,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self.metrics.gauge("repro_makespan_s").set(
                self.clock_offset_s + makespan_s, now_s=stamp
            )
            self.metrics.counter("repro_answer_items_total").inc(
                items, now_s=stamp
            )

    # ------------------------------------------------------------------
    # Wire attempts

    def sendset_shipped(
        self, now_s: float, step: int, source: str, condition: str, size: int
    ) -> None:
        self._emit(
            now_s,
            "sendset",
            round=self.round,
            step=step,
            source=source,
            condition=condition,
            size=size,
        )
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_sendset_size", buckets=SIZE_BUCKETS
            ).observe(size, now_s=self._now(now_s))

    def attempt_finished(
        self,
        now_s: float,
        step: int,
        op_kind: str,
        planned: str,
        condition: str,
        span: "AttemptSpan",
    ) -> None:
        source = span.source or planned
        self._emit(
            now_s,
            "attempt",
            round=self.round,
            step=step,
            op=op_kind,
            planned=planned,
            source=source,
            condition=condition,
            attempt=span.attempt,
            start=span.start_s,
            end=span.end_s,
            fate=span.fate.value,
            hedge=span.hedge,
            cost=span.cost,
            items_sent=span.items_sent,
            items_received=span.items_received,
            rows_loaded=span.rows_loaded,
            messages=span.messages,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self.metrics.counter(
                "repro_attempts_total", source=source, fate=span.fate.value
            ).inc(now_s=stamp)
            self.metrics.counter(
                "repro_wire_busy_seconds_total", source=source
            ).inc(span.duration_s, now_s=stamp)
            self.metrics.counter(
                "repro_op_cost_total", source=source
            ).inc(span.cost, now_s=stamp)
            self.metrics.counter(
                "repro_op_items_sent_total", source=source
            ).inc(span.items_sent, now_s=stamp)
            self.metrics.counter(
                "repro_op_items_received_total", source=source
            ).inc(span.items_received, now_s=stamp)
            if span.rows_loaded:
                self.metrics.counter(
                    "repro_op_rows_loaded_total", source=source
                ).inc(span.rows_loaded, now_s=stamp)
            self.metrics.histogram(
                "repro_attempt_duration_s", buckets=DURATION_BUCKETS_S
            ).observe(span.duration_s, now_s=stamp)

    def retry_scheduled(
        self, now_s: float, step: int, source: str, retries: int, at_s: float
    ) -> None:
        self._emit(
            now_s,
            "retry",
            round=self.round,
            step=step,
            source=source,
            retries=retries,
            at=at_s,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_retries_total", source=source
            ).inc(now_s=self._now(now_s))

    def hedge_launched(
        self, now_s: float, step: int, primary: str, target: str, trigger: str
    ) -> None:
        self._emit(
            now_s,
            "hedge",
            round=self.round,
            step=step,
            primary=primary,
            target=target,
            trigger=trigger,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_hedges_total", target=target, trigger=trigger
            ).inc(now_s=self._now(now_s))

    # ------------------------------------------------------------------
    # Health / planning

    def breaker_transition(
        self, now_s: float, source: str, old_state: str, new_state: str
    ) -> None:
        self._emit(
            now_s,
            "breaker",
            source=source,
            **{"from": old_state, "to": new_state},
        )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_breaker_transitions_total", source=source, to=new_state
            ).inc(now_s=self._now(now_s))

    def answer_verified(self, now_s, step, report, score) -> None:
        """One answer passed through the verifier (``report`` is a
        :class:`~repro.runtime.verify.AnswerReport`).

        Metrics count every verified answer; a ``quality`` event is
        emitted only when the answer had detectable issues, so clean
        runs do not bloat the log.
        """
        if self.metrics is not None:
            outcome = "clean" if report.clean else "tainted"
            self.metrics.counter(
                "repro_verify_answers_total",
                source=report.source,
                outcome=outcome,
            ).inc(now_s=self._now(now_s))
            for reason, count in (
                ("corrupt", report.corrupt),
                ("duplicate", report.duplicates),
                ("conflict", report.conflicts),
            ):
                if count:
                    self.metrics.counter(
                        "repro_verify_values_dropped_total",
                        source=report.source,
                        reason=reason,
                    ).inc(count, now_s=self._now(now_s))
            self.metrics.gauge(
                "repro_verify_quality_score", source=report.source
            ).set(score, now_s=self._now(now_s))
        if not report.clean:
            self._emit(
                now_s,
                "quality",
                step=step,
                source=report.source,
                delivered=report.delivered,
                kept=report.kept,
                corrupt=report.corrupt,
                duplicates=report.duplicates,
                conflicts=report.conflicts,
                score=score,
            )

    def quarantine_changed(
        self, now_s, source: str, action: str, score: float, answers: int
    ) -> None:
        """A source entered or left data-quality quarantine."""
        self._emit(
            now_s,
            "quarantine",
            source=source,
            action=action,
            score=score,
            answers=answers,
        )
        if self.metrics is not None and action == "enter":
            self.metrics.counter(
                "repro_verify_quarantines_total", source=source
            ).inc(now_s=self._now(now_s))

    def round_planned(
        self,
        now_s: float,
        round_no: int,
        optimizer: str,
        sources: list[str],
        masked: list[str],
        estimated_cost: float,
    ) -> None:
        self._emit(
            now_s,
            "replan",
            round=round_no,
            optimizer=optimizer,
            sources=sources,
            masked=masked,
            estimated_cost=estimated_cost,
        )
        if self.metrics is not None and round_no > 0:
            self.metrics.counter("repro_replan_rounds_total").inc(
                now_s=self._now(now_s)
            )

    # ------------------------------------------------------------------
    # Serving tier (repro.serve)

    def _serve(
        self,
        now_s: float,
        phase: str,
        query: int,
        tenant: str,
        queue_depth: int,
        in_flight: int,
        detail: str = "",
        latency: float = 0.0,
    ) -> None:
        self._emit(
            now_s,
            "serve",
            phase=phase,
            query=query,
            tenant=tenant,
            queue_depth=queue_depth,
            in_flight=in_flight,
            detail=detail,
            latency=latency,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self.metrics.gauge("repro_serve_queue_depth").set(
                queue_depth, now_s=stamp
            )
            self.metrics.gauge("repro_serve_in_flight").set(
                in_flight, now_s=stamp
            )

    def query_admitted(
        self, now_s: float, query: int, tenant: str,
        queue_depth: int, in_flight: int,
    ) -> None:
        self._serve(now_s, "admitted", query, tenant, queue_depth, in_flight)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_admitted_total", tenant=tenant
            ).inc(now_s=self._now(now_s))

    def query_rejected(
        self, now_s: float, query: int, tenant: str, reason: str,
        queue_depth: int, in_flight: int,
    ) -> None:
        self._serve(
            now_s, "rejected", query, tenant, queue_depth, in_flight,
            detail=reason,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_rejected_total", tenant=tenant, reason=reason
            ).inc(now_s=self._now(now_s))

    def query_dispatched(
        self, now_s: float, query: int, tenant: str,
        queue_depth: int, in_flight: int,
    ) -> None:
        self._serve(now_s, "dispatched", query, tenant, queue_depth, in_flight)

    def query_completed(
        self, now_s: float, query: int, tenant: str,
        queue_depth: int, in_flight: int,
        latency_s: float, error: str = "",
        partial: bool = False,
    ) -> None:
        self._serve(
            now_s,
            "failed" if error else "completed",
            query, tenant, queue_depth, in_flight,
            detail=error, latency=latency_s,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self.metrics.counter(
                "repro_serve_completed_total",
                tenant=tenant,
                outcome="error" if error else "ok",
            ).inc(now_s=stamp)
            if partial and not error:
                # Completeness SLOs read this next to the ok counter.
                self.metrics.counter(
                    "repro_serve_partial_total", tenant=tenant
                ).inc(now_s=stamp)
            self.metrics.histogram(
                "repro_serve_latency_s",
                buckets=DURATION_BUCKETS_S,
                tenant=tenant,
            ).observe(latency_s, now_s=stamp)

    # ------------------------------------------------------------------
    # Planning and latency attribution (serving tier)

    def query_planned(
        self,
        now_s: float,
        query: int,
        tenant: str,
        trace_id: str,
        cache: str,
        strategy: str,
        subsets: int,
        elapsed_s: float,
        exhausted: bool,
    ) -> None:
        """The serving tier planned one admitted query."""
        self._emit(
            now_s,
            "plan",
            query=query,
            tenant=tenant,
            trace=trace_id,
            cache=cache,
            strategy=strategy,
            subsets=subsets,
            elapsed=elapsed_s,
            exhausted=exhausted,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self.metrics.counter(
                "repro_serve_plans_total", cache=cache
            ).inc(now_s=stamp)
            self.metrics.histogram(
                "repro_plan_latency_s", buckets=DURATION_BUCKETS_S
            ).observe(elapsed_s, now_s=stamp)

    def query_phases(
        self,
        now_s: float,
        query: int,
        tenant: str,
        trace_id: str,
        phases: dict[str, float],
        total_s: float,
    ) -> None:
        """Critical-path attribution of one completed query.

        ``phases`` is the analyzer's by-phase dict (see
        :data:`repro.obs.spans.PHASES`); the event schema folds the
        (always instantaneous) admission phase into the queue field.
        """
        self._emit(
            now_s,
            "phases",
            query=query,
            tenant=tenant,
            trace=trace_id,
            queue=phases.get("admission", 0.0) + phases.get("queue", 0.0),
            plan=phases.get("plan", 0.0),
            pool=phases.get("pool", 0.0),
            exec_wait=phases.get("exec.wait", 0.0),
            exec_wire=phases.get("exec.wire", 0.0),
            exec_backoff=phases.get("exec.backoff", 0.0),
            merge=phases.get("merge", 0.0),
            total=total_s,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            for phase, seconds in sorted(phases.items()):
                self.metrics.histogram(
                    "repro_serve_phase_latency_s",
                    buckets=DURATION_BUCKETS_S,
                    phase=phase,
                ).observe(seconds, now_s=stamp)

    def query_shed(
        self,
        now_s: float,
        query: int,
        tenant: str,
        reason: str,
        predicted_s: float,
        deadline_s: float,
    ) -> None:
        """Latency-aware shedding refused a query at admission."""
        self._emit(
            now_s,
            "shed",
            query=query,
            tenant=tenant,
            reason=reason,
            predicted=predicted_s,
            deadline=deadline_s,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_deadline_shed_total", tenant=tenant, reason=reason
            ).inc(now_s=self._now(now_s))

    def deadline_expired(
        self,
        now_s: float,
        query: int,
        tenant: str,
        stage: str,
        budget_s: float,
        overrun_s: float,
    ) -> None:
        """A query's deadline budget ran out in queue or mid-execution."""
        self._emit(
            now_s,
            "deadline",
            query=query,
            tenant=tenant,
            stage=stage,
            budget=budget_s,
            overrun=max(0.0, overrun_s),
        )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_deadline_expired_total",
                tenant=tenant,
                stage=stage,
            ).inc(now_s=self._now(now_s))

    def deadline_outcome(
        self, now_s: float, tenant: str, missed: bool
    ) -> None:
        """Deadline met/missed tally for one completed query."""
        if self.metrics is not None:
            name = (
                "repro_serve_deadline_missed_total"
                if missed
                else "repro_serve_deadline_met_total"
            )
            self.metrics.counter(name, tenant=tenant).inc(
                now_s=self._now(now_s)
            )

    def op_finished(self, now_s: float, span: "OpSpan") -> None:
        op = span.operation
        condition = getattr(op, "condition", None)
        self._emit(
            now_s,
            "op",
            round=self.round,
            step=span.step,
            op=op.kind.value,
            target=op.target,
            source=span.source,
            remote=op.remote,
            condition="" if condition is None else condition.to_sql(),
            queued=span.queued_s,
            started=span.started_s,
            finished=span.finished_s,
            status=span.status.value,
            output=span.output_size,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self.metrics.counter(
                "repro_ops_total", status=span.status.value
            ).inc(now_s=stamp)
            if op.remote:
                self.metrics.histogram(
                    "repro_op_queue_wait_s", buckets=DURATION_BUCKETS_S
                ).observe(span.queue_wait_s, now_s=stamp)
