"""`MediatorService`: many concurrent fusion queries over one mediator stack.

The paper's mediator answers one query; a real deployment answers a
*stream* of them, and everything interesting — breaker trips, warmed
plans, mined statistics — only pays off when what one query learns
benefits the next.  :class:`MediatorService` is that serving tier: it
admits queries through an :class:`~repro.serve.admission.AdmissionController`
(bounded run queue + per-tenant quotas), orders dispatch with a
weighted-fair :class:`~repro.serve.tenants.FairScheduler`, gates each
dispatch on per-source :class:`~repro.serve.pools.SourcePools` slots,
and executes on the discrete-event runtime — while **all cross-query
state is shared**: one :class:`~repro.runtime.health.HealthRegistry`,
one :class:`~repro.mediator.plan_cache.PlanCache`, one statistics
provider, and one :class:`~repro.obs.metrics.MetricsRegistry`.

Two execution modes, same scheduling code:

* ``"deterministic"`` — a discrete-event simulation at query
  granularity on the virtual clock.  Submissions carry arrival times,
  each dispatched query runs on the engine with a private
  :class:`~repro.runtime.faults.FaultInjector` — the service's
  :class:`~repro.runtime.faults.Faults` realised with a seed derived
  from the workload seed and its submission sequence number
  (:func:`derive_seed`) — and
  its completion is scheduled at dispatch time + engine makespan.
  Overlap is real (in-flight counts, pool contention, queueing delay)
  and the whole run — answers, metrics, the event stream — replays
  byte-identically for the same seed.  This is the test oracle.
* ``"threads"`` — a pool of worker threads, each owning a private
  :class:`~repro.mediator.session.Mediator` (engines and their RNG
  streams are single-owner) but sharing the registries above.  Wall
  clock, real concurrency, measured throughput.

Ownership rules for the shared state are documented in DESIGN.md; the
short version is that every shared structure locks internally, while
scheduler + pools + tickets are mutated only under the service's own
condition lock.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import (
    AdmissionError,
    DeadlineInfeasibleError,
    FusionError,
    ServiceError,
)
from repro.mediator.plan_cache import PlanCache
from repro.mediator.schedule import estimated_response_time
from repro.mediator.session import Mediator
from repro.obs.events import (
    DeadlineEvent,
    PhasesEvent,
    PlanEvent,
    ServeEvent,
    ShedEvent,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder
from repro.obs.spans import (
    Span,
    SpanLog,
    critical_path,
    derive_trace_id,
    execute_spans,
    serve_spans,
)
from repro.optimize.base import OptimizationResult
from repro.optimize.planning import Planning
from repro.query.fusion import FusionQuery
from repro.relational.columnar import substrate_summary
from repro.runtime.engine import Resilience
from repro.runtime.faults import Faults
from repro.runtime.health import HealthRegistry
from repro.runtime.trace import RuntimeTrace
from repro.serve.admission import AdmissionController
from repro.serve.deadline import (
    SHED_POLICIES,
    Deadline,
    QueueWaitEstimator,
    valid_deadline,
)
from repro.serve.pools import SourcePools
from repro.serve.tenants import DEFAULT_TENANT, FairScheduler, TenantSpec
from repro.sources.registry import Federation
from repro.sources.statistics import ExactStatistics, StatisticsProvider

#: Service execution modes.
MODES = ("deterministic", "threads")


def derive_seed(workload_seed: int, seq: int) -> int:
    """Per-query fault-stream seed: stable, collision-averse, and
    independent across submission sequence numbers."""
    return (workload_seed * 1_000_003 + 7_919 * seq + 1) % (2**31 - 1)


@dataclass
class QueryTicket:
    """One submitted query's lifecycle, visible to the caller.

    Timestamps are virtual-clock seconds in deterministic mode and
    seconds since service start in thread mode.
    """

    seq: int
    tenant: str
    query: FusionQuery | str = field(repr=False)
    text: str = ""
    submitted_s: float = 0.0
    dispatched_s: float | None = None
    completed_s: float | None = None
    status: str = "queued"  # queued | running | done | failed
    items: frozenset | None = None
    error: str = ""
    makespan_s: float = 0.0
    #: End-to-end deadline budget in seconds (None = no deadline).
    deadline_s: float | None = None
    #: True when the answer is a graceful partial (degraded sources or
    #: a deadline cut) — every returned item is still correct.
    partial: bool = False
    #: Conditions whose union was cut short (SQL text, for clients).
    incomplete_conditions: tuple[str, ...] = ()
    #: True when anytime planning hit its budget for this query.
    planning_budget_exhausted: bool = False
    #: Deterministic trace id ("" when the service runs with tracing
    #: off); same workload seed + seq always names the same trace.
    trace_id: str = ""
    #: When the service planned this query (None until planned).
    planned_s: float | None = None
    #: Planning time: 0.0 on the virtual clock, wall seconds in
    #: thread mode.
    plan_elapsed_s: float = 0.0
    #: Whether planning hit the shared plan cache (None: never planned
    #: or no cache configured).
    plan_cache_hit: bool | None = None
    #: The concrete search strategy that produced the plan.
    search_strategy: str = ""
    #: Critical-path seconds per phase (see repro.obs.spans.PHASES),
    #: filled at completion when tracing is on; sums to ``latency_s``.
    phases: dict[str, float] = field(default_factory=dict)
    #: The op spans rendered from this query's run, as ``(step, span)``,
    #: and the spans under each: held for the completion step.
    _ops: tuple[list[tuple[int, Span]], dict[int, list[Span]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def latency_s(self) -> float:
        """Submit-to-complete time (0.0 while still outstanding)."""
        if self.completed_s is None:
            return 0.0
        return self.completed_s - self.submitted_s

    @property
    def deadline_missed(self) -> bool:
        """True when a deadlined query completed after its budget
        (finishing exactly on the deadline counts as met)."""
        if self.deadline_s is None or self.completed_s is None:
            return False
        return self.latency_s > self.deadline_s + 1e-9


class MediatorService:
    """A concurrent multi-query serving tier over one federation.

    Args:
        federation: The sources served.
        mode: ``"deterministic"`` (virtual clock, replayable) or
            ``"threads"`` (worker pool, wall clock).
        tenants: Tenant roster (default: one unlimited ``"default"``
            tenant with weight 1).
        workers: Worker-thread count for thread mode.
        queue_limit: Bounded run-queue size (admission control).
        pool_slots: Per-source connection-pool slots (int for all
            sources, or a ``{source: slots}`` mapping).
        seed: Workload master seed; every query's fault stream derives
            from it and the query's submission number.
        faults: One :class:`~repro.runtime.faults.Faults` value —
            wire profiles, payload tampering and an optional churn wave
            (flaky sources for queries *arriving* inside its window) —
            realised per query by ``faults.injector(derive_seed(seed,
            seq), submitted_s)``, so every fault stream derives from the
            workload seed and the submission number and runs replay
            byte-identically (default: no faults).  Anything else
            raises :class:`~repro.errors.ServiceError`.
        resilience: One :class:`~repro.runtime.engine.Resilience`
            value, handed unchanged to every worker's mediator.  Its
            ``breaker`` / ``quarantine`` configure the *shared* health
            registry, so one query's failures or vote evidence reroute
            *every* tenant's subsequent queries.  The service recovers
            inside a run and never re-plans: pool slots are held for
            the sources of the plan made at dispatch.
        planning: One :class:`~repro.optimize.planning.Planning` value,
            handed unchanged to every worker's mediator (each builds its
            own optimizer, with a private budget).  Its ``budget`` is
            the subset-expansion budget of one query on an idle
            service; :meth:`_arm_planning` shrinks it under queue
            pressure and near deadlines, and the ticket's
            ``planning_budget_exhausted`` flag records a cut-short
            search.
        statistics: Shared statistics provider (default: one
            :class:`~repro.sources.statistics.ExactStatistics`).  A
            provider with a callable ``observe`` — an
            :class:`~repro.sources.observed.ObservedStatistics` — is fed
            each completed query's runtime trace, so later queries plan
            on what earlier ones measured.
        plan_cache: Shared plan cache — an instance, a capacity, or a
            bool (default ``True``: caching is the point of a service).
        shed_policy: ``"deadline"`` (default) sheds deadlined queries at
            admission when their predicted completion — queue-wait from
            the :class:`~repro.serve.deadline.QueueWaitEstimator` plus
            this query's planned makespan — already misses the deadline;
            ``"none"`` only validates deadlines and lets everything
            queue.  Queries without a deadline are never shed by either
            policy.
        tracing: Build a causal span tree for every query (default
            on): a deterministic per-query ``trace_id``
            (:func:`~repro.obs.spans.derive_trace_id` over the workload
            seed and submission number), serving-tier phase spans, and
            the engine's op/attempt/backoff children rendered from the
            run's trace, all in ``service.spans`` — exportable as
            Chrome trace-event JSON and walked by the critical-path
            analyzer into ``ticket.phases``.  ``False`` skips span
            collection (and the ``plan`` / ``phases`` events) entirely.
    """

    def __init__(
        self,
        federation: Federation,
        mode: str = "deterministic",
        tenants: Sequence[TenantSpec] | None = None,
        workers: int = 4,
        queue_limit: int = 16,
        pool_slots: int | dict[str, int] = 2,
        seed: int = 0,
        faults: Faults | None = None,
        resilience: Resilience | None = None,
        planning: Planning | None = None,
        statistics: StatisticsProvider | None = None,
        plan_cache: PlanCache | int | bool | None = True,
        shed_policy: str = "deadline",
        tracing: bool = True,
    ):
        if mode not in MODES:
            raise ServiceError(
                f"unknown mode {mode!r}; choose from {MODES}"
            )
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if shed_policy not in SHED_POLICIES:
            raise ServiceError(
                f"unknown shed_policy {shed_policy!r}; "
                f"choose from {SHED_POLICIES}"
            )
        if faults is not None and not isinstance(faults, Faults):
            raise ServiceError(f"faults must be a Faults value, got {faults!r}")
        self.federation = federation
        self.mode = mode
        self.seed = seed
        self.faults = faults or Faults()
        self.resilience = resilience = resilience or Resilience()
        self.planning = planning or Planning()
        roster = list(tenants) if tenants else [DEFAULT_TENANT]
        self.tenants = {spec.name: spec for spec in roster}
        self.scheduler = FairScheduler(roster)
        self.admission = AdmissionController(roster, queue_limit)
        self.pools = SourcePools(pool_slots)
        self.shed_policy = shed_policy
        # Effective parallelism for the queue-wait prediction: worker
        # count under threads; under the virtual clock overlap is
        # bounded by per-source pool slots instead.
        width = workers if mode == "threads" else self.pools.default_slots
        self.wait_estimator = QueueWaitEstimator(width=width)
        self.deadline_met_count = 0
        self.deadline_miss_count = 0
        self.health = HealthRegistry(resilience.breaker, resilience.quarantine)
        self.statistics = statistics or ExactStatistics(federation)
        observe = getattr(self.statistics, "observe", None)
        #: Where each completed run's trace is mined (None: nowhere).
        self._observe = observe if callable(observe) else None
        self.plan_cache: PlanCache | None = PlanCache.of(plan_cache)
        self.metrics = MetricsRegistry()
        #: Critical-path seconds per ``phase[@detail]`` label, summed
        #: over every finished trace as it is tiled (with tracing on).
        self.blocked_s: dict[str, float] = {}
        #: One span log for the whole service, or None with tracing
        #: off.  Only the service appends (see DESIGN.md): each trace's
        #: engine subtree after its run, its skeleton at completion.
        self.spans: SpanLog | None = SpanLog() if tracing else None
        #: The service's own telemetry: serve-lifecycle events, every
        #: breaker / quarantine transition of the shared registry, and
        #: (in deterministic mode) every engine event, on one stream.
        self.recorder = Recorder(metrics=self.metrics)
        self.tickets: list[QueryTicket] = []
        self._by_seq: dict[int, QueryTicket] = {}
        self._seq = 0
        self.max_in_flight = 0
        self.completed_count = 0
        self.failed_count = 0
        self.now_s = 0.0
        # Deterministic-mode machinery.
        self._completions: list[tuple[float, int, list[str]]] = []
        self._blocked: tuple[QueryTicket, Any] | None = None
        self._det_mediator: Mediator | None = None
        # Thread-mode machinery.
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._stop = False
        # EWMA of measured optimizer latency (thread mode only; guarded
        # by _cond) — sizes the wall-clock planning budget.
        self._plan_latency_ewma: float | None = None
        self._t0 = time.monotonic()
        # Attached before any mediator exists: an engine only adopts a
        # registry nobody observes yet, which under threads would hand
        # the shared registry to whichever worker started first.
        if mode == "deterministic":
            self.health.observer = self.recorder.breaker_transition
            self.health.quality_observer = self.recorder.quarantine_changed
            self._det_mediator = self._make_mediator(self.recorder)
        else:
            # Engine-local virtual time means nothing on the service
            # stream; stamp with the clock every other serve event uses.
            self.health.observer = lambda _now_s, *change: (
                self.recorder.breaker_transition(self.elapsed_s, *change)
            )
            self.health.quality_observer = lambda _now_s, *change: (
                self.recorder.quarantine_changed(self.elapsed_s, *change)
            )
            for index in range(workers):
                thread = threading.Thread(
                    target=self._worker,
                    args=(index,),
                    name=f"serve-worker-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    # ------------------------------------------------------------------
    # Shared helpers

    def _make_mediator(self, recorder: Recorder) -> Mediator:
        return Mediator(
            self.federation,
            statistics=self.statistics,
            planning=self.planning,
            backend="runtime",
            resilience=self.resilience,
            recorder=recorder,
            plan_cache=self.plan_cache,
            health=self.health,
        )

    def _arm_planning(
        self, mediator: Mediator, ticket: QueryTicket, now_s: float
    ) -> None:
        """Re-arm the mediator's anytime budget for one query.

        The base subset budget shrinks hyperbolically with queue depth
        (planning time is exactly what a backed-up service cannot
        spare) and halves again once less than half the query's
        deadline remains.  Both signals are deterministic under the
        virtual clock, so replay stays byte-identical.

        Thread mode additionally arms ``wall_clock_s`` from the
        measured optimizer latency: twice the EWMA of completed
        ``plan()`` calls, scaled by the same pressure ratio as the
        subset budget and floored at 10 ms so a run of plan-cache hits
        cannot starve the next cold search.  Deterministic mode never
        arms wall clocks — elapsed real time would make plans (and
        traces) machine-dependent.
        """
        budget = mediator.planning_budget
        base = self.planning.budget
        if budget is None or base is None:
            return
        subsets = max(1, base // (1 + self.queue_depth))
        if ticket.deadline_s is not None:
            remaining = ticket.submitted_s + ticket.deadline_s - now_s
            if remaining < 0.5 * ticket.deadline_s:
                subsets = max(1, subsets // 2)
        wall_clock_s = None
        if self.mode == "threads":
            with self._cond:
                ewma = self._plan_latency_ewma
            if ewma is not None:
                pressure = subsets / base
                wall_clock_s = max(0.01, 2.0 * ewma * pressure)
        budget.arm(max_subsets=subsets, wall_clock_s=wall_clock_s)

    #: Smoothing factor for the plan-latency EWMA.
    _PLAN_LATENCY_ALPHA = 0.3

    def _observe_plan_latency(self, latency_s: float) -> None:
        """Feed one measured ``plan()`` latency into the EWMA that
        sizes thread-mode wall-clock planning budgets."""
        with self._cond:
            prev = self._plan_latency_ewma
            if prev is None:
                self._plan_latency_ewma = latency_s
            else:
                alpha = self._PLAN_LATENCY_ALPHA
                self._plan_latency_ewma = (
                    alpha * latency_s + (1.0 - alpha) * prev
                )

    def _predict_completion_s(
        self, tenant: str, query: FusionQuery | str
    ) -> float:
        """Predicted completion time for a query arriving now.

        Combines the queue-wait estimate from observed service times
        with this query's own planned makespan (deterministic mode
        only: planning at admission is cheap there because the shared
        plan cache will reuse the result at dispatch).
        """
        plan_makespan = None
        mediator = self._det_mediator
        if mediator is not None:
            try:
                optimization = mediator.plan(query)
                plan_makespan = estimated_response_time(
                    optimization.plan, self.federation, mediator.estimator
                ).makespan_s
            except FusionError:
                plan_makespan = None  # unplannable; fails post-admission
        backlog = self.queue_depth + self.in_flight
        return self.wait_estimator.predict_completion_s(
            tenant, backlog, plan_makespan
        )

    @staticmethod
    def _text_of(query: FusionQuery | str) -> str:
        return query if isinstance(query, str) else query.describe()

    def _serve_event(
        self,
        now_s: float,
        phase: str,
        seq: int,
        tenant: str,
        detail: str = "",
        latency_s: float = 0.0,
    ) -> None:
        """One lifecycle transition of query ``seq``, with the queue
        depth and in-flight count *after* it."""
        recorder = self.recorder
        recorder.record(
            ServeEvent(
                recorder.clock_offset_s + now_s,
                phase,
                seq,
                tenant,
                self.queue_depth,
                self.in_flight,
                detail,
                latency_s,
            )
        )

    def _serve_done(self, ticket: QueryTicket, now_s: float) -> None:
        """The ``completed`` / ``failed`` transition of a finished
        ticket.  ``detail`` carries the error text of a failure and
        ``"partial"`` for an answer known to be incomplete, so a
        persisted log tells a partial answer from a full one."""
        self._serve_event(
            now_s,
            "failed" if ticket.error else "completed",
            ticket.seq,
            ticket.tenant,
            detail=ticket.error or ("partial" if ticket.partial else ""),
            latency_s=ticket.latency_s,
        )

    def _admit(
        self,
        now_s: float,
        query: FusionQuery | str,
        tenant: str,
        deadline_s: float | None,
    ) -> QueryTicket:
        """Number one arrival, admit it (or raise the typed refusal) and
        queue its ticket.  Both drivers call this at their own clock's
        ``now_s``, thread mode under ``_cond``; waking the dispatcher
        afterwards is the caller's job."""
        seq = self._seq
        self._seq += 1
        predicted = None
        if (
            deadline_s is not None
            and self.shed_policy == "deadline"
            and valid_deadline(deadline_s)
        ):
            predicted = self._predict_completion_s(tenant, query)
        try:
            self.admission.admit(
                tenant, deadline_s=deadline_s, predicted_s=predicted
            )
        except AdmissionError as exc:
            self._serve_event(now_s, "rejected", seq, tenant, exc.reason)
            if isinstance(exc, DeadlineInfeasibleError):
                # Deadline refusals also get the richer ``shed`` event.
                recorder = self.recorder
                recorder.record(
                    ShedEvent(
                        recorder.clock_offset_s + now_s,
                        seq,
                        tenant,
                        "invalid" if exc.predicted_s is None else "infeasible",
                        exc.predicted_s or 0.0,
                        deadline_s if deadline_s is not None else 0.0,
                    )
                )
            raise
        ticket = QueryTicket(
            seq=seq,
            tenant=tenant,
            query=query,
            text=self._text_of(query),
            submitted_s=now_s,
            deadline_s=deadline_s,
            trace_id=(
                derive_trace_id(self.seed, seq)
                if self.spans is not None
                else ""
            ),
        )
        self.tickets.append(ticket)
        self._by_seq[seq] = ticket
        self.scheduler.push(tenant, ticket)
        self._serve_event(now_s, "admitted", seq, tenant)
        return ticket

    def _expired_in_queue(self, ticket: QueryTicket, now_s: float) -> bool:
        """True (and the ticket completed as an empty partial) when the
        deadline ran out while the query was still queued.

        The client's budget is gone: dispatching now would spend source
        charge on an answer nobody is waiting for, so the query
        completes immediately with the gracefully degraded result —
        an empty (trivially correct) item set marked partial.
        """
        if ticket.deadline_s is None:
            return False
        deadline = Deadline(ticket.submitted_s, ticket.deadline_s)
        if not deadline.expired(now_s):
            return False
        self.admission.on_dispatch(ticket.tenant)
        self.admission.on_complete(ticket.tenant)
        ticket.dispatched_s = now_s
        ticket.completed_s = now_s
        ticket.status = "done"
        ticket.items = frozenset()
        ticket.partial = True
        self.completed_count += 1
        self._note_deadline_cut(ticket, now_s, "queue")
        self._serve_done(ticket, now_s)
        self._note_deadline_outcome(ticket)
        self._finalize_trace(ticket)
        return True

    def _fail_unplannable(
        self, ticket: QueryTicket, exc: Exception, now_s: float
    ) -> None:
        """A query that cannot even be planned completes as failed."""
        self.admission.on_dispatch(ticket.tenant)
        self.admission.on_complete(ticket.tenant)
        ticket.dispatched_s = now_s
        ticket.completed_s = now_s
        ticket.status = "failed"
        ticket.error = f"{type(exc).__name__}: {exc}"
        self.failed_count += 1
        self._serve_done(ticket, now_s)
        self._finalize_trace(ticket)

    def _note_deadline_outcome(self, ticket: QueryTicket) -> None:
        """Met/missed accounting for one completed deadlined query."""
        if ticket.deadline_s is None:
            return
        if ticket.deadline_missed:
            self.deadline_miss_count += 1
        else:
            self.deadline_met_count += 1

    def _plan(
        self, mediator: Mediator, ticket: QueryTicket, now_s: float
    ) -> tuple[OptimizationResult, bool | None]:
        """Plan one popped query under a freshly armed budget; returns
        the result and whether the shared cache served it (None without
        a cache).  Failing an unplannable ticket (``FusionError``), on
        its own clock, is the calling driver's job."""
        self._arm_planning(mediator, ticket, now_s)
        # Passed on as the lookup built it: no second tuple per query.
        planned = mediator.lookup_plan(ticket.query)
        ticket.planning_budget_exhausted = planned[0].budget_exhausted
        return planned

    def _mark_dispatched(
        self, ticket: QueryTicket, sources: list[str], now_s: float
    ) -> None:
        """Dispatch bookkeeping of one planned query whose pool slots
        are free; thread mode calls it under ``_cond``."""
        self.pools.acquire(sources)
        self.admission.on_dispatch(ticket.tenant)
        ticket.dispatched_s = now_s
        ticket.status = "running"
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self._serve_event(now_s, "dispatched", ticket.seq, ticket.tenant)

    def _note_planned(
        self,
        ticket: QueryTicket,
        optimization,
        now_s: float,
        cache_hit: bool | None,
        elapsed_s: float,
    ) -> None:
        """Record one planning outcome on the ticket and (when tracing
        is on) as a ``plan`` event + planning metrics.

        ``elapsed_s`` is 0.0 in deterministic mode — planning takes no
        *virtual* time, and recording measured wall time would make
        replay machine-dependent.
        """
        ticket.planned_s = now_s
        ticket.plan_elapsed_s = elapsed_s
        ticket.plan_cache_hit = cache_hit
        ticket.search_strategy = optimization.search_strategy
        if not ticket.trace_id:
            return
        cache = "off"
        if cache_hit is not None:
            cache = "hit" if cache_hit else "miss"
        recorder = self.recorder
        recorder.record(
            PlanEvent(
                recorder.clock_offset_s + now_s,
                ticket.seq,
                ticket.tenant,
                ticket.trace_id,
                cache,
                optimization.search_strategy,
                optimization.subsets_considered,
                elapsed_s,
                optimization.budget_exhausted,
            )
        )

    def _finalize_trace(self, ticket: QueryTicket) -> None:
        """Append the completed query's serve spans and attribute its
        latency to phases (``ticket.phases``).

        The critical path is tiled from the serve spans just built and
        the op spans rendered after the run; the trace is not read back
        out of the span log.

        Every ticket that completed gets a trace — even ones that never
        planned or dispatched (queue-expired, unplannable): their phase
        boundaries collapse onto the completion instant, so the whole
        latency reads as queue time, which is exactly what happened.
        """
        completed = ticket.completed_s
        if self.spans is None or completed is None:
            return
        planned = (
            ticket.planned_s if ticket.planned_s is not None else completed
        )
        planned = min(planned, completed)
        dispatched = (
            ticket.dispatched_s
            if ticket.dispatched_s is not None
            else completed
        )
        dispatched = min(max(dispatched, planned), completed)
        cache = "off"
        if ticket.plan_cache_hit is not None:
            cache = "hit" if ticket.plan_cache_hit else "miss"
        serve = serve_spans(
            ticket.trace_id,
            ticket.seq,
            ticket.tenant,
            ticket.status,
            submitted_s=ticket.submitted_s,
            planned_s=planned,
            plan_elapsed_s=ticket.plan_elapsed_s,
            dispatched_s=dispatched,
            completed_s=completed,
            cache=cache,
            strategy=ticket.search_strategy,
        )
        self.spans.extend(serve)
        ops, children = ticket._ops or ((), {})
        ticket._ops = None
        path = critical_path(serve, ops, children)
        phases = ticket.phases = path.by_phase(self.blocked_s)
        recorder = self.recorder
        recorder.record(
            PhasesEvent(
                recorder.clock_offset_s + completed,
                ticket.seq,
                ticket.tenant,
                ticket.trace_id,
                # Admission is instantaneous; the schema folds it into queue.
                phases["admission"] + phases["queue"],
                phases["plan"],
                phases["pool"],
                phases["exec.wait"],
                phases["exec.wire"],
                phases["exec.backoff"],
                phases["merge"],
                path.total_s,
            )
        )

    def _execute(self, mediator: Mediator, ticket: QueryTicket, plan) -> bool:
        """Run one dispatched query's plan on ``mediator``'s engine and
        write the outcome onto the ticket; returns whether the deadline
        cut the run short.

        Called without the service lock: between dispatch and
        completion a ticket belongs to the driver (or worker) running
        it.  The run's traces are rendered as the trace's ``execute``
        subtree, appended as one batch whether the run returned or
        raised (the engine folds no run that raised: its records, on
        the error, are folded here); a run that returned hands its
        traces to mined statistics, and a run that raised mines nothing.
        """
        recorder = mediator.recorder
        dispatched_s = ticket.dispatched_s
        assert recorder is not None and dispatched_s is not None
        budget_s = None
        if ticket.deadline_s is not None:
            budget_s = max(
                0.0, ticket.submitted_s + ticket.deadline_s - dispatched_s
            )
        faults = self.faults.injector(derive_seed(self.seed, ticket.seq), ticket.submitted_s)
        # The engine's clock restarts at zero each run; offsetting its
        # event timestamps by the dispatch time interleaves them onto
        # the service timeline (under threads: virtual engine seconds
        # laid onto the wall axis).
        recorder.clock_offset_s = float(dispatched_s)
        deadline_cut = False
        result = None
        traces: tuple[RuntimeTrace, ...] = ()
        try:
            result = mediator.runtime.run(
                plan, budget_s=budget_s, faults=faults
            )
            ticket.items = result.items
            ticket.partial = not result.complete
            ticket.incomplete_conditions = result.incomplete_conditions
            ticket.makespan_s = result.makespan_s
            deadline_cut = result.deadline_expired
            traces = result.traces
        except FusionError as exc:
            ticket.error = f"{type(exc).__name__}: {exc}"
            if self.spans is not None and exc.records:
                traces = (RuntimeTrace.from_events(exc.records, operations=plan.operations),)
        finally:
            recorder.clock_offset_s = 0.0
        if self.spans is not None:
            spans, ops, children = execute_spans(
                ticket.trace_id, traces, dispatched_s
            )
            self.spans.extend(spans)
            ticket._ops = (ops, children)
        if self._observe is not None and result is not None:
            self._observe(traces)
        return deadline_cut

    def _note_deadline_cut(
        self, ticket: QueryTicket, now_s: float, stage: str = "execution"
    ) -> None:
        """The ``deadline`` event of a query whose budget ran out in
        the queue or of a run the engine cut short."""
        assert ticket.deadline_s is not None
        overrun_s = now_s - (ticket.submitted_s + ticket.deadline_s)
        recorder = self.recorder
        recorder.record(
            DeadlineEvent(
                recorder.clock_offset_s + now_s,
                ticket.seq,
                ticket.tenant,
                stage,
                ticket.deadline_s,
                max(0.0, overrun_s),
            )
        )

    def _complete(
        self, ticket: QueryTicket, sources: list[str], now_s: float
    ) -> None:
        """Completion bookkeeping of one executed query.  Both drivers
        call this at their own clock's ``now_s``, thread mode under
        ``_cond``; waking waiters afterwards is the caller's job."""
        self.pools.release(sources)
        self.admission.on_complete(ticket.tenant)
        ticket.completed_s = now_s
        if ticket.error:
            ticket.status = "failed"
            self.failed_count += 1
        else:
            ticket.status = "done"
            self.completed_count += 1
        self.wait_estimator.observe(ticket.tenant, ticket.makespan_s)
        self._serve_done(ticket, now_s)
        self._note_deadline_outcome(ticket)
        self._finalize_trace(ticket)

    @property
    def queue_depth(self) -> int:
        return self.admission.queued

    @property
    def in_flight(self) -> int:
        return self.admission.in_flight

    @property
    def elapsed_s(self) -> float:
        """Wall seconds since service start (thread mode's clock)."""
        return time.monotonic() - self._t0

    def submit(
        self,
        query: FusionQuery | str,
        tenant: str = "default",
        at_s: float | None = None,
        deadline_s: float | None = None,
    ) -> QueryTicket:
        """Admit one query (or raise a typed refusal) and return its
        ticket.  ``at_s`` is the virtual arrival time (deterministic
        mode only); omitted, the current clock is used.

        ``deadline_s`` is the end-to-end answer budget, measured from
        submission.  An unusable deadline (zero, negative, non-finite)
        raises :class:`~repro.errors.DeadlineInfeasibleError`
        immediately; under ``shed_policy="deadline"`` so does one the
        service predicts it cannot meet.  An admitted deadlined query
        always gets an answer by its deadline — possibly a *partial*
        one (``ticket.partial``) listing what was cut in
        ``ticket.incomplete_conditions`` — never an exception."""
        if self.mode == "deterministic":
            return self._submit_deterministic(query, tenant, at_s, deadline_s)
        if at_s is not None:
            raise ServiceError("at_s is only meaningful in deterministic mode")
        return self._submit_threads(query, tenant, deadline_s)

    def snapshot(self) -> dict[str, Any]:
        """Service counters as plain data (tests and the CLI read this)."""
        return {
            "mode": self.mode,
            "substrate": substrate_summary(),
            "queued": self.queue_depth,
            "in_flight": self.in_flight,
            "max_in_flight": self.max_in_flight,
            "completed": self.completed_count,
            "failed": self.failed_count,
            "admitted": dict(self.admission.admitted_total),
            "rejected": dict(self.admission.rejected_total),
            "deadline_met": self.deadline_met_count,
            "deadline_missed": self.deadline_miss_count,
            "plan_cache": (
                {
                    "hits": self.plan_cache.hits,
                    "misses": self.plan_cache.misses,
                }
                if self.plan_cache is not None
                else None
            ),
            "pools": self.pools.snapshot(),
        }

    def close(self) -> None:
        """Stop admitting; thread mode also stops workers (queued work
        that was never dispatched is abandoned)."""
        self.admission.close()
        if self.mode == "threads":
            with self._cond:
                self._stop = True
                self._cond.notify_all()
            for thread in self._threads:
                thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    # Deterministic mode: discrete-event loop at query granularity

    def _submit_deterministic(
        self,
        query: FusionQuery | str,
        tenant: str,
        at_s: float | None,
        deadline_s: float | None,
    ) -> QueryTicket:
        at = self.now_s if at_s is None else float(at_s)
        if at < self.now_s - 1e-12:
            raise ServiceError(
                f"arrival at {at} is in the past (clock is at {self.now_s})"
            )
        self.advance_to(at)
        ticket = self._admit(self.now_s, query, tenant, deadline_s)
        self._pump()
        return ticket

    def advance_to(self, at_s: float) -> None:
        """Advance the virtual clock, retiring completions on the way."""
        while self._completions and self._completions[0][0] <= at_s + 1e-12:
            done_at, seq, sources = heapq.heappop(self._completions)
            self.now_s = max(self.now_s, done_at)
            self._complete(self._by_seq[seq], sources, done_at)
            self._pump()
        self.now_s = max(self.now_s, at_s)

    def run_until_idle(self) -> float:
        """Drain every queued and in-flight query; returns the final
        virtual time."""
        if self.mode != "deterministic":
            raise ServiceError("run_until_idle is deterministic-mode only")
        while self._completions:
            self.advance_to(self._completions[0][0])
        if self._blocked is not None or len(self.scheduler):
            raise ServiceError(
                "service wedged: queued queries but nothing in flight "
                "will ever free pool slots"
            )
        return self.now_s

    def _pump(self) -> None:
        """Dispatch queued queries while pool slots allow."""
        while True:
            if self._blocked is not None:
                ticket, optimization = self._blocked
                if self._expired_in_queue(ticket, self.now_s):
                    self._blocked = None
                    continue
                sources = sorted(optimization.plan.sources_used())
                if not self.pools.can_acquire(sources):
                    return
                self._blocked = None
                self._dispatch_deterministic(ticket, optimization, sources)
                continue
            popped = self.scheduler.pop()
            if popped is None:
                return
            __, ticket = popped
            if self._expired_in_queue(ticket, self.now_s):
                continue
            assert self._det_mediator is not None
            try:
                optimization, cache_hit = self._plan(
                    self._det_mediator, ticket, self.now_s
                )
            except FusionError as exc:
                self._fail_unplannable(ticket, exc, self.now_s)
                continue
            self._note_planned(
                ticket, optimization, self.now_s, cache_hit, elapsed_s=0.0
            )
            sources = sorted(optimization.plan.sources_used())
            if not self.pools.can_acquire(sources):
                if self.in_flight == 0:
                    raise ServiceError(
                        f"plan for query #{ticket.seq} needs slots on "
                        f"{sources} that exceed the pool limits"
                    )
                self._blocked = (ticket, optimization)
                return
            self._dispatch_deterministic(ticket, optimization, sources)

    def _dispatch_deterministic(
        self, ticket: QueryTicket, optimization, sources: list[str]
    ) -> None:
        mediator = self._det_mediator
        assert mediator is not None
        dispatch_at = self.now_s
        self._mark_dispatched(ticket, sources, dispatch_at)
        deadline_cut = self._execute(mediator, ticket, optimization.plan)
        done_at = dispatch_at + ticket.makespan_s
        if deadline_cut:
            self._note_deadline_cut(ticket, done_at)
        heapq.heappush(self._completions, (done_at, ticket.seq, sources))

    # ------------------------------------------------------------------
    # Thread mode: worker pool over shared scheduler + pools

    def _submit_threads(
        self, query: FusionQuery | str, tenant: str, deadline_s: float | None
    ) -> QueryTicket:
        with self._cond:
            ticket = self._admit(self.elapsed_s, query, tenant, deadline_s)
            self._cond.notify()
            return ticket

    def drain(self, timeout_s: float = 60.0) -> None:
        """Block until every admitted query has completed."""
        if self.mode != "threads":
            raise ServiceError("drain is thread-mode only; use run_until_idle")
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while self.admission.queued or self.admission.in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"drain timed out after {timeout_s}s with "
                        f"{self.admission.queued} queued, "
                        f"{self.admission.in_flight} in flight"
                    )
                self._cond.wait(min(remaining, 0.1))

    def _worker(self, index: int) -> None:
        mediator = self._make_mediator(Recorder(metrics=self.metrics))
        while True:
            with self._cond:
                popped = None
                while True:
                    popped = self.scheduler.pop()
                    if popped is not None or self._stop:
                        break
                    self._cond.wait(0.1)
                if popped is None:
                    return
                __, ticket = popped
                if self._expired_in_queue(ticket, self.elapsed_s):
                    self._cond.notify_all()
                    continue
            # Plan outside the lock: the shared cache locks internally,
            # and optimization is the expensive part worth overlapping.
            plan_t0 = time.monotonic()
            try:
                optimization, cache_hit = self._plan(
                    mediator, ticket, self.elapsed_s
                )
                sources = sorted(optimization.plan.sources_used())
            except FusionError as exc:
                with self._cond:
                    self._fail_unplannable(ticket, exc, self.elapsed_s)
                    self._cond.notify_all()
                continue
            finally:
                self._observe_plan_latency(time.monotonic() - plan_t0)
            plan_elapsed = time.monotonic() - plan_t0
            # planned_s marks when planning *started* (the queue span
            # ends there; the plan span covers the measured elapsed).
            planned_at = max(
                ticket.submitted_s, self.elapsed_s - plan_elapsed
            )
            with self._cond:
                self._note_planned(
                    ticket, optimization, planned_at, cache_hit, plan_elapsed
                )
                while not (self.pools.can_acquire(sources) or self._stop):
                    self._cond.wait(0.1)
                if self._stop and not self.pools.can_acquire(sources):
                    return
                self._mark_dispatched(ticket, sources, self.elapsed_s)
            deadline_cut = self._execute(mediator, ticket, optimization.plan)
            with self._cond:
                now = self.elapsed_s
                if deadline_cut:
                    self._note_deadline_cut(ticket, now)
                self._complete(ticket, sources, now)
                self._cond.notify_all()
