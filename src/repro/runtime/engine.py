"""Discrete-event concurrent execution of fusion-query plans.

:mod:`repro.mediator.schedule` *predicts* a plan's response time by
longest-path analysis over a finished trace; this engine *executes* the
plan concurrently on a virtual clock and observes the response time.
Both obey the same parallel execution model:

* remote operations targeting **different** sources overlap;
* operations on the **same** source serialize on one wrapper connection,
  served in plan order (a later op never overtakes an earlier op of the
  same source, matching the scheduler's greedy recurrence — under zero
  faults the simulated makespan equals the predicted one exactly);
* an operation starts only after every register it reads is complete;
* local mediator operations are instantaneous.

On top of that model the engine layers what static analysis cannot see:
per-attempt fault injection (:mod:`repro.runtime.faults`), retries with
exponential backoff (:mod:`repro.runtime.policy`), and
one record per wire attempt, operation, send-set, retry, hedge and
tainted answer, whose fold (:mod:`repro.runtime.trace`) is the trace.
Failed attempts are charged in full on the simulated wire — retries buy
resilience with real traffic, which is exactly the trade-off the R3
benchmark measures.

Replica-aware resilience (opt-in fields of :class:`Resilience`; the
zero-config engine behaves exactly as before):

* **Hedged dispatch** (``hedge_delay_s``) — once an attempt has been
  running for the hedge delay, or immediately when it fails, the same
  operation is speculatively issued to a substitutable source (declared
  mirror or row-containing sibling, :meth:`Federation.substitutability`).
  The first success wins; the loser is cancelled, but its traffic was
  already on the wire and stays charged.  At most one hedge per
  operation, and hedges never consume the retry budget.
* **Circuit breakers** (``breaker``) — a :class:`HealthRegistry` tracks
  per-source rolling failure stats; an open breaker makes dispatch
  reroute to a healthy substitute, or park the task when none can
  serve.  Fusion plans only union per-source contributions, so a
  substitute whose rows contain the original's can never introduce
  spurious answers — substitution trades nothing for completeness.
  **One wait rule** covers every refusal (open or half-open breaker,
  quarantine): a parked task wakes when its breaker reopens, or at the
  next completion in its own run.  Quarantine is sticky, so it never
  lifts on its own.  Once the event heap runs dry with tasks still
  parked, each is given up exactly as if its retry budget were spent,
  so a run never hangs on a refusal.
* **Replica load balancing** (``load_balance``) — plans typically put
  every operation of a replica group on its representative, leaving the
  mirrors idle.  With balancing on, a queued operation may claim the
  connection slot of *any* declared group member (round-robin over the
  members, in federation order), so healthy traffic spreads across the
  group instead of serializing on the representative.  Mirrors hold
  identical rows, so answers are unchanged; the serving member is
  recorded in the trace and the rotation is seed-deterministic.

**One connection, one attempt.** A task holds its slot (its planned
source's connection, or the group member load balancing gave it) from
dispatch until it finishes or parks waiting for a ``vote``
confirmation; its retries run there.  Any other connection — a
reroute around a breaker, a hedge, a confirmation fetch — is held for
one attempt.  ``_Task.holds`` is that rule, and every replica choice
(``_Execution._free_replica``) skips a busy connection the task does
not hold, so no two live attempts ever share a connection.

Everything remains seeded and deterministic: hedge timers live on the
same virtual-clock heap as completions, substitutes are probed in the
federation's deterministic substitutability order, and replaying a
configuration reproduces the trace byte for byte.

Example:
    >>> from repro.sources.generators import dmv_fig1
    >>> from repro.plans.builder import build_filter_plan
    >>> from repro.runtime.engine import RuntimeEngine
    >>> federation, query = dmv_fig1()
    >>> plan = build_filter_plan(query, federation.source_names)
    >>> result = RuntimeEngine(federation).run(plan)
    >>> sorted(result.items)
    ['J55', 'T21']
    >>> result.trace.total_retries
    0
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import CostModelError, ExecutionError, FusionError
from repro.mediator.executor import ExecutionResult
from repro.obs.events import (
    AttemptEvent,
    Event,
    HedgeEvent,
    OpEvent,
    QualityEvent,
    RetryEvent,
    RunEndEvent,
    RunStartEvent,
    SendsetEvent,
)
from repro.plans.operations import (
    Fetch,
    LoadOp,
    Operation,
    SelectionOp,
    SemijoinOp,
)
from repro.plans.plan import Plan, PlanStep
from repro.relational.items import EMPTY_ITEMS
from repro.relational.relation import Relation
from repro.runtime.faults import AttemptFate, AttemptOutcome, FaultInjector
from repro.runtime.health import BreakerConfig, BreakerState, HealthRegistry
from repro.runtime.policy import OnExhaust, RetryPolicy
from repro.runtime.trace import OpStatus, RuntimeTrace
from repro.runtime.verify import AnswerReport, AnswerVerifier, validate_mode
from repro.sources.registry import Federation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import Recorder


@dataclass(frozen=True)
class Resilience:
    """How a mediator responds to sources that fail, stall, or lie.

    One frozen value, validated at construction and taken unchanged by
    :class:`RuntimeEngine`, :class:`~repro.mediator.session.Mediator`
    and :class:`~repro.serve.MediatorService`.  What the *world* does (a
    :class:`FaultInjector`) and what engines *share* (a
    :class:`HealthRegistry`, a recorder) are collaborators, not
    settings, and stay constructor arguments.

    Attributes:
        policy: Retry/backoff policy (default:
            :meth:`RetryPolicy.default`).
        hedge_delay_s: Hedged-dispatch delay in virtual seconds, see
            the module docstring (``None``: no hedging).
        breaker: Circuit-breaker configuration; ``None`` disables
            breakers (health is still tracked).
        quarantine: Data-quality quarantine: sources whose verified
            answers keep failing checks are refused like an open
            breaker, on *quality* rather than errors, for the rest of
            the registry's life (``False``: off).
        load_balance: Replica load balancing (off by default — the
            zero-config engine matches the static scheduler exactly).
        verify: Answer-verification mode of :mod:`repro.runtime.verify`:
            ``"off"`` (trust every payload), ``"sanitize"``
            (schema-validate and dedup each answer) or ``"vote"``
            (sanitize plus cross-replica majority confirmation).

    ``breaker`` / ``quarantine`` configure the registry an engine builds
    for itself; a shared ``health`` registry keeps its own.
    """

    policy: RetryPolicy = RetryPolicy()
    hedge_delay_s: float | None = None
    breaker: BreakerConfig | None = None
    quarantine: bool = False
    load_balance: bool = False
    verify: str = "off"

    def __post_init__(self) -> None:
        if self.hedge_delay_s is not None and not (
            math.isfinite(self.hedge_delay_s) and self.hedge_delay_s >= 0
        ):
            raise CostModelError(
                f"hedge_delay_s must be finite and non-negative, "
                f"got {self.hedge_delay_s}"
            )
        validate_mode(self.verify)
        for name, kind, wanted in (
            ("policy", RetryPolicy, "a RetryPolicy"),
            ("breaker", BreakerConfig | None, "a BreakerConfig or None"),
            ("quarantine", bool, "a bool"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise CostModelError(f"{name} must be {wanted}, got {value!r}")


class RuntimeEngine:
    """Configured concurrent executor over one federation.

    Args:
        federation: The sources to execute against.
        resilience: How to respond to failing or lying sources (default:
            ``Resilience()`` — three retries, nothing else).
        faults: Fault injector (default: no injected faults).
        health: An existing :class:`HealthRegistry` to share (a serving
            tier hands one to every worker's engine); its own breaker /
            quarantine configuration wins over ``resilience``'s.
        recorder: Optional :class:`repro.obs.Recorder`; when attached,
            every attempt, send-set, retry, hedge, breaker transition,
            and operation is reported as structured telemetry.  ``None``
            (the default) exports nothing and changes nothing.
    """

    def __init__(
        self,
        federation: Federation,
        resilience: Resilience | None = None,
        faults: FaultInjector | None = None,
        health: HealthRegistry | None = None,
        recorder: "Recorder | None" = None,
    ):
        self.federation = federation
        self.resilience = resilience = resilience or Resilience()
        self.faults = faults or FaultInjector.none()
        self.policy = resilience.policy
        self.hedge_delay_s = resilience.hedge_delay_s
        self.health = (
            health
            if health is not None
            else HealthRegistry(resilience.breaker, resilience.quarantine)
        )
        self.load_balance = resilience.load_balance
        self.verify = verify = resilience.verify
        self.verifier = (
            AnswerVerifier(federation, verify) if verify != "off" else None
        )
        self.recorder = recorder
        if recorder is not None and self.health.observer is None:
            self.health.observer = recorder.breaker_transition
        if recorder is not None and self.health.quality_observer is None:
            self.health.quality_observer = recorder.quarantine_changed
        self._substitutes: dict[str, tuple[str, ...]] | None = None

    @property
    def resilient(self) -> bool:
        """True when hedging or breakers may alter the execution."""
        return self.hedge_delay_s is not None or self.health.enabled

    def substitutes_for(self, source_name: str) -> tuple[str, ...]:
        """Substitutable sources for ``source_name``, best first (cached)."""
        if self._substitutes is None:
            # Default containment 1.0, lossless substitutes only: the
            # "never a spurious tuple" contract assumes nothing less.
            self._substitutes = self.federation.substitutability()
        return self._substitutes.get(source_name, ())

    def run(
        self,
        plan: Plan,
        budget_s: float | None = None,
        faults: FaultInjector | None = None,
    ) -> ExecutionResult:
        """Execute ``plan`` concurrently and return its answer with the
        run's trace (``result.trace``).

        ``budget_s`` is the query's remaining deadline budget in virtual
        time.  When it expires mid-run the engine cancels every in-flight
        attempt, substitutes empty results for the unfinished remote
        operations (status :attr:`OpStatus.DEADLINE`), evaluates the
        remaining local operations (instantaneous), and returns a
        *partial* answer — a subset of the true answer, never a superset,
        because fusion plans only union and intersect item sets.  Retry
        backoff and hedge timers are clamped so neither can be scheduled
        past the budget.  A budget that is already spent (``<= 0``)
        degrades everything without touching the wire.  ``faults``
        replaces the engine's injector for this run only (a serving
        tier judges each query with its own seeded stream).
        """
        if budget_s is not None and not math.isfinite(budget_s):
            raise CostModelError(
                f"budget_s must be finite or None, got {budget_s}"
            )
        return _Execution(self, plan, budget_s, faults).run()


class _Task:
    """One operation's mutable state in one run.  What the plan alone
    fixes — inputs, dependents, how records name the operation — is its
    :class:`PlanStep` (``spec``), derived once per plan; the wire state
    exists only on remote operations."""

    __slots__ = (
        "spec", "op", "remaining", "queued_s",
        "first_start_s", "attempt_count", "last_fate", "done", "inflight",
        "hedged", "primary_attempts", "retry_pending", "exhausted",
        "slot_source", "answers", "confirm_tried", "final_status",
        "slot_released",
    )

    def __init__(self, spec: PlanStep):
        self.spec = spec
        self.op = spec.operation
        # Inputs not yet finished; the task is ready at zero.
        self.remaining = spec.in_degree
        self.queued_s = 0.0
        self.done = False
        if not spec.remote:
            return  # a local operation never goes on the wire
        # The source whose connection slot this task occupies once
        # dispatched; equals the planned source unless load balancing
        # moved the task onto another member of the same replica group.
        self.slot_source = spec.source
        self.first_start_s: float | None = None
        # Attempts recorded so far, and the latest one's fate.
        self.attempt_count = 0
        self.last_fate = "?"
        self.inflight: list[_Attempt] = []
        self.hedged = False
        self.primary_attempts = 0
        self.retry_pending = False
        self.exhausted = False
        # Verification state: sanitized answers collected so far as
        # ``(source, cleaned_value, report)``, the confirm targets
        # already tried, and the status the primary answer earned.
        self.answers: list[tuple[str, Any, AnswerReport]] = []
        self.confirm_tried: set[str] = set()
        self.final_status: OpStatus | None = None
        # True once the task gave its connection slot back early (it
        # parked waiting for a busy replica to confirm its answer).
        self.slot_released = False

    @property
    def step(self) -> int:
        return self.spec.step

    def holds(self, name: str) -> bool:
        """Whether ``name`` is the connection this task owns: its slot,
        from dispatch until it parks for a confirmation."""
        return name == self.slot_source and not self.slot_released

    @property
    def planned_source(self) -> str:
        return self.spec.source


class _Attempt:
    """One in-flight wire attempt (primary-path or hedge)."""

    __slots__ = (
        "task", "source_name", "start_s", "outcome", "value", "traffic",
        "hedge", "confirm", "cancelled",
    )

    def __init__(
        self,
        task: _Task,
        source_name: str,
        start_s: float,
        outcome: AttemptOutcome,
        value: Any,
        traffic: tuple,
        hedge: bool,
        confirm: bool = False,
    ):
        self.task = task
        self.source_name = source_name
        self.start_s = start_s
        self.outcome = outcome
        self.value = value
        self.traffic = traffic
        self.hedge = hedge
        self.confirm = confirm
        self.cancelled = False


def _traffic_of(records: list) -> tuple[Any, tuple]:
    """One pass over an attempt's messages: its elapsed seconds, and the
    cost, items sent, items received, rows loaded and message count its
    ``attempt`` record carries.  Each total starts from ``0`` and adds in
    message order, as ``sum`` does."""
    cost = sent = received = loaded = elapsed = 0
    for record in records:
        cost += record.cost
        sent += record.items_sent
        received += record.items_received
        loaded += record.rows_loaded
        elapsed += record.elapsed_s
    return elapsed, (cost, sent, received, loaded, len(records))


class _Execution:
    """One plan run: the event heap, queues, and handlers."""

    def __init__(
        self,
        engine: RuntimeEngine,
        plan: Plan,
        budget_s: float | None = None,
        faults: FaultInjector | None = None,
    ):
        self.engine = engine
        self.federation = engine.federation
        self.faults = faults if faults is not None else engine.faults
        self.policy = engine.policy
        self.health = engine.health
        self.recorder = engine.recorder
        self.plan = plan
        self.budget_s = budget_s
        self.expired = False
        self.tasks = [_Task(spec) for spec in plan.steps]
        # Each operation's value once it finished (``None`` before).
        self.values: list[Any] = [None] * len(self.tasks)
        # Per-source FIFO of task indices in plan order; the head may
        # start once its inputs are ready and the connection is free.
        self.queues: dict[str, deque[_Task]] = {}
        self.busy: dict[str, bool] = {}
        for task in self.tasks:
            if task.spec.remote:
                self.queues.setdefault(task.slot_source, deque()).append(task)
                self.busy[task.slot_source] = False
        # Round-robin rotation state per replica group, only consulted
        # when the engine balances load across group members.
        self.rotation: dict[tuple[str, ...], int] = {}
        # Tasks whose dispatch is refused by an open breaker with no
        # healthy substitute; re-tried on every state change.
        self.blocked: list[_Task] = []
        # Tasks whose answer awaits a cross-replica confirmation from a
        # member that is currently busy; re-tried whenever a slot frees.
        self.confirm_waiting: list[_Task] = []
        self.heap: list[tuple[float, int, str, tuple]] = []
        self.seq = itertools.count()
        # The run's records, in event order: its own, and the breaker /
        # quarantine transitions its recorder observes while it runs.
        self.records: list[Event] = []

    # ------------------------------------------------------------------
    # Event loop

    def run(self) -> ExecutionResult:
        recorder = self.recorder
        if recorder is not None:
            recorder.record(
                RunStartEvent(
                    recorder.clock_offset_s,
                    "runtime",
                    recorder.round,
                    len(self.plan.operations),
                    self.plan.remote_op_count,
                    self.plan.result,
                )
            )
            recorder.run_records = self.records
        try:
            self._loop()
        except FusionError as exc:
            # Nothing folds a run that raised; its records go with the
            # error, for whoever renders what it did.
            exc.records = tuple(self.records)
            raise
        finally:
            if recorder is not None:
                recorder.run_records = None
        answer = self.values[self.plan.result_writer]
        trace = RuntimeTrace.from_events(
            self.records, operations=self.plan.operations
        )
        # Registers hold bitmaps; the answer is decoded when first read.
        result = ExecutionResult(
            frozenset() if answer is None else answer, traces=(trace,)
        )
        if recorder is not None:
            recorder.record(
                RunEndEvent(
                    recorder.clock_offset_s + trace.makespan_s,
                    "runtime",
                    recorder.round,
                    trace.makespan_s,
                    trace.total_retries,
                    len(trace.degraded_steps) + len(trace.deadline_steps),
                    len(trace.recovered_steps),
                    trace.hedge_attempts,
                    trace.total_cost,
                    len(result.item_set),
                )
            )
        return result

    def _loop(self) -> None:
        """Drain the event heap: every task finishes or the run raises."""
        if self.budget_s is not None and self.budget_s <= 0:
            # Budget already spent: degrade everything without ever
            # touching the wire.
            self._handle_deadline(0.0)
        else:
            if self.budget_s is not None:
                # Seq ``inf`` orders the expiry *after* every other
                # event at the same instant: a deadline exactly at
                # completion time counts as met.
                heapq.heappush(
                    self.heap, (self.budget_s, math.inf, "deadline", ())
                )
            for task in self.tasks:
                if task.remaining == 0:
                    self._mark_ready(task, 0.0)
        now = 0.0
        while self.heap or self.blocked:
            if not self.heap:
                # Nothing left in this run can wake a parked task: give
                # the oldest up as if its retries were spent, and let
                # whatever that frees carry on.
                self._give_up(self.blocked[0], now, OpStatus.DEGRADED)
                continue
            now, __, kind, payload = heapq.heappop(self.heap)
            if kind == "complete":
                self._handle_complete(now, payload[0])
            elif kind == "retry":
                self._handle_retry(now, payload[0])
            elif kind == "hedge":
                self._handle_hedge(now, *payload)
            elif kind == "deadline":
                self._handle_deadline(now)
            else:  # "dispatch": a parked task's refusal ended
                self._wake(now, payload[0])
        unfinished = [t.step for t in self.tasks if not t.done]
        if unfinished:  # pragma: no cover - would be an engine bug
            raise ExecutionError(
                f"runtime deadlock: steps {unfinished} never completed"
            )

    def _push(self, time_s: float, kind: str, payload: tuple) -> None:
        heapq.heappush(self.heap, (time_s, next(self.seq), kind, payload))

    def _stamp(self, now: float) -> tuple[float, int]:
        """An event's ``ts`` and ``round``: the recorder's clock and
        round, or the engine clock and round 0 without a recorder."""
        recorder = self.recorder
        if recorder is None:
            return now, 0
        return recorder.clock_offset_s + now, recorder.round

    def _record(self, event: Event) -> None:
        """Keep one record of the run; an attached recorder receives the
        same object."""
        self.records.append(event)
        if self.recorder is not None:
            self.recorder.record(event)

    # ------------------------------------------------------------------
    # Readiness and dispatch

    def _mark_ready(self, task: _Task, now: float) -> None:
        """Queue a remote task for its connection, or evaluate a local
        one on the spot: local operations are instantaneous and free."""
        task.queued_s = now
        if task.spec.remote:
            self._try_dispatch(task.slot_source, now)
            return
        value = task.op.evaluate(self._fetch_for(task))
        self._close(task, now, value, OpStatus.OK, now)
        self._propagate(task, now)

    def _members(self, source_name: str) -> tuple[str, ...]:
        """The connection slots ``source_name``'s queue may claim.

        With load balancing on, any member of its replica group, so
        several queued ops of one source run concurrently across the
        group; otherwise only its own.
        """
        if self.engine.load_balance:
            return self.federation.group_of(source_name)
        return (source_name,)

    def _dispatch_group(self, source_name: str, now: float) -> None:
        """Dispatch from every queue a freed slot could now serve."""
        for member in self._members(source_name):
            self._try_dispatch(member, now)
        if self.confirm_waiting:
            self._drain_confirms(now)

    def _try_dispatch(self, source_name: str, now: float) -> None:
        """Start ready queue heads while :meth:`_pick_slot` finds a slot."""
        if self.expired:
            return  # past the deadline; nothing new goes on the wire
        queue = self.queues.get(source_name)
        while queue and queue[0].remaining == 0:
            slot = self._pick_slot(queue[0])
            if slot is None:
                return
            task = queue.popleft()
            task.slot_source = slot
            self.busy[slot] = True
            self._start_attempt(task, now)

    def _pick_slot(self, task: _Task) -> str | None:
        """Next idle, capable replica-group member, round-robin.

        Not :meth:`_free_replica`: this picks the slot a queued task
        will hold *before* it is dispatched, so it must not commit a
        half-open probe (``health.allow`` is left to
        :meth:`_start_attempt`, for the member actually chosen), it
        advances the group's rotation, and its single-member path never
        refuses a free slot — a refused slot would strand the task in
        its queue.
        """
        members = self._members(task.planned_source)
        if len(members) == 1:
            member = members[0]
            return None if self.busy.get(member, False) else member
        start = self.rotation.get(members, 0)
        for offset in range(len(members)):
            member = members[(start + offset) % len(members)]
            if self.busy.get(member, False):
                continue
            if not self._can_serve(member, task.op):
                continue
            # Quarantine is stable state (unlike half-open probes, the
            # check has no side effect), so refuse the slot here: a
            # quarantined slot would shadow the healthy planned source
            # from the substitute search and strand the task.
            if (
                self.health.state_of(member)
                is BreakerState.QUARANTINED
            ):
                continue
            self.rotation[members] = (start + offset + 1) % len(members)
            return member
        return None

    def _start_attempt(self, task: _Task, now: float) -> None:
        """Begin a primary-path attempt, routing around open breakers."""
        if task.first_start_s is None:
            task.first_start_s = now
        slot = task.slot_source
        serving = slot
        if not self.health.allow(slot, now):
            serving = self._substitute_target(task, now)
            if serving is None:
                self._block(task, now)
                return
        self._launch(task, serving, now, hedge=False)

    def _block(self, task: _Task, now: float) -> None:
        """Park a dispatch refused with no substitute free: the one wait rule.

        The slot's refusal may next change when its open breaker
        reopens, if that is still ahead; a wake goes on the heap there.
        Any completion in the run also wakes every parked task (a
        half-open breaker's probe may have finished, a substitute may be
        free).  A task nothing can wake — a quarantined slot, or a probe
        held by another run sharing the registry — is given up by
        :meth:`run` once the heap is empty.
        """
        self.blocked.append(task)
        wake_at = self.health.reopens_at(task.slot_source)
        if wake_at is not None and wake_at > now:
            self._push(wake_at, "dispatch", (task,))

    def _wake(self, now: float, task: _Task) -> None:
        """Unpark ``task`` and retry its dispatch, unless it no longer needs one.

        A hedge may have won while the task was parked: re-launching it
        would double-finish it and charge phantom failures to the
        hedge's source.  Under ``vote`` the task may still await its
        confirmation, answer in hand, so it is not done yet.
        """
        if task not in self.blocked:
            return  # already woken, or finished
        self.blocked.remove(task)
        if not (task.done or task.answers):
            self._start_attempt(task, now)

    def _substitute_target(self, task: _Task, now: float) -> str | None:
        """First free substitute of the planned source, for a reroute
        or a hedge: probed in the federation's deterministic
        substitutability order (declared replicas first, then by
        descending row containment)."""
        taken = {a.source_name for a in task.inflight}
        taken.add(task.planned_source)
        taken.add(task.slot_source)
        candidates = self.engine.substitutes_for(task.planned_source)
        return self._free_replica(task, candidates, taken, now)[0]

    def _free_replica(
        self,
        task: _Task,
        candidates: tuple[str, ...],
        taken: set[str],
        now: float,
    ) -> tuple[str | None, bool]:
        """The first of ``candidates`` that may serve ``task`` now.

        Skips names in ``taken``, sources that cannot serve the
        operation and busy connections the task does not own; asks
        ``health.allow`` last, because it commits a half-open probe, so
        it must only run for a candidate we would actually use.  The
        flag reports whether an untried capable candidate was busy —
        worth waiting for when nothing was free.
        """
        busy_seen = False
        for name in candidates:
            if name in taken or not self._can_serve(name, task.op):
                continue
            busy = self.busy.get(name, False)
            busy_seen = busy_seen or busy
            if busy and not task.holds(name):
                continue
            if self.health.allow(name, now):
                return name, busy_seen
        return None, busy_seen

    def _can_serve(self, source_name: str, op: Operation) -> bool:
        capabilities = self.federation.source(source_name).capabilities
        if isinstance(op, SemijoinOp):
            return capabilities.can_semijoin
        if isinstance(op, LoadOp):
            return capabilities.supports_load
        return True

    def _launch(
        self,
        task: _Task,
        serving: str,
        now: float,
        hedge: bool,
        confirm: bool = False,
    ) -> None:
        """Issue one wire attempt of ``task`` against source ``serving``."""
        source = self.federation.source(serving)
        if not task.holds(serving):
            # The task's own connection slot stays with it for retries;
            # a substitute's connection is held only for the attempt.
            self.busy[serving] = True
        if isinstance(task.op, SemijoinOp):
            bindings = self.values[task.spec.inputs[task.op.input_register]]
            ts, round_no = self._stamp(now)
            self._record(
                SendsetEvent(
                    ts, round_no, task.step, serving, task.spec.condition, len(bindings)
                )
            )
        mark = len(source.traffic.records)
        value = task.op.call(source, self._fetch_for(task))
        base, traffic = _traffic_of(source.traffic.records[mark:])
        outcome = self.faults.judge(source.name, base, source.link)
        timeout = self.policy.timeout_s
        if timeout is not None and outcome.duration_s > timeout:
            outcome = AttemptOutcome(AttemptFate.TIMEOUT, timeout)
        if outcome.fate.failed:
            value = None
        else:
            # A delivered payload may still be wrong: the injector's
            # data-fault stream (a sibling of the wire stream, so wire
            # fates are untouched) can truncate, stale-swap, duplicate,
            # or corrupt it before the engine ever sees it.
            value, __ = self.faults.tamper(
                serving, value, pool=self._stale_pool(task, source)
            )
        attempt = _Attempt(
            task, serving, now, outcome, value, traffic, hedge, confirm
        )
        task.inflight.append(attempt)
        if hedge:
            task.hedged = True
        elif not confirm:
            task.primary_attempts += 1
        self._push(now + outcome.duration_s, "complete", (attempt,))
        hedge_at = now + (self.engine.hedge_delay_s or 0.0)
        if (
            not hedge
            and not confirm
            and self.engine.hedge_delay_s is not None
            and not task.hedged
            and self.engine.hedge_delay_s < outcome.duration_s
            # Clamp to the query budget: a hedge armed at or past the
            # deadline could only ever be cancelled.
            and (self.budget_s is None or hedge_at < self.budget_s)
        ):
            self._push(hedge_at, "hedge", (task, attempt))

    def _fetch_for(self, task: _Task) -> Fetch:
        """``task``'s register reader: the value its input's writer holds."""
        values, inputs = self.values, task.spec.inputs

        def fetch(register: str) -> Any:
            return values[inputs[register]]

        return fetch

    def _stale_pool(self, task: _Task, source) -> Any:
        """Candidate spurious items for a stale item-set answer.

        A stale selection may claim any item the source holds; a stale
        semijoin may (wrongly) confirm any item it was asked about — the
        bindings, passed as they are.  Loads mutate rows inside the
        injector instead, so they need no pool.
        """
        profile = self.faults.profile_for(source.name).data
        if profile is None or profile.stale_rate == 0.0:
            return EMPTY_ITEMS
        op = task.op
        if isinstance(op, SemijoinOp):
            return self.values[task.spec.inputs[op.input_register]]
        if isinstance(op, SelectionOp):
            table = getattr(source, "table", None)
            if table is None:
                return EMPTY_ITEMS
            return table.relation.items()
        return EMPTY_ITEMS

    # ------------------------------------------------------------------
    # Hedging

    def _handle_hedge(
        self, now: float, task: _Task, attempt: _Attempt
    ) -> None:
        """Hedge timer fired: duplicate a still-slow attempt."""
        if task.done or task.hedged or attempt not in task.inflight:
            return  # answered, already hedged, or the attempt is over
        self._hedge(task, attempt.source_name, now, "timer")

    def _hedge(
        self, task: _Task, primary: str, now: float, trigger: str
    ) -> None:
        """Duplicate ``task`` on an idle healthy substitute, if any."""
        if self.budget_s is not None and now >= self.budget_s:
            return  # no budget left for speculation
        target = self._substitute_target(task, now)
        if target is None:
            return  # no idle healthy replica; the primary races alone
        ts, round_no = self._stamp(now)
        self._record(
            HedgeEvent(ts, round_no, task.step, primary, target, trigger)
        )
        self._launch(task, target, now, hedge=True)

    def _cancel(self, attempt: _Attempt, now: float) -> None:
        """Cancel a raced-out attempt: record it, free its connection.

        The attempt's traffic was charged when it went on the wire and
        stays charged — cancellation only stops the wait.
        """
        attempt.cancelled = True
        self._record_attempt(attempt, now, AttemptFate.CANCELLED)
        self.health.abandon(attempt.source_name)
        if not attempt.task.holds(attempt.source_name):
            self.busy[attempt.source_name] = False
            self._dispatch_group(attempt.source_name, now)

    # ------------------------------------------------------------------
    # Completion, retries, degradation

    def _record_attempt(
        self, attempt: _Attempt, now: float, fate: AttemptFate
    ) -> None:
        task = attempt.task
        spec = task.spec
        cost, sent, received, loaded, messages = attempt.traffic
        task.attempt_count += 1
        # ``_value_`` is the value an enum member stores; ``.value``
        # reads it through a Python-level descriptor, once per record.
        task.last_fate = fate_text = fate._value_
        ts, round_no = self._stamp(now)
        self._record(
            AttemptEvent(
                ts,
                round_no,
                spec.step,
                spec.kind,
                spec.source,
                attempt.source_name,
                spec.condition,
                task.attempt_count,
                attempt.start_s,
                now,
                fate_text,
                attempt.hedge,
                cost,
                sent,
                received,
                loaded,
                messages,
            )
        )

    def _handle_complete(self, now: float, attempt: _Attempt) -> None:
        if attempt.cancelled:
            return  # the race's loser; recorded at cancellation
        task = attempt.task
        task.inflight.remove(attempt)
        self._record_attempt(attempt, now, attempt.outcome.fate)
        ok = not attempt.outcome.fate.failed
        self.health.record(
            attempt.source_name, now, ok, attempt.outcome.duration_s
        )
        released = not task.holds(attempt.source_name)
        if released:
            self.busy[attempt.source_name] = False
        if ok:
            for other in list(task.inflight):
                self._cancel(other, now)
            task.inflight.clear()
            if not attempt.confirm:
                task.final_status = (
                    OpStatus.OK
                    if attempt.source_name == task.slot_source
                    else OpStatus.RECOVERED
                )
            self._accept_answer(task, attempt, now)
        elif attempt.confirm:
            self._confirm_or_finish(task, now)
        else:
            self._handle_failure(task, attempt, now)
        if released:
            self._dispatch_group(attempt.source_name, now)
        for parked in list(self.blocked):
            self._wake(now, parked)

    def _accept_answer(
        self, task: _Task, attempt: _Attempt, now: float
    ) -> None:
        """One delivered answer: verify it, maybe confirm, maybe finish."""
        verifier = self.engine.verifier
        assert task.final_status is not None
        if verifier is None:
            value = attempt.value
            if isinstance(value, tuple):
                # verify="off": tampered payloads flow through untouched
                # (duplicates collapse in the set, spurious items stay).
                value = frozenset(value)
            self._finish_remote(task, now, value, task.final_status)
            return
        cleaned, report = verifier.check(attempt.source_name, attempt.value)
        task.answers.append((attempt.source_name, cleaned, report))
        self._confirm_or_finish(task, now)

    def _wants_confirmation(self, task: _Task, now: float) -> bool:
        """Whether vote mode should fetch another replica's answer.

        Two answers normally suffice; a third member is consulted only
        to break a disagreement, so a lone stale replica is outvoted
        rather than merely intersected away.
        """
        verifier = self.engine.verifier
        assert verifier is not None
        if (
            not verifier.votes
            or self.expired
            or (self.budget_s is not None and now >= self.budget_s)
        ):
            return False
        count = len(task.answers)
        if count >= 3:
            return False
        if count == 1:
            return True
        return verifier.claims(task.answers[0][1]) != verifier.claims(
            task.answers[1][1]
        )

    def _confirm_or_finish(self, task: _Task, now: float) -> None:
        """The one step after an answer arrives or a confirmation fails.

        Launch a confirmation fetch on a free untried group member;
        else, when an untried member is only busy, park until a slot
        frees — releasing the task's own slot first, so two group
        members waiting on each other can never deadlock; else vote
        over the answers in hand.  Confirm attempts never consume the
        primary retry budget: the answer is already in hand.  A parked
        task decided to confirm when it parked, so a slot freed at the
        budget's last instant still launches (and the deadline cancels).
        """
        parked = task in self.confirm_waiting
        if parked or self._wants_confirmation(task, now):
            taken = {source for source, __, __ in task.answers}
            taken |= task.confirm_tried
            group = self.federation.group_of(task.planned_source)
            target, busy_seen = self._free_replica(task, group, taken, now)
            if target is not None:
                if parked:
                    self.confirm_waiting.remove(task)
                task.confirm_tried.add(target)
                self._launch(task, target, now, hedge=False, confirm=True)
                return
            if busy_seen:
                if not parked:
                    self.confirm_waiting.append(task)
                self._release_slot(task, now)
                return
        self._finish_verified(task, now)

    def _release_slot(self, task: _Task, now: float) -> None:
        """Give a parked task's connection slot back to its group."""
        if task.slot_released:
            return
        task.slot_released = True
        self.busy[task.slot_source] = False
        self._dispatch_group(task.slot_source, now)

    def _drain_confirms(self, now: float) -> None:
        """A slot freed: retry every parked confirmation fetch."""
        if self.expired:
            return  # the deadline handler finishes parked tasks itself
        for task in list(self.confirm_waiting):
            if task in self.confirm_waiting:  # not removed re-entrantly
                self._confirm_or_finish(task, now)

    def _finish_verified(self, task: _Task, now: float) -> None:
        """Vote (if answers allow), charge quality, finish the task."""
        verifier = self.engine.verifier
        assert verifier is not None and task.answers
        assert task.final_status is not None
        if len(task.answers) == 1:
            source, value, report = task.answers[0]
            self._report_quality(task, source, report, now)
            self._finish_remote(task, now, value, task.final_status)
            return
        outcome = verifier.vote(
            [(source, value) for source, value, __ in task.answers]
        )
        # A two-way disagreement has no majority: intersecting is safe,
        # but blame would charge the honest member exactly as much as
        # the liar, so conflicts are attributed only when three or more
        # answers give a real majority to judge against.
        attributable = len(task.answers) >= 3
        for source, __, report in task.answers:
            conflicts = 0
            if attributable:
                conflicts = outcome.spurious.get(
                    source, 0
                ) + outcome.missing.get(source, 0)
            self._report_quality(
                task, source, report.with_conflicts(conflicts), now
            )
        self._finish_remote(task, now, outcome.kept, task.final_status)

    def _report_quality(
        self, task: _Task, source: str, report: AnswerReport, now: float
    ) -> None:
        self.health.record_quality(
            source,
            now,
            clean=report.clean,
            delivered=report.delivered,
            kept=report.kept,
        )
        if not report.clean:
            # Only answers with detectable issues leave an event, so
            # clean runs do not bloat the log.
            self._record(
                QualityEvent(
                    self._stamp(now)[0],
                    task.step,
                    report.source,
                    report.delivered,
                    report.kept,
                    report.corrupt,
                    report.duplicates,
                    report.conflicts,
                    self.health.quality_score(source),
                )
            )

    def _handle_failure(
        self, task: _Task, attempt: _Attempt, now: float
    ) -> None:
        if attempt.hedge:
            # The hedge lost its race to recover; if the primary path is
            # already out of budget and nothing else is pending, the
            # hedge was the last hope — degrade now.
            if task.exhausted and not task.inflight and not task.retry_pending:
                self._give_up(task, now, OpStatus.DEGRADED)
            return
        if self.engine.hedge_delay_s is not None and not task.hedged:
            # First-failure trigger: hedge now instead of waiting.
            self._hedge(task, task.slot_source, now, "failure")
        retries_used = task.primary_attempts - 1
        remaining = None if self.budget_s is None else self.budget_s - now
        wait = self.policy.clamped_backoff_s(retries_used + 1, remaining)
        if wait is None:
            # The backoff sleep alone would cross the query deadline:
            # degrade now instead of sleeping into the expiry.
            if task.inflight:
                task.exhausted = True
                return
            self._give_up(task, now, OpStatus.DEADLINE)
            return
        retry_at = now + wait
        if self.policy.may_retry(retries_used):
            task.retry_pending = True
            ts, round_no = self._stamp(now)
            self._record(
                RetryEvent(
                    ts, round_no, task.step, attempt.source_name, retries_used + 1, retry_at
                )
            )
            self._push(retry_at, "retry", (task,))  # connection stays held
            return
        if task.inflight:
            task.exhausted = True  # a hedge is still racing; wait for it
            return
        self._give_up(task, now, OpStatus.DEGRADED)

    def _handle_retry(self, now: float, task: _Task) -> None:
        task.retry_pending = False
        if task.done or task.answers:
            # A hedge won during the backoff — under ``vote`` the task
            # may still be waiting for its confirmation, answer in hand.
            return
        self._start_attempt(task, now)

    def _handle_deadline(self, now: float) -> None:
        """The query budget expired: cancel, degrade, answer partially.

        Every in-flight attempt is cancelled (its traffic stays
        charged), every unfinished remote operation finishes with an
        empty value and status :attr:`OpStatus.DEADLINE`, and the local
        operations downstream evaluate instantaneously over whatever
        made it — so the answer is a well-formed subset of the truth.
        """
        if all(task.done for task in self.tasks):
            return  # the plan beat the deadline; nothing to cut
        self.expired = True
        self.heap.clear()  # pending retries/hedges/wakes are moot
        self.blocked.clear()
        for task in self.tasks:
            if task.done or not task.spec.remote:
                continue  # locals evaluate via propagation below
            for attempt in list(task.inflight):
                self._cancel(attempt, now)
            task.inflight.clear()
            if task.first_start_s is None:
                task.first_start_s = now  # never reached the wire
            if task.answers:
                # A verified answer was already in hand, only its
                # cross-replica confirmation was cut short: finish with
                # the best verified value rather than nothing.
                self._finish_verified(task, now)
            else:
                self._give_up(task, now, OpStatus.DEADLINE)

    def _give_up(self, task: _Task, now: float, status: OpStatus) -> None:
        """Finish ``task`` with an empty value and ``status``.

        ``DEGRADED`` (retries spent, or parked with nothing left to wake
        it) raises instead under :attr:`OnExhaust.FAIL`.  ``DEADLINE``
        never raises: a deadline asks for the best partial answer
        available on time, not for an error.
        """
        if status is OpStatus.DEGRADED and self.policy.on_exhaust is OnExhaust.FAIL:
            if task in self.blocked:
                state = self.health.state_of(task.slot_source).value
                reason = (
                    f"was refused by {task.slot_source} ({state}) "
                    "with no substitute free"
                )
            else:
                reason = (
                    f"failed after {task.primary_attempts - 1} retries "
                    f"(last attempt: {task.last_fate})"
                )
            raise ExecutionError(f"step {task.step} ({task.op.render()}) {reason}")
        self._finish_remote(task, now, self._degraded_value(task), status)

    def _degraded_value(self, task: _Task) -> Any:
        if isinstance(task.op, LoadOp):
            source = self.federation.source(task.op.source)
            return Relation(task.op.target, source.schema, [])
        return EMPTY_ITEMS

    def _finish_remote(
        self, task: _Task, now: float, value: Any, status: OpStatus
    ) -> None:
        source_name = task.slot_source
        if task in self.blocked:
            self.blocked.remove(task)
        if task in self.confirm_waiting:
            self.confirm_waiting.remove(task)
        assert task.first_start_s is not None
        self._close(task, now, value, status, task.first_start_s)
        # A slot released when the task parked for confirmation went
        # back to the group; it may be serving someone else by now.
        held = not task.slot_released
        if held:
            self.busy[source_name] = False
        self._propagate(task, now)
        if held:
            self._dispatch_group(source_name, now)

    def _close(
        self,
        task: _Task,
        now: float,
        value: Any,
        status: OpStatus,
        started_s: float,
    ) -> None:
        """Publish a finished task: its value and its ``op`` record."""
        spec = task.spec
        self.values[spec.index] = value
        task.done = True
        ts, round_no = self._stamp(now)
        self._record(
            OpEvent(
                ts,
                round_no,
                spec.step,
                spec.kind,
                spec.target,
                spec.source,
                spec.remote,
                spec.condition,
                task.queued_s,
                started_s,
                now,
                status._value_,
                len(value),
            )
        )

    def _propagate(self, task: _Task, now: float) -> None:
        tasks = self.tasks
        for index in task.spec.dependents:
            dependent = tasks[index]
            dependent.remaining -= 1
            if dependent.remaining == 0:
                self._mark_ready(dependent, now)
