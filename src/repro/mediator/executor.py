"""Sequential plan execution against the (simulated) remote sources.

The executor walks a plan's operations, dispatching remote operations to
the federation's wrappers and local operations to the item-set algebra.
It records a :class:`StepTrace` per operation — actual output size and
the actual network cost incurred (the delta of the sources' traffic
logs).  It injects no faults, retries nothing, keeps no clock and
records no events: timing, faults and telemetry belong to the runtime
engine (:mod:`repro.runtime.engine`), where every other plan runs.
Besides tests and the wall-clock benchmark's layer timings, two callers
are left: ``Mediator``'s sequential backend, and R2's oracle, whose
independent side is a sequential run's step times.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import CostModelError
from repro.plans.operations import Fetch, Operation
from repro.plans.plan import Plan
from repro.relational.items import ItemSet, as_frozenset
from repro.sources.registry import Federation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import QueryProfile
    from repro.runtime.trace import RuntimeTrace


@dataclass(frozen=True)
class StepTrace:
    """What one plan step did during execution."""

    step: int
    operation: Operation
    output_size: int
    actual_cost: float
    elapsed_s: float
    messages: int
    retries: int = 0

    def render(self, labels=None) -> str:
        note = f" [{self.retries} retries]" if self.retries else ""
        return (
            f"{self.step:>3}) {self.operation.render(labels):<60} "
            f"-> {self.output_size:>6} items, cost {self.actual_cost:>9.1f}, "
            f"{self.messages} msg{note}"
        )


@dataclass
class ExecutionResult:
    """The answer plus full accounting of one plan execution.

    ``traces`` holds one :class:`~repro.runtime.trace.RuntimeTrace` per
    engine round (empty for the sequential executor); every resilience
    counter is read off them.  One round gives that run's counters;
    several rounds (a re-planned run, whose answers are merged by union)
    sum ``hedges`` and ``recovered``, take ``degraded`` and
    ``incomplete_conditions`` from the last round, and report a deadline
    hit by any round.  Chained rounds (an adaptive answer's stages) read
    them off every round: :class:`~repro.mediator.adaptive.StagedExecution`.
    """

    #: The answer as the run's registers held it: an :class:`ItemSet`
    #: bitmap, or a ``frozenset`` when the merge values cannot be
    #: interned.  The second phase sends this, never the decoded set.
    item_set: "ItemSet | frozenset[Any]"
    traces: "tuple[RuntimeTrace, ...]" = ()
    breaker_trips: int = 0
    #: Attached by the mediator when a recorder is active.
    profile: "QueryProfile | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if type(self.item_set) is not ItemSet:
            self.item_set = as_frozenset(self.item_set)

    @functools.cached_property
    def items(self) -> frozenset[Any]:
        """The answer as a ``frozenset``: ``item_set`` decoded on first
        read, so a run whose answer only feeds another run (an adaptive
        stage) is never decoded."""
        return as_frozenset(self.item_set)

    @functools.cached_property
    def steps(self) -> list[StepTrace]:
        """One :class:`StepTrace` per plan step, rounds in order.

        The sequential executor sets its own; an engine record projects
        its rounds' op spans on first read.  ``elapsed_s`` counts
        connection-busy time only (attempt durations, not backoff
        waits); a step that made no attempt costs ``0.0`` and took
        ``0.0`` s, as a local step does in the sequential executor.
        """
        return [
            StepTrace(
                step=span.step,
                operation=span.operation,
                output_size=span.output_size,
                actual_cost=span.cost if span.attempts else 0.0,
                elapsed_s=span.busy_s if span.attempts else 0.0,
                messages=span.messages,
                retries=span.retries,
            )
            for trace in self.traces
            for span in trace.spans
        ]

    @property
    def trace(self) -> "RuntimeTrace | None":
        """The last engine round's trace (``None`` for a sequential run)."""
        return self.traces[-1] if self.traces else None

    @property
    def hedges(self) -> int:
        return sum(trace.hedge_attempts for trace in self.traces)

    @property
    def recovered(self) -> int:
        return sum(len(trace.recovered_steps) for trace in self.traces)

    @property
    def degraded(self) -> int:
        """Operations the last round lost, to retries or the deadline."""
        trace = self.trace
        if trace is None:
            return 0
        return len(trace.degraded_steps) + len(trace.deadline_steps)

    @property
    def replans(self) -> int:
        return max(len(self.traces) - 1, 0)

    @property
    def deadline_expired(self) -> bool:
        """True when the query's deadline budget expired mid-execution
        in any round and the answer is an on-time *partial* (a subset
        of the truth)."""
        return any(trace.deadline_steps for trace in self.traces)

    @property
    def incomplete_conditions(self) -> tuple[str, ...]:
        """Per-condition completeness marks of the last round: the
        conditions (or loads) whose contribution is missing because
        their operation degraded or was cut at the deadline, in plan
        order.  Empty means every condition fully answered."""
        trace = self.trace
        return () if trace is None else trace.incomplete_conditions

    @property
    def complete(self) -> bool:
        """True when the last round lost no operation (answer is exact)."""
        return self.degraded == 0

    @property
    def partial(self) -> bool:
        """True when any condition's contribution is known-incomplete."""
        return self.degraded > 0 or self.deadline_expired

    @property
    def makespan_s(self) -> float:
        """Virtual response time: rounds run back to back on one clock
        (``0.0`` for a sequential run, which has no clock)."""
        return sum(trace.makespan_s for trace in self.traces)

    @property
    def total_cost(self) -> float:
        """Actual total work — the paper's objective, measured."""
        return sum(step.actual_cost for step in self.steps)

    @property
    def total_elapsed_s(self) -> float:
        return sum(step.elapsed_s for step in self.steps)

    @property
    def total_messages(self) -> int:
        return sum(step.messages for step in self.steps)

    def cost_by_source(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for step in self.steps:
            if step.operation.remote:
                source = step.operation.source  # type: ignore[attr-defined]
                totals[source] = totals.get(source, 0.0) + step.actual_cost
        return totals

    def render_steps(self, plan: Plan | None = None) -> str:
        """Printable per-step listing, paper-style.  A re-planned run
        lists each round's steps under a ``-- round k`` line, and its
        total line covers all rounds."""
        labels = plan.condition_labels() if plan is not None else None
        rounds = len(self.traces)
        if rounds > 1:
            steps = iter(self.steps)
            lines = []
            for number, trace in enumerate(self.traces, start=1):
                lines.append(f"-- round {number}")
                lines.extend(next(steps).render(labels) for __ in trace.spans)
            covered = f" (all {rounds} rounds)"
        else:
            lines = [step.render(labels) for step in self.steps]
            covered = ""
        lines.append(
            f"answer: {len(self.items)} items, total cost "
            f"{self.total_cost:.1f}, {self.total_messages} messages{covered}"
        )
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line digest: answer size, steps, cost, messages, retries,
        plus any hedge/recovery/degradation/breaker/replan activity."""
        retries = sum(step.retries for step in self.steps)
        text = (
            f"{len(self.items)} items in {len(self.steps)} steps; "
            f"cost {self.total_cost:.1f}, {self.total_messages} messages, "
            f"{retries} retries, {self.total_elapsed_s:.3f}s on the wire"
        )
        extras = [
            f"{count} {label}"
            for count, label in (
                (self.hedges, "hedges"),
                (self.recovered, "recovered"),
                (self.degraded, "degraded"),
                (self.breaker_trips, "breaker trips"),
                (self.replans, "replans"),
            )
            if count
        ]
        if extras:
            text += "; " + ", ".join(extras)
        if self.deadline_expired:
            text += (
                "; PARTIAL (deadline): missing "
                + (", ".join(self.incomplete_conditions) or "(unknown)")
            )
        return text

    def __repr__(self) -> str:
        return f"ExecutionResult({self.summary()})"


class Executor:
    """Executes plans against a federation.

    Example:
        >>> from repro.sources.generators import dmv_fig1, DMV_FIG1_ANSWER
        >>> from repro.plans.builder import build_filter_plan
        >>> federation, query = dmv_fig1()
        >>> plan = build_filter_plan(query, federation.source_names)
        >>> result = Executor(federation).execute(plan)
        >>> result.items == DMV_FIG1_ANSWER
        True
    """

    def __init__(
        self,
        federation: Federation,
        max_retries: int = 3,
        recorder: None = None,
    ):
        self.federation = federation
        # No effect; kept because benchmarks/e2e/layers.py passes and reads it.
        self.max_retries = max_retries
        # Only None; kept because benchmarks/e2e/layers.py passes it.  The
        # engine is the one path that records: RuntimeEngine(recorder=...).
        if recorder is not None:
            raise CostModelError(
                "the sequential executor records nothing; attach a recorder "
                "to the runtime engine (Mediator(backend='runtime', recorder=...))"
            )

    def execute(self, plan: Plan) -> ExecutionResult:
        """Run ``plan`` and return its answer with per-step traces."""
        # One register file: item sets, and relations written by loads.
        registers: dict[str, Any] = {}
        steps: list[StepTrace] = []
        fetch = registers.__getitem__
        for index, op in enumerate(plan.operations, start=1):
            if op.remote:
                trace = self._execute_remote(index, op, registers, fetch)
            else:
                answer = registers[op.target] = op.evaluate(fetch)
                trace = StepTrace(
                    step=index,
                    operation=op,
                    output_size=len(answer),
                    actual_cost=0.0,
                    elapsed_s=0.0,
                    messages=0,
                )
            steps.append(trace)

        # Registers hold bitmaps; the answer is decoded when first read.
        result = ExecutionResult(registers[plan.result])
        result.steps = steps
        return result

    # ------------------------------------------------------------------

    def _execute_remote(
        self,
        index: int,
        op: Operation,
        registers: dict[str, Any],
        fetch: Fetch,
    ) -> StepTrace:
        source = self.federation.source(op.source)  # type: ignore[attr-defined]
        mark = len(source.traffic.records)
        answer = registers[op.target] = op.call(source, fetch)
        new_records = source.traffic.records[mark:]
        return StepTrace(
            step=index,
            operation=op,
            output_size=len(answer),
            actual_cost=sum(record.cost for record in new_records),
            elapsed_s=sum(record.elapsed_s for record in new_records),
            messages=len(new_records),
        )
