"""Plan execution against the (simulated) remote sources.

The executor walks a plan's operations, dispatching remote operations to
the federation's wrappers and local operations to the item-set algebra.
It records a :class:`StepTrace` per operation — actual output size and
the actual network cost incurred (measured as the delta of the sources'
traffic logs) — so benchmarks can compare *estimated* plan cost against
*actual* execution cost, and traces can be printed next to the paper's
figures.

It injects no faults and retries nothing: faults, retries, hedging and
deadlines belong to the runtime engine (:mod:`repro.runtime.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.plans.operations import Fetch, Operation, SemijoinOp, condition_sql
from repro.plans.plan import Plan
from repro.relational.items import ItemSet, as_frozenset
from repro.sources.registry import Federation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import QueryProfile
    from repro.obs.recorder import Recorder


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

    The resilience counters (``hedges`` … ``replans``) are zero for the
    plain sequential executor; the runtime backend and the mediator fill
    them in when projecting richer traces onto this type.
    """

    items: frozenset[Any]
    steps: list[StepTrace] = field(default_factory=list)
    hedges: int = 0
    recovered: int = 0
    degraded: int = 0
    breaker_trips: int = 0
    replans: int = 0
    #: True when the query's deadline budget expired mid-execution and
    #: the answer is an on-time *partial* (a subset of the truth).
    deadline_expired: bool = False
    #: Per-condition completeness marks: the conditions (or loads) whose
    #: contribution is missing because their operation degraded or was
    #: cut at the deadline.  Empty means every condition fully answered.
    incomplete_conditions: tuple[str, ...] = ()
    #: Attached by the mediator when a recorder is active.
    profile: "QueryProfile | None" = field(default=None, repr=False)
    #: The answer as the run's registers held it: an :class:`ItemSet`
    #: bitmap, or ``items`` itself when the merge values cannot be
    #: interned.  The second phase sends this, never the decoded set.
    item_set: "ItemSet | frozenset[Any] | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.item_set is None:
            self.item_set = self.items

    @property
    def partial(self) -> bool:
        """True when any condition's contribution is known-incomplete."""
        return self.degraded > 0 or self.deadline_expired

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

    def trace(self, plan: Plan | None = None) -> str:
        """Printable execution trace, paper-style."""
        labels = plan.condition_labels() if plan is not None else None
        lines = [step.render(labels) for step in self.steps]
        lines.append(
            f"answer: {len(self.items)} items, total cost "
            f"{self.total_cost:.1f}, {self.total_messages} messages"
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
        recorder: "Recorder | None" = None,
    ):
        self.federation = federation
        # No effect; kept because benchmarks/e2e/layers.py passes and reads it.
        self.max_retries = max_retries
        self.recorder = recorder
        # Virtual clock for telemetry: the sequential executor has no
        # event heap, so elapsed wire time accumulates step by step.
        self._clock = 0.0

    def execute(self, plan: Plan) -> ExecutionResult:
        """Run ``plan`` and return its answer with per-step traces."""
        # One register file: item sets, and relations written by loads.
        registers: dict[str, Any] = {}
        result = ExecutionResult(items=frozenset())
        self._clock = 0.0
        recorder = self.recorder
        if recorder is not None:
            # Imported on use: repro.obs imports the runtime, which
            # imports this module.
            from repro.obs.events import RunEndEvent, RunStartEvent

            recorder.record(
                RunStartEvent(
                    recorder.clock_offset_s,
                    "sequential",
                    recorder.round,
                    len(plan.operations),
                    plan.remote_op_count,
                    plan.result,
                )
            )

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
                if self.recorder is not None:
                    self._record_step(op, trace, [], registers)
            result.steps.append(trace)

        # The one decode of the run: registers hold bitmaps, answers are sets.
        answer = registers[plan.result]
        result.items = as_frozenset(answer)
        result.item_set = answer if type(answer) is ItemSet else result.items
        if recorder is not None:
            recorder.record(
                RunEndEvent(
                    recorder.clock_offset_s + self._clock,
                    "sequential",
                    recorder.round,
                    self._clock,
                    0,  # retries
                    0,  # degraded
                    0,  # recovered
                    0,  # hedges
                    result.total_cost,
                    len(result.items),
                )
            )
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
        trace = StepTrace(
            step=index,
            operation=op,
            output_size=len(answer),
            actual_cost=sum(record.cost for record in new_records),
            elapsed_s=sum(record.elapsed_s for record in new_records),
            messages=len(new_records),
        )
        if self.recorder is not None:
            self._record_step(op, trace, new_records, registers)
        return trace

    # ------------------------------------------------------------------
    # Telemetry (no-ops unless a recorder is attached)

    def _record_step(
        self,
        op: Operation,
        trace: StepTrace,
        records: list,
        registers: dict[str, Any],
    ) -> None:
        """One step's events on the step clock: a remote step is one
        successful attempt (after its send-set), a local one is free."""
        from repro.obs.events import AttemptEvent, OpEvent, SendsetEvent

        recorder = self.recorder
        assert recorder is not None
        offset, round_no = recorder.clock_offset_s, recorder.round
        start = self._clock
        end = start + trace.elapsed_s
        condition = condition_sql(op)
        if isinstance(op, SemijoinOp):
            recorder.record(
                SendsetEvent(
                    offset + start,
                    round_no,
                    trace.step,
                    op.source,
                    condition,
                    len(registers[op.input_register]),
                )
            )
        if op.remote:
            recorder.record(
                AttemptEvent(
                    offset + end,
                    round_no,
                    trace.step,
                    op.kind.value,
                    op.source,  # type: ignore[attr-defined]
                    op.source,  # type: ignore[attr-defined]
                    condition,
                    1,  # attempt
                    start,
                    end,
                    "ok",
                    False,  # hedge
                    trace.actual_cost,
                    sum(r.items_sent for r in records),
                    sum(r.items_received for r in records),
                    sum(r.rows_loaded for r in records),
                    trace.messages,
                )
            )
        recorder.record(
            OpEvent(
                offset + end,
                round_no,
                trace.step,
                op.kind.value,
                op.target,
                getattr(op, "source", ""),
                op.remote,
                condition,
                start,
                start,
                end,
                "ok",
                trace.output_size,
            )
        )
        self._clock = end
