"""Response time under a parallel execution model (Sec. 6 future work).

The paper optimizes *total work*; its conclusions name "minimizing the
response time of a query in a parallel execution model" as future work.
This module implements that model for our plans:

* remote operations targeting **different** sources may run
  concurrently;
* operations on the **same** source serialize (one wrapper connection);
* an operation cannot start before every register it reads is complete
  (so a semijoin stage waits for ``X_{i-1}``);
* local mediator operations are instantaneous (consistent with the
  free-local-ops cost axiom).

:func:`response_time` computes the makespan of a plan by longest-path
analysis over this DAG, using either actual per-op times (from an
execution's step traces) or estimated times (from link profiles and a
size estimator).  Filter plans parallelize perfectly (one round), deep
semijoin chains trade total work for response time, which is exactly
the tension the R1 benchmark quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import ExecutionResult
from repro.plans.cost import estimate_plan_cost
from repro.plans.operations import Operation
from repro.plans.plan import Plan
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation


@dataclass(frozen=True)
class ScheduledOp:
    """One operation's placement on the simulated timeline."""

    step: int
    operation: Operation
    start_s: float
    finish_s: float

    @property
    def duration_s(self) -> float:
        return self.finish_s - self.start_s


@dataclass(frozen=True)
class Schedule:
    """A plan's parallel schedule."""

    ops: tuple[ScheduledOp, ...]
    makespan_s: float
    total_time_s: float

    @property
    def parallel_speedup(self) -> float:
        """Serial time / makespan — how much parallelism the plan admits."""
        if self.makespan_s == 0:
            return 1.0
        return self.total_time_s / self.makespan_s


def _schedule(plan: Plan, durations: list[float]) -> Schedule:
    """Longest-path scheduling with per-source serialization."""
    register_ready: dict[str, float] = {}
    source_free: dict[str, float] = {}
    scheduled: list[ScheduledOp] = []
    makespan = 0.0
    for index, op in enumerate(plan.operations):
        ready = max(
            (register_ready[register] for register in op.reads()),
            default=0.0,
        )
        duration = durations[index]
        if op.remote:
            source = op.source  # type: ignore[attr-defined]
            start = max(ready, source_free.get(source, 0.0))
            finish = start + duration
            source_free[source] = finish
        else:
            start = ready
            finish = ready  # local ops are instantaneous
        register_ready[op.target] = finish
        makespan = max(makespan, finish)
        scheduled.append(ScheduledOp(index + 1, op, start, finish))
    return Schedule(
        ops=tuple(scheduled),
        makespan_s=makespan,
        total_time_s=sum(
            s.duration_s for s in scheduled if s.operation.remote
        ),
    )


def response_time(plan: Plan, execution: ExecutionResult) -> Schedule:
    """Schedule an *executed* plan using its measured per-step times.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.plans.builder import build_filter_plan
        >>> from repro.runtime.engine import RuntimeEngine
        >>> federation, query = dmv_fig1()
        >>> plan = build_filter_plan(query, federation.source_names)
        >>> execution = RuntimeEngine(federation).run(plan)
        >>> schedule = response_time(plan, execution)
        >>> schedule.parallel_speedup > 1.0   # m*n selections, n-way parallel
        True
    """
    if len(execution.steps) != len(plan.operations):
        raise ValueError(
            "execution trace does not match the plan "
            f"({len(execution.steps)} steps vs {len(plan.operations)} ops)"
        )
    durations = [step.elapsed_s for step in execution.steps]
    return _schedule(plan, durations)


def estimated_response_time(
    plan: Plan,
    federation: Federation,
    estimator: SizeEstimator,
) -> Schedule:
    """Schedule a plan with *estimated* per-op times (planning-side).

    Per-op time comes from each source's :class:`LinkProfile` timing and
    the estimated traffic volumes of the generic plan coster; emulated
    semijoins pay one round trip per binding, native batched semijoins
    one per batch.
    """
    from repro.costs.charge import ChargeCostModel

    cost_model = ChargeCostModel.for_federation(federation, estimator)
    breakdown = estimate_plan_cost(plan, cost_model, estimator)
    sizes = {step.step: step.output_size for step in breakdown.steps}

    input_size_of: dict[int, float] = {}
    register_sizes: dict[str, float] = {}
    for step in breakdown.steps:
        op = step.operation
        reads = op.reads()
        if reads:
            input_size_of[step.step] = register_sizes.get(reads[0], 0.0)
        register_sizes[op.target] = step.output_size

    durations: list[float] = []
    for step in breakdown.steps:
        op = step.operation
        if not op.remote:
            durations.append(0.0)
            continue
        source = federation.source(op.source)  # type: ignore[attr-defined]
        durations.append(
            _estimated_remote_time(
                op,
                source.link,
                source.capabilities,
                sizes[step.step],
                input_size_of.get(step.step, 0.0),
                len(source.table),
            )
        )
    return _schedule(plan, durations)


def _estimated_remote_time(
    op: Operation,
    link: LinkProfile,
    capabilities: SourceCapabilities,
    output_size: float,
    input_size: float,
    rows: int,
) -> float:
    from repro.plans.operations import LoadOp, SelectionOp, SemijoinOp

    if isinstance(op, SelectionOp):
        return link.request_time_s(0, math.ceil(output_size))
    if isinstance(op, LoadOp):
        return link.request_time_s(0, 0, rows_loaded=rows)
    if isinstance(op, SemijoinOp):
        bindings = math.ceil(input_size)
        received = math.ceil(output_size)
        if bindings == 0:
            return 0.0
        if capabilities.semijoin is SemijoinSupport.EMULATED:
            # One round trip per binding, serially.
            return bindings * link.request_time_s(1, 1)
        requests = capabilities.semijoin_requests(bindings)
        base = link.request_time_s(bindings, received)
        # Extra batches add extra round trips.
        return base + (requests - 1) * 2 * link.latency_s
    raise ValueError(f"not a remote operation: {op!r}")  # pragma: no cover
