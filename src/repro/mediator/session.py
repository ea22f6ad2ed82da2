"""The Mediator facade — the library's front door.

Wires together statistics, size estimation, a cost model, an optimizer,
and the executor over one federation, exposing the workflow of the
paper's introduction:

1. hand the mediator a fusion query (structured or as SQL text);
2. it optimizes (SJA+ by default), executes the plan against the
   wrappers, and returns the matching items;
3. optionally, issue the "second phase" to fetch the full records of
   the matches (Sec. 1's two-phase processing).

Example:
    >>> from repro.sources.generators import dmv_fig1
    >>> from repro.mediator.session import Mediator
    >>> federation, query = dmv_fig1()
    >>> mediator = Mediator(federation)
    >>> sorted(mediator.answer(query).items)
    ['J55', 'T21']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.errors import CostModelError, ExecutionError
from repro.mediator.executor import ExecutionResult, Executor
from repro.mediator.plan_cache import PlanCache
from repro.mediator.reference import reference_aggregate, reference_answer
from repro.obs.profile import QueryProfile
from repro.optimize.base import OptimizationResult, Optimizer
from repro.optimize.planning import Planning
from repro.optimize.search import PlanningBudget
from repro.plans.aggregate import AggregatePlan, plan_aggregate
from repro.plans.cost import estimate_plan_cost
from repro.plans.plan import Plan
from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.query.sqlparse import parse_fusion_query, parse_query
from repro.relational.aggregates import (
    GroupedAggregates,
    finalize_partials,
    merge_partials,
    partial_aggregate_rows,
)
from repro.relational.columnar import union_items
from repro.relational.items import ItemSet
from repro.relational.relation import Relation
from repro.runtime.engine import Resilience, RuntimeEngine, RuntimeResult
from repro.runtime.faults import FaultInjector
from repro.runtime.health import HealthRegistry
from repro.runtime.replan import ResilientExecutor, ResilientResult
from repro.runtime.trace import RuntimeTrace
from repro.sources.registry import Federation
from repro.sources.statistics import ExactStatistics, StatisticsProvider

#: Execution backends the mediator can drive.
BACKENDS = ("sequential", "runtime")


@dataclass
class MediatorAnswer:
    """Everything one query run produced."""

    query: FusionQuery
    items: frozenset[Any]
    optimization: OptimizationResult
    execution: ExecutionResult
    verified: bool | None = None
    #: Present when the concurrent runtime backend executed the plan.
    runtime: RuntimeResult | None = None
    #: Present when re-planning was enabled (``replan > 0``); the
    #: ``runtime`` field then holds the final round's result.
    resilient: ResilientResult | None = None

    @property
    def plan(self) -> Plan:
        return self.optimization.plan

    def summary(self) -> str:
        checked = (
            ""
            if self.verified is None
            else (" (verified)" if self.verified else " (MISMATCH!)")
        )
        text = (
            f"{len(self.items)} items{checked}; "
            f"optimizer {self.optimization.optimizer}, estimated cost "
            f"{self.optimization.estimated_cost:.1f}, actual cost "
            f"{self.execution.total_cost:.1f}, "
            f"{self.execution.total_messages} messages"
        )
        if self.runtime is not None:
            text += (
                f"; makespan {self.runtime.makespan_s:.3f}s, "
                f"{self.runtime.trace.total_retries} retries, "
                f"{len(self.runtime.degraded_steps)} degraded"
            )
            if self.runtime.recovered_steps:
                text += f", {len(self.runtime.recovered_steps)} recovered"
        if self.resilient is not None and self.resilient.replans:
            text += f"; {self.resilient.replans} replan round(s)"
        return text


@dataclass
class AggregateAnswer:
    """Everything one aggregation-fusion query run produced.

    The fusion phase is a full :class:`MediatorAnswer` (its plan, trace,
    and resilience counters are untouched by aggregation); the aggregate
    phase adds the per-source pushdown/fetch plan and the finalized
    grouped result.
    """

    query: AggregateQuery
    fusion: MediatorAnswer
    aggregate_plan: AggregatePlan
    result: GroupedAggregates
    verified: bool | None = None

    @property
    def items(self) -> frozenset[Any]:
        """The qualifying entity set the aggregate summarized."""
        return self.fusion.items

    def summary(self) -> str:
        checked = (
            ""
            if self.verified is None
            else (" (verified)" if self.verified else " (MISMATCH!)")
        )
        pushed = len(self.aggregate_plan.pushdown_sources)
        fetched = len(self.aggregate_plan.fetch_sources)
        return (
            f"{len(self.result.groups)} groups over {len(self.items)} "
            f"entities{checked}; aggregate phase: {pushed} pushdown + "
            f"{fetched} fetch source(s), est cost "
            f"{self.aggregate_plan.estimated_cost:.1f}; fusion: "
            f"{self.fusion.summary()}"
        )


class Mediator:
    """A configured mediator over one federation.

    Args:
        federation: The sources forming the union view.
        statistics: Statistics provider (defaults to oracle
            :class:`~repro.sources.statistics.ExactStatistics`).
        cost_model: Cost model (defaults to
            :class:`~repro.costs.charge.ChargeCostModel` over the
            federation's declared link profiles).
        planning: How plans are found: one
            :class:`~repro.optimize.planning.Planning` value (default:
            ``Planning()`` — SJA+ with ``search="auto"``; each field is
            documented there).  The mediator builds its own optimizer
            from it, ``mediator.optimizer``.
        verify: When True, every answer is checked against the
            materialized-U oracle and a mismatch raises
            :class:`~repro.errors.ExecutionError` — invaluable in tests,
            off by default because a real mediator has no oracle.  (The
            oracle-free answer-verification mode is
            ``resilience.verify``.)
        plan_cache: Reuse optimization results for repeated identical
            queries (``clear_plan_cache()`` resets it): a
            :class:`~repro.mediator.plan_cache.PlanCache` instance, a
            capacity (int), or ``True`` for the default capacity.
            Entries are keyed on a canonical query
            fingerprint plus the statistics provider's fingerprint, so
            an :class:`~repro.sources.observed.ObservedStatistics`
            refresh invalidates stale plans automatically.
        backend: ``"sequential"`` executes plans one operation at a time
            (the paper's total-work setting); ``"runtime"`` executes
            them concurrently on the discrete-event engine of
            :mod:`repro.runtime`, observing response time, faults, and
            retries.
        faults: Fault injector for the runtime backend (default: none).
        resilience: How the runtime backend responds to failing or lying
            sources: one :class:`~repro.runtime.engine.Resilience` value
            (each knob is documented there).  The sequential backend
            reads none of it: it injects no faults and retries nothing.
        replan: Re-planning rounds allowed after a degraded run (dead
            sources masked, substitutes swapped in, answers merged by
            union).  ``True`` means 2 rounds; 0 / ``False`` disables.
        recorder: Optional :class:`repro.obs.Recorder`.  When attached,
            both backends emit structured events and metrics, breaker
            transitions are observed, every answer's
            ``execution.profile`` is filled in, and the resilience
            counters on :class:`ExecutionResult` are populated.  ``None``
            (the default) leaves execution byte-identical to an
            uninstrumented mediator.
        health: Optional externally owned
            :class:`~repro.runtime.health.HealthRegistry`.  When given,
            the mediator uses it instead of creating its own — a
            :class:`~repro.serve.MediatorService` shares one registry
            across all workers so breaker state learned by one query
            reroutes the next.  The registry's own breaker / quarantine
            configuration then wins over ``resilience``'s.
    """

    def __init__(
        self,
        federation: Federation,
        statistics: StatisticsProvider | None = None,
        cost_model: CostModel | None = None,
        planning: Planning | None = None,
        verify: bool = False,
        backend: str = "sequential",
        faults: FaultInjector | None = None,
        resilience: Resilience | None = None,
        replan: int | bool = 0,
        recorder=None,
        plan_cache: PlanCache | int | bool | None = None,
        health: HealthRegistry | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if not isinstance(verify, bool):
            raise CostModelError(
                f"verify (the oracle check) must be a bool, got {verify!r}; "
                "a verification mode goes in Resilience(verify=...)"
            )
        self.max_replans = 2 if replan is True else int(replan)
        if self.max_replans < 0:
            raise CostModelError(
                f"replan must be >= 0, got {self.max_replans}"
            )
        self.federation = federation
        self.statistics = statistics or ExactStatistics(federation)
        self.estimator = SizeEstimator(self.statistics, federation.source_names)
        self.cost_model = cost_model or ChargeCostModel.for_federation(
            federation, self.estimator
        )
        self.verify = verify
        self.recorder = recorder
        self.backend = backend
        # The mediator's one engine: plain runs and every re-planning
        # round execute on it, so ``mediator.runtime.health`` is always
        # the live view.  A serving tier passes its own registry so
        # breaker state learned by one worker reroutes every other.
        self.runtime = runtime = RuntimeEngine(
            federation, resilience, faults=faults, health=health, recorder=recorder
        )
        self.executor = Executor(federation, recorder=recorder)
        self.planning = planning = planning or Planning()
        self.optimizer: Optimizer = planning.optimizer_for(
            runtime, faults, self.max_replans
        )
        self.plan_cache: PlanCache | None = PlanCache.of(plan_cache)
        self.replanner = (
            ResilientExecutor(runtime, self._optimize, self.max_replans)
            if self.max_replans > 0
            else None
        )

    # ------------------------------------------------------------------

    def parse(self, sql: str) -> FusionQuery:
        """Parse fusion-query SQL against this federation's view name."""
        query = parse_fusion_query(sql, view_name=self.federation.name)
        query.validate_against_schema(self.federation.schema)
        return query

    def _coerce(self, query: FusionQuery | str) -> FusionQuery:
        if isinstance(query, str):
            return self.parse(query)
        query.validate_against_schema(self.federation.schema)
        return query

    def plan(self, query: FusionQuery | str) -> OptimizationResult:
        """Optimize without executing (cached when ``plan_cache`` is set)."""
        query = self._coerce(query)
        return self._optimize(query)

    @property
    def planning_budget(self) -> PlanningBudget | None:
        """The optimizer's anytime budget (None when unsupported)."""
        return getattr(self.optimizer, "planning_budget", None)

    @property
    def plan_cache_hits(self) -> int:
        """Lifetime cache hits (0 when no plan cache is configured)."""
        return self.plan_cache.hits if self.plan_cache is not None else 0

    def _optimize(
        self, query: FusionQuery, sources: tuple[str, ...] | None = None
    ) -> OptimizationResult:
        # By default plan over one representative per replica group:
        # declared mirrors hold identical rows, so querying them is pure
        # duplicated work — they serve as failover capacity instead.
        # A re-planning round names the sources still standing.
        if sources is None:
            sources = self.federation.representative_names
        if self.plan_cache is not None:
            cached = self.plan_cache.get(query, sources, self.statistics)
            if cached is not None:
                return cached
        result = self.optimizer.optimize(
            query, sources, self.cost_model, self.estimator
        )
        # A plan cut short by the planning budget answers this query
        # only: caching it would serve the plan chosen at the worst
        # moment of a burst to every later, unhurried, identical query.
        if self.plan_cache is not None and not result.budget_exhausted:
            self.plan_cache.put(query, sources, self.statistics, result)
        return result

    def clear_plan_cache(self) -> None:
        """Drop all cached plans (e.g. after swapping the cost model)."""
        if self.plan_cache is not None:
            self.plan_cache.clear()

    def execute(self, plan: Plan) -> ExecutionResult:
        """Execute a previously produced plan."""
        return self.executor.execute(plan)

    def execute_concurrent(
        self, plan: Plan, budget_s: float | None = None
    ) -> RuntimeResult:
        """Execute a plan on the discrete-event concurrent runtime."""
        return self.runtime.run(plan, budget_s=budget_s)

    def answer(
        self, query: FusionQuery | str, budget_s: float | None = None
    ) -> MediatorAnswer:
        """Optimize, execute, and (optionally) verify one fusion query.

        ``budget_s`` bounds execution virtual time (runtime backend
        only): at expiry in-flight work is cancelled and the best
        partial answer found so far is returned — marked via
        ``execution.partial`` — instead of raising.  The sequential
        backend has no clock, so the budget is ignored there.
        """
        return self._answer(self._coerce(query), budget_s)

    def _answer(
        self, query: FusionQuery, budget_s: float | None
    ) -> MediatorAnswer:
        """:meth:`answer` of a query already validated against the schema."""
        runtime_result = None
        resilient = None
        events_before = (
            len(self.recorder.events) if self.recorder is not None else 0
        )
        trips_before = self._breaker_trips()
        if self.backend == "runtime" and self.replanner is not None:
            resilient = self.replanner.run(query, budget_s=budget_s)
            optimization = resilient.rounds[0].optimization
            runtime_result = resilient.rounds[-1].result
            last_execution = runtime_result.to_execution_result()
            steps = []
            for round_ in resilient.rounds:
                steps.extend(round_.result.to_execution_result().steps)
            traces = tuple(r.result.trace for r in resilient.rounds)
            execution = ExecutionResult(
                items=resilient.items,
                item_set=union_items(r.result.item_set for r in resilient.rounds),
                steps=steps,
                hedges=sum(t.hedge_attempts for t in traces),
                recovered=sum(len(t.recovered_steps) for t in traces),
                degraded=last_execution.degraded,
                replans=resilient.replans,
                deadline_expired=resilient.deadline_expired,
                incomplete_conditions=last_execution.incomplete_conditions,
            )
        elif self.backend == "runtime":
            optimization = self._optimize(query)
            runtime_result = self.runtime.run(optimization.plan, budget_s=budget_s)
            execution = runtime_result.to_execution_result()
            traces = (runtime_result.trace,)
        else:
            optimization = self._optimize(query)
            execution = self.executor.execute(optimization.plan)
            traces = ()
        execution.breaker_trips = self._breaker_trips() - trips_before
        if self.recorder is not None:
            if not traces:
                # The sequential executor's records are the recorder's.
                traces = (
                    RuntimeTrace.from_events(
                        self.recorder.events.events[events_before:],
                        operations=optimization.plan.operations,
                    ),
                )
            breakdown = estimate_plan_cost(
                optimization.plan, self.cost_model, self.estimator
            )
            execution.profile = QueryProfile(
                traces, len(execution.items), breakdown.total, breakdown.by_source()
            )
        verified = None
        if self.verify:
            expected = reference_answer(self.federation, query)
            verified = execution.items == expected
            degraded = (
                runtime_result is not None
                and not runtime_result.complete
            ) or (resilient is not None and bool(resilient.masked))
            # A degraded (or deadline-cut) concurrent run is *expected*
            # to lose answers; only an unexplained mismatch is a bug
            # worth raising on.
            if not verified and not degraded:
                raise ExecutionError(
                    f"plan answer {sorted(execution.items, key=repr)} differs "
                    f"from reference {sorted(expected, key=repr)}"
                )
        return MediatorAnswer(
            query=query,
            items=execution.items,
            optimization=optimization,
            execution=execution,
            verified=verified,
            runtime=runtime_result,
            resilient=resilient,
        )

    def _breaker_trips(self) -> int:
        """Lifetime breaker openings across the shared health registry."""
        return sum(
            info["times_opened"]
            for info in self.runtime.health.snapshot().values()
        )

    def explain(self, query: FusionQuery | str) -> str:
        """The chosen plan with estimated per-step costs, as text."""
        query = self._coerce(query)
        result = self._optimize(query)
        breakdown = estimate_plan_cost(
            result.plan, self.cost_model, self.estimator
        )
        labels = result.plan.condition_labels()
        if result.subsets_considered and not result.plans_considered:
            searched = f"{result.subsets_considered} subsets considered"
        else:
            searched = f"{result.plans_considered} plans considered"
        lines = [
            query.describe(),
            f"optimizer: {result.optimizer} "
            f"({searched}, {result.search_strategy} search)",
        ]
        for step in breakdown.steps:
            lines.append(
                f"{step.step:>3}) {step.operation.render(labels):<60} "
                f"est. cost {step.cost:>9.1f}, est. size {step.output_size:>8.1f}"
            )
        lines.append(f"estimated total cost: {breakdown.total:.1f}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Aggregation fusion queries (PR 10)

    def parse_any(self, sql: str) -> FusionQuery | AggregateQuery:
        """Parse SQL into whichever query kind it is (fusion or aggregate)."""
        query = parse_query(
            sql,
            view_name=self.federation.name,
            merge_attribute=self.federation.schema.merge_attribute,
        )
        query.validate_against_schema(self.federation.schema)
        return query

    def _coerce_aggregate(self, query: AggregateQuery | str) -> AggregateQuery:
        """The aggregate query, validated once: by :meth:`parse_any` for
        SQL text, here for a query the caller built."""
        if isinstance(query, str):
            query = self.parse_any(query)
        elif isinstance(query, AggregateQuery):
            query.validate_against_schema(self.federation.schema)
        if not isinstance(query, AggregateQuery):
            raise CostModelError(
                "answer_aggregate requires an aggregation fusion query; "
                "use answer() for plain fusion queries"
            )
        return query

    def answer_aggregate(
        self,
        query: AggregateQuery | str,
        budget_s: float | None = None,
        pushdown: bool | str = True,
    ) -> AggregateAnswer:
        """Optimize, execute, and aggregate one aggregation fusion query.

        The fusion part runs exactly as :meth:`answer` (same plans, same
        traces); the aggregate node then gathers per-source evidence for
        the qualifying entities — via partial-aggregate pushdown (``aq``)
        at sources declaring ``supports_aggregates``, raw-tuple fetch
        plus mediator-side partials everywhere else — and merges partials
        in sorted source order, so both paths produce bit-identical
        results.  ``pushdown`` is ``True`` (cost-based choice per
        source), ``False`` (always fetch), or ``"force"`` (push down at
        every capable source regardless of cost); any other value raises
        :class:`~repro.errors.CostModelError`.  Verification modes
        other than ``"off"`` always force the fetch path, because the
        voter must see raw tuples.

        Both paths send the fusion answer as the run left it — the
        :class:`~repro.relational.items.ItemSet` bitmap when the merge
        values are interned — and the fetched relations' row tuples are
        never built: the GROUP BY reads their columns.
        """
        if not (pushdown is True or pushdown is False or pushdown == "force"):
            raise CostModelError(
                f"pushdown must be True, False or 'force', got {pushdown!r}"
            )
        query = self._coerce_aggregate(query)
        fusion_answer = self._answer(query.fusion, budget_s)
        items = fusion_answer.execution.item_set
        allow_pushdown = pushdown is not False and self.runtime.verify == "off"
        aggregate_plan = plan_aggregate(
            query,
            self.federation,
            answer_size=len(items),
            allow_pushdown=allow_pushdown,
            statistics=self.statistics,
            force_pushdown=allow_pushdown and pushdown == "force",
        )
        merged: dict = {}
        specs = tuple(query.specs)
        group_by = tuple(query.group_by)
        for task in aggregate_plan.tasks:
            source = self.federation.source(task.source)
            if task.pushdown:
                partials = source.aggregate(specs, group_by, items)
            else:
                evidence = source.fetch_rows(items)
                partials = partial_aggregate_rows(
                    evidence, specs, group_by
                )
            merged = merge_partials(merged, partials, specs)
        result = finalize_partials(merged, specs, group_by)
        verified = None
        if self.verify:
            expected = reference_aggregate(self.federation, query)
            verified = result == expected
            degraded = (
                fusion_answer.runtime is not None
                and not fusion_answer.runtime.complete
            ) or (
                fusion_answer.resilient is not None
                and bool(fusion_answer.resilient.masked)
            )
            if not verified and not degraded:
                raise ExecutionError(
                    f"aggregate answer {result.groups!r} differs from "
                    f"reference {expected.groups!r}"
                )
        return AggregateAnswer(
            query=query,
            fusion=fusion_answer,
            aggregate_plan=aggregate_plan,
            result=result,
            verified=verified,
        )

    # ------------------------------------------------------------------
    # Second phase (Sec. 1)

    def fetch_records(self, items: ItemSet | frozenset[Any]) -> Relation:
        """Fetch the full rows of the matched items from every source.

        This is the "second phase" of the two-phase approach: the fusion
        query identified the entities; now their complete records are
        retrieved (bag union across sources, since each source may hold
        different rows for the same entity).  Pass the answer's
        ``execution.item_set``: each source then slices its rows by one
        flag gather over the bitmap.
        """
        parts = [
            source.fetch_rows(items) for source in self.federation
        ]
        return Relation.union_all("matched_records", parts)
