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
from typing import Any, Callable

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.errors import CostModelError, ExecutionError
from repro.mediator.adaptive import AdaptiveResult, AdaptiveStage, StagedExecution
from repro.mediator.executor import ExecutionResult, Executor
from repro.mediator.plan_cache import PlanCache
from repro.mediator.reference import reference_aggregate, reference_answer
from repro.obs.events import ReplanEvent
from repro.obs.profile import QueryProfile
from repro.optimize.base import OptimizationResult, Optimizer
from repro.optimize.planning import Planning
from repro.optimize.search import PlanningBudget
from repro.optimize.sja import SJAStagedProblem
from repro.plans.aggregate import AggregatePlan, plan_aggregate
from repro.plans.builder import build_stage_plan
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
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector
from repro.runtime.health import BreakerState, HealthRegistry
from repro.runtime.trace import OpStatus
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
    #: With re-planning on (``replan > 0``): the sources each round
    #: planned over (``execution.traces`` holds each round's run) and the
    #: sources masked as dead or quarantined.  Empty otherwise.
    planned: tuple[tuple[str, ...], ...] = ()
    masked: tuple[str, ...] = ()

    @property
    def plan(self) -> Plan:
        return self.optimization.plan

    @property
    def loss_expected(self) -> bool:
        """True when the run is known to have lost answers — its last
        round lost an operation (retries spent, deadline cut) or
        re-planning masked a source — so an answer that differs from
        the reference is expected, not a bug."""
        return not self.execution.complete or bool(self.masked)

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
        execution = self.execution
        if execution.traces:
            # The run record's totals: every round's retries, recoveries
            # and wall time; the last round's lost operations.
            retries = sum(trace.total_retries for trace in execution.traces)
            text += (
                f"; makespan {execution.makespan_s:.3f}s, "
                f"{retries} retries, {execution.degraded} degraded"
            )
            if execution.recovered:
                text += f", {execution.recovered} recovered"
        if execution.replans:
            text += f"; {execution.replans} replan round(s)"
        return text

    def replanning(self) -> str:
        """The re-planning digest: answer size, rounds, their summed
        makespan and cost, the masked sources, and whether the last
        round still lost an operation."""
        execution = self.execution
        text = (
            f"{len(self.items)} items in {len(execution.traces)} round(s), "
            f"makespan {execution.makespan_s:.3f}s, cost "
            f"{execution.total_cost:.1f}"
        )
        if self.masked:
            text += f", masked: {', '.join(self.masked)}"
        if not execution.complete:
            text += " (still degraded)"
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
            refresh invalidates stale plans automatically.  The cache
            also keeps each parsed SQL statement, so a repeated text is
            parsed once (the schema check still runs on every call).
        backend: ``"sequential"`` executes plans one operation at a time
            (the paper's total-work setting: no clock, no faults, no
            events); ``"runtime"`` executes them concurrently on the
            discrete-event engine of :mod:`repro.runtime`, observing
            response time, faults, and retries.  Adaptive answers run
            on the engine under either backend.
        faults: Fault injector for the runtime backend (default: none).
            The sequential backend injects none; its robust planner and
            adaptive answers still read it.
        resilience: How the runtime backend responds to failing or lying
            sources: one :class:`~repro.runtime.engine.Resilience` value
            (each knob is documented there).  The sequential backend
            retries nothing.
        replan: Re-planning rounds (a non-negative int) allowed after a
            degraded runtime run: dead sources masked, substitutes
            swapped in, answers merged by union.  0 disables; more than
            0 needs ``backend="runtime"``.
        recorder: Optional :class:`repro.obs.Recorder`; needs
            ``backend="runtime"``, since the engine is the one path that
            records.  When attached, every engine run emits structured
            events and metrics, breaker transitions are observed, and
            every answer's ``execution.profile`` is filled in from
            ``execution.traces``.  ``None`` (the default) leaves
            execution byte-identical to an uninstrumented mediator.
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
        replan: int = 0,
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
        if isinstance(replan, bool) or not isinstance(replan, int) or replan < 0:
            raise CostModelError(
                f"replan must be an int >= 0, got {replan!r}"
            )
        # Re-planning rounds and recording run on the engine only; the
        # sequential backend would accept them and do nothing.
        if backend == "sequential" and replan:
            raise CostModelError(
                f"replan={replan} needs backend='runtime': the sequential "
                "backend runs each plan once"
            )
        if backend == "sequential" and recorder is not None:
            raise CostModelError(
                "a recorder needs backend='runtime': the sequential backend "
                "records nothing"
            )
        self.max_replans = replan
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
        self.executor = Executor(federation)
        self.planning = planning = planning or Planning()
        self.optimizer: Optimizer = planning.optimizer_for(
            runtime, faults, self.max_replans
        )
        self.plan_cache: PlanCache | None = PlanCache.of(plan_cache)

    # ------------------------------------------------------------------

    def parse(self, sql: str) -> FusionQuery:
        """Parse fusion-query SQL against this federation's view name."""
        view = self.federation.name
        return self._parsed("fusion", sql, lambda: parse_fusion_query(sql, view_name=view))

    def _parsed(
        self,
        entry: str,
        sql: str,
        parse: Callable[[], FusionQuery | AggregateQuery],
    ) -> Any:
        """``parse()``'s query, validated against the schema on every
        call; with a plan cache a repeated text is parsed once (its
        statement map is keyed on ``entry``, view, merge attribute and
        text)."""
        schema = self.federation.schema
        if self.plan_cache is None:
            query = parse()
        else:
            key = (entry, self.federation.name, schema.merge_attribute, sql)
            query = self.plan_cache.statement(key, parse)
        query.validate_against_schema(schema)
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

    def answer(
        self, query: FusionQuery | str, budget_s: float | None = None
    ) -> MediatorAnswer:
        """Optimize, execute, and (optionally) verify one fusion query.

        ``budget_s`` bounds execution virtual time: at expiry in-flight
        work is cancelled and the best partial answer found so far is
        returned — marked via ``execution.partial`` — instead of
        raising.  The sequential backend has no clock, so a budget there
        raises :class:`~repro.errors.CostModelError`.
        """
        return self._answer(self._coerce(query), budget_s)

    def _answer(
        self, query: FusionQuery, budget_s: float | None
    ) -> MediatorAnswer:
        """:meth:`answer` of a query already validated against the schema."""
        planned: tuple[tuple[str, ...], ...] = ()
        masked: tuple[str, ...] = ()
        trips_before = self.runtime.health.times_opened()
        if self.backend == "sequential":
            if budget_s is not None:
                raise CostModelError(
                    "budget_s needs backend='runtime': the sequential "
                    "backend has no clock"
                )
            optimization = self._optimize(query)
            execution = self.executor.execute(optimization.plan)
        elif self.max_replans:
            optimization, execution, planned, masked = self._replan(
                query, budget_s
            )
        else:
            optimization = self._optimize(query)
            execution = self.runtime.run(optimization.plan, budget_s=budget_s)
        execution.breaker_trips = self.runtime.health.times_opened() - trips_before
        if self.recorder is not None:
            breakdown = estimate_plan_cost(
                optimization.plan, self.cost_model, self.estimator
            )
            execution.profile = QueryProfile(
                execution.traces,
                len(execution.items),
                breakdown.total,
                breakdown.by_source(),
            )
        answer = MediatorAnswer(
            query=query,
            items=execution.items,
            optimization=optimization,
            execution=execution,
            planned=planned,
            masked=masked,
        )
        if self.verify:
            answer.verified = self._check(query, execution.items, answer.loss_expected)
        return answer

    def _check(self, query: FusionQuery, items: frozenset[Any], loss_expected: bool) -> bool:
        """The ``verify=True`` oracle check: whether ``items`` is the
        reference answer.  A mismatch raises
        :class:`~repro.errors.ExecutionError` unless the run is known to
        have lost answers."""
        expected = reference_answer(self.federation, query)
        if items == expected:
            return True
        if not loss_expected:
            raise ExecutionError(
                f"plan answer {sorted(items, key=repr)} differs "
                f"from reference {sorted(expected, key=repr)}"
            )
        return False

    def _replan(
        self, query: FusionQuery, budget_s: float | None
    ) -> tuple[
        OptimizationResult,
        ExecutionResult,
        tuple[tuple[str, ...], ...],
        tuple[str, ...],
    ]:
        """Run ``query`` on the engine in rounds, re-planning around dead
        sources: round 0's plan, the merged run record, each round's
        planned sources, and the masked sources.

        Hedging and breakers recover an operation while it runs; a round
        that still lost one (retries spent, no substitute served it) is
        followed by a re-plan of the same query over the surviving
        sources, every dead or quarantined source masked and an unused
        substitute swapped in where one exists.  Every round runs on the
        mediator's one engine, so breaker state carries over and a
        replan does not re-burn budget on sources already known dead,
        and plans through :meth:`_optimize`, so rounds share the plan
        cache.

        Answers accumulate across rounds by union.  That is sound
        because fusion answers are monotone in the evaluated sources:
        each round's (possibly degraded) answer is a subset of the true
        answer — skipping a source only ever under-fills some
        ``X_i = ∪_j sq(c_i, R_j)``, shrinking the final intersection —
        so the union of subsets is still a subset.  Re-planning can only
        add confirmed answers, never invent spurious ones.

        ``budget_s`` bounds the whole run: rounds share one clock, so
        each round's engine budget is what earlier rounds left, and
        re-planning stops once it is spent (the partial union so far is
        returned on time).
        """
        runtime = self.runtime
        active = list(self.federation.representative_names)
        masked: list[str] = []
        planned: list[tuple[str, ...]] = []
        results: list[ExecutionResult] = []
        remaining_s = budget_s
        # The shared health registry may already be quarantining sources
        # (tripped by earlier queries); never plan onto them.
        for name in runtime.health.quarantined_names():
            if name in active:
                self._mask(name, active, masked)
        for round_no in range(self.max_replans + 1):
            sources = tuple(active)
            optimization = self._optimize(query, sources)
            if round_no == 0:
                first = optimization
            if self.recorder is not None:
                self.recorder.record(
                    ReplanEvent(
                        self.recorder.clock_offset_s,
                        round_no,
                        optimization.optimizer,
                        sorted(sources),
                        sorted(masked),
                        optimization.estimated_cost,
                    )
                )
            result = self._run_round(round_no, optimization.plan, remaining_s)
            if remaining_s is not None:
                remaining_s -= result.makespan_s
            planned.append(sources)
            results.append(result)
            if result.complete:
                break
            if remaining_s is not None and remaining_s <= 0:
                break  # budget spent; return the partial union on time
            # The planned sources of lost operations, then any source the
            # round quarantined on data quality: both are replanned around.
            unusable = [
                span.source
                for span in result.trace.remote_spans
                if span.status is OpStatus.DEGRADED
            ]
            unusable += [
                name for name in runtime.health.quarantined_names() if name in active
            ]
            changed = False
            for name in dict.fromkeys(unusable):
                changed |= self._mask(name, active, masked)
            if not active or not changed:
                break  # nothing left to reroute to; keep what we have
        execution = ExecutionResult(
            union_items(result.item_set for result in results),
            traces=tuple(result.trace for result in results),
        )
        return first, execution, tuple(planned), tuple(masked)

    def _run_round(
        self, round_no: int, plan: Plan, budget_s: float | None
    ) -> ExecutionResult:
        """Run one round's plan on the engine.  With a recorder, the
        round's records carry ``round_no``; rounds share one clock."""
        recorder = self.recorder
        if recorder is not None:
            recorder.round = round_no
        result = self.runtime.run(plan, budget_s=budget_s)
        if recorder is not None:
            # Shift the next round's timestamps past this round's.
            recorder.clock_offset_s += result.makespan_s
        return result

    def answer_adaptive(self, query: FusionQuery | str) -> AdaptiveResult:
        """Answer ``query`` by interleaving planning and execution.

        Each round plans one stage by Fig. 4's stage rule at the
        *observed* ``|X_{i-1}|`` (the first: the cheapest all-selection
        stage, ties to the more selective), builds it as a plan of its
        own (:func:`~repro.plans.builder.build_stage_plan`) and runs it
        on the mediator's engine.  An empty ``X_i`` stops the query
        unless some stage lost an operation (then ``X_i`` may be short,
        and ``result.execution.complete`` is False).  With
        ``verify=True`` the answer is checked against the oracle as in
        :meth:`answer` (``result.verified``).  Stages have no re-planning
        rounds, so a mediator built with ``replan > 0`` is refused.

        Example:
            >>> from repro.sources.generators import dmv_fig1
            >>> federation, query = dmv_fig1()
            >>> result = Mediator(federation).answer_adaptive(query)
            >>> sorted(result.items), len(result.execution.traces)
            (['J55', 'T21'], 2)
        """
        if self.max_replans:
            raise CostModelError(
                f"answer_adaptive runs no re-planning rounds; this mediator has "
                f"replan={self.max_replans} (build it with replan=0)"
            )
        query = self._coerce(query)
        names = self.federation.source_names
        rule = SJAStagedProblem(query.conditions, names, self.cost_model, self.estimator)
        remaining = list(range(query.arity))
        stages: list[AdaptiveStage] = []
        runs: list[ExecutionResult] = []
        lost = False  # whether any stage so far lost an operation
        current: Any = None  # no binding set before stage 1
        while remaining:
            if current is None:
                # Cheapest selection stage, tie-broken by smaller result.
                outcomes = {index: rule.first_stage(index) for index in remaining}
                selectivity = self.estimator.global_selectivity
                index = min(
                    remaining,
                    key=lambda i: (outcomes[i].cost, selectivity(query.conditions[i])),
                )
            elif not current and not lost:
                break
            else:
                # Cheapest next stage given the actual current set size.
                size = float(len(current))
                outcomes = {index: rule.later_stage(index, size) for index in remaining}
                index = min(remaining, key=lambda i: outcomes[i].cost)
            remaining.remove(index)
            condition, chosen = query.conditions[index], outcomes[index]
            plan = build_stage_plan(condition, chosen.payload, names, current)
            run = self._run_round(len(runs), plan, None)
            choices = {name: choice.value for name, choice in zip(names, chosen.payload)}
            size_in = 0 if current is None else len(current)
            cost, size_out = run.trace.total_cost, len(run.item_set)
            stages.append(AdaptiveStage(condition, choices, chosen.cost, cost, size_in, size_out))
            runs.append(run)
            lost = lost or not run.complete
            current = run.item_set
        execution = StagedExecution(current, traces=tuple(run.trace for run in runs))
        # The one decode of the answer: every stage handed on its bitmap.
        result = AdaptiveResult(execution.items, execution, stages, len(remaining))
        if self.verify:
            result.verified = self._check(query, result.items, not execution.complete)
        return result

    def _mask(self, dead: str, active: list[str], masked: list[str]) -> bool:
        """Remove ``dead`` from planning and swap in its best substitute
        not already planned, masked or quarantined; True when ``active``
        changed."""
        if dead not in masked:
            masked.append(dead)
        changed = dead in active
        if changed:
            active.remove(dead)
        health = self.runtime.health
        for name in self.runtime.substitutes_for(dead):
            if (
                name not in active
                and name not in masked
                and health.state_of(name) is not BreakerState.QUARANTINED
            ):
                active.append(name)
                return True
        return changed

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
        view, merge = self.federation.name, self.federation.schema.merge_attribute
        return self._parsed(
            "any", sql, lambda: parse_query(sql, view_name=view, merge_attribute=merge)
        )

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
        traces, the same ``budget_s``); the aggregate node then gathers per-source evidence for
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
            if not verified and not fusion_answer.loss_expected:
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
