"""Per-layer measurement from outside the program.

Two instruments, both built only on public names of ``repro``:

* a *traced kit*: timing subclasses of ``TableSource``, ``RemoteSource``,
  ``PlanCache``, ``Executor``, ``Mediator`` and ``MediatorService``, plus
  wrappers that count statistics calls and time the cost model and the
  optimizer.  A workload built from this kit runs one round and every
  call across a layer boundary becomes a span;
* *direct timings*: public entry points of each layer called on the
  workload's own inputs (parse, cold optimize, plan-cache lookup, the two
  executors on the same plans, the aggregate kernels on fetched rows).

Layers are the packages under ``src/repro``; a span is named
``<layer>.<call>``.  Time values are wall time divided by the traced
round's speed factor; counts are exact.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable, Sequence

import calib
from measure import Round, Tracer, run_round
from repro.costs.model import CostModel
from repro.mediator.executor import Executor
from repro.mediator.plan_cache import PlanCache
from repro.mediator.session import Mediator
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder
from repro.optimize.base import Optimizer
from repro.plans.aggregate import plan_aggregate
from repro.query.sqlparse import is_fusion_query, parse_query
from repro.relational.aggregates import (
    finalize_partials,
    merge_partials,
    partial_aggregate_rows,
)
from repro.runtime.engine import RuntimeEngine
from repro.serve.service import MediatorService
from repro.sources.remote import RemoteSource
from repro.sources.statistics import ExactStatistics
from repro.sources.table_source import TableSource
from workloads import PlainKit, State, Workload

#: Every per-layer metric the benchmark declares.  A metric a workload
#: cannot exercise (``serve.*`` without a service, ``plans.plan_aggregate_us``
#: without aggregates) is reported as 0.
LAYER_METRICS = (
    "query.parse_us",
    "query.detect_us",
    "optimize.optimize_ms",
    "optimize.subsets_per_query",
    "costs.model_calls_per_query",
    "costs.model_ms_per_query",
    "sources.stats_calls_per_query",
    "sources.stats_cold_ms",
    "sources.requests_per_query",
    "sources.emulated_bindings_per_query",
    "sources.wrapper_self_ms_per_query",
    "relational.table_ms_per_query",
    "relational.rows_touched_per_query",
    "relational.fetch_rows_ms_per_query",
    "relational.partials_ms_per_query",
    "plans.ops_per_plan",
    "plans.plan_aggregate_us",
    "mediator.plan_cache_get_us",
    "mediator.plan_cache_hit_ratio",
    "mediator.execute_self_ms_per_query",
    "mediator.answer_self_us",
    "runtime.run_self_us_per_query",
    "runtime.engine_vs_executor_ratio",
    "serve.submit_self_ms_per_query",
    "serve.ms_per_query_tracing_off",
    "serve.events_per_query",
    "serve.spans_per_query",
    "serve.max_in_flight",
    "serve.shed",
    "obs.tracing_overhead_frac",
    "obs.recorder_overhead_frac",
    "bench.calib_factor_p50",
    "bench.calib_factor_max",
    "bench.round_spread_frac",
    "bench.trace_overhead_frac",
    "bench.trace_attributed_frac",
    "bench.raw_ms_per_query",
    "bench.raw_throughput_qps",
)

# ----------------------------------------------------------------------
# The traced kit


def _spanned(tracer: Tracer, name: str, method: Callable) -> Callable:
    def call(self, *args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter(name)
        try:
            return method(self, *args, **kwargs)
        finally:
            tracer.exit(frame)

    return call


def _timing_subclass(
    tracer: Tracer, base: type, layer: str, methods: Sequence[str]
) -> type:
    """A subclass of ``base`` whose ``methods`` each record a span."""
    return type(
        f"Timed{base.__name__}",
        (base,),
        {m: _spanned(tracer, f"{layer}.{m}", getattr(base, m)) for m in methods},
    )


class CountedStatistics:
    """The statistics provider with every call counted and the first
    ``selectivity`` of each (source, condition) pair timed: that one
    scans the source's rows, every later one is a dict lookup."""

    def __init__(self, inner: ExactStatistics):
        self._inner = inner
        self._seen: set = set()
        self.calls = 0
        self.cold_ns = 0

    def cardinality(self, source_name: str) -> int:
        self.calls += 1
        return self._inner.cardinality(source_name)

    def distinct_items(self, source_name: str) -> int:
        self.calls += 1
        return self._inner.distinct_items(source_name)

    def universe_size(self) -> int:
        self.calls += 1
        return self._inner.universe_size()

    def selectivity(self, source_name: str, condition: Any) -> float:
        self.calls += 1
        key = (source_name, condition)
        if key in self._seen:
            return self._inner.selectivity(source_name, condition)
        self._seen.add(key)
        start = time.perf_counter_ns()
        try:
            return self._inner.selectivity(source_name, condition)
        finally:
            self.cold_ns += time.perf_counter_ns() - start


class TimedCostModel(CostModel):
    """Thousands of calls per optimized query, so each reports a leaf time
    instead of opening a span."""

    def __init__(self, inner: CostModel, tracer: Tracer):
        self._inner = inner
        self._leaf = tracer.leaf

    def sq_cost(self, condition, source_name):
        start = time.perf_counter_ns()
        try:
            return self._inner.sq_cost(condition, source_name)
        finally:
            self._leaf("costs.model", time.perf_counter_ns() - start)

    def sjq_cost(self, condition, source_name, input_size):
        start = time.perf_counter_ns()
        try:
            return self._inner.sjq_cost(condition, source_name, input_size)
        finally:
            self._leaf("costs.model", time.perf_counter_ns() - start)

    def lq_cost(self, source_name):
        start = time.perf_counter_ns()
        try:
            return self._inner.lq_cost(source_name)
        finally:
            self._leaf("costs.model", time.perf_counter_ns() - start)

    def supports_semijoin(self, source_name, condition):
        return self._inner.supports_semijoin(source_name, condition)


class TimedOptimizer(Optimizer):
    def __init__(self, inner: Optimizer, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def optimize(self, query, source_names, cost_model, estimator):
        return self._tracer.timed(
            "optimize.optimize", self._inner.optimize, query, source_names, cost_model, estimator
        )


class TracedKit(PlainKit):
    """Builds the same objects as ``PlainKit`` from timing subclasses."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counted_statistics: CountedStatistics | None = None
        self._table = _timing_subclass(
            tracer,
            TableSource,
            "relational",
            ("selection", "semijoin", "binding_selection", "load", "aggregate_partials"),
        )
        self._remote = _timing_subclass(
            tracer,
            RemoteSource,
            "sources",
            ("selection", "semijoin", "load", "fetch_rows", "aggregate"),
        )
        self._plan_cache = _timing_subclass(tracer, PlanCache, "mediator", ("get", "put"))
        self._executor = _timing_subclass(tracer, Executor, "mediator", ("execute",))
        self._mediator = _timing_subclass(
            tracer, Mediator, "mediator", ("answer", "answer_aggregate")
        )
        # Parsing happens inside answer(); calling it "query.parse" files
        # its time under the layer that does the work.
        for method in ("parse", "parse_any"):
            setattr(self._mediator, method, _spanned(tracer, "query.parse", getattr(Mediator, method)))
        self._service = _timing_subclass(
            tracer, MediatorService, "serve", ("submit", "run_until_idle")
        )

    def source(self, relation, capabilities, link):
        return self._remote(self._table(relation), capabilities, link)

    def statistics(self, federation):
        self.counted_statistics = CountedStatistics(ExactStatistics(federation))
        return self.counted_statistics

    def plan_cache(self):
        return self._plan_cache()

    def mediator(self, federation, statistics, **options):
        mediator = self._mediator(federation, statistics=statistics, **options)
        # The collaborators a Mediator builds for itself are public
        # attributes; wrapping them in place keeps its default wiring
        # (one estimator shared by the mediator and its cost model).
        mediator.cost_model = TimedCostModel(mediator.cost_model, self.tracer)
        mediator.optimizer = TimedOptimizer(mediator.optimizer, self.tracer)
        mediator.executor = self._executor(
            federation, max_retries=mediator.executor.max_retries, recorder=mediator.recorder
        )
        return mediator

    def service(self, federation, **options):
        return self._service(federation, **options)


# ----------------------------------------------------------------------
# Direct timings


def _median_us(call: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        call()
        samples.append((time.perf_counter_ns() - start) / 1e3)
    return median(samples)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def direct_timings(
    workload: Workload, plain: State, traced: State, repeats: int
) -> dict[str, float]:
    """Time each layer's public entry points on the workload's inputs.

    ``plain`` supplies warm statistics without tracing overhead;
    ``traced`` supplies a federation whose wrapper calls are spans, so
    the two executors' self times exclude the sources beneath them.
    """
    timings: dict[str, float] = {}  # wall times, rescaled to reference speed below
    slices = [calib.slice_ms()]
    tracer = traced.kit.tracer
    federation = plain.federation
    view, merge = federation.name, federation.schema.merge_attribute
    texts = workload.sql_texts[:24]
    queries = workload.fusion_queries[:24]

    timings["query.parse_us"] = _mean(
        [_median_us(lambda: parse_query(sql, view, merge), repeats) for sql in texts]
    )
    timings["query.detect_us"] = _mean(
        [_median_us(lambda: is_fusion_query(sql, view), repeats) for sql in texts]
    )

    mediator = plain.mediator or Mediator(federation, statistics=plain.statistics)
    sources = federation.representative_names
    results = []
    optimize_ms = []
    for query in queries:
        start = time.perf_counter_ns()
        results.append(
            mediator.optimizer.optimize(query, sources, mediator.cost_model, mediator.estimator)
        )
        optimize_ms.append((time.perf_counter_ns() - start) / 1e6)
    slices.append(calib.slice_ms())
    timings["optimize.optimize_ms"] = _mean(optimize_ms)

    cache = PlanCache()
    for query, result in zip(queries, results):
        cache.put(query, sources, plain.statistics, result)
    timings["mediator.plan_cache_get_us"] = _mean(
        [_median_us(lambda: cache.get(q, sources, plain.statistics), repeats) for q in queries]
    )

    engine = RuntimeEngine(traced.federation)
    executor = Executor(traced.federation)
    tracer.op_id = -1
    for result in results:
        for _ in range(min(repeats, 3)):
            tracer.timed("runtime.run_direct", engine.run, result.plan)
            tracer.timed("mediator.execute_direct", executor.execute, result.plan)
    engine_self = tracer.total("runtime.run_direct")
    executor_self = tracer.total("mediator.execute_direct")
    timings["runtime.run_self_us_per_query"] = engine_self.self_ns / engine_self.calls / 1e3

    if workload.specs[0].group_by is not None:
        timings.update(_aggregate_timings(workload, plain, repeats))
    slices.append(calib.slice_ms())
    factor = median(slices) / calib.CALIB_REF_MS
    return {
        **{name: value / factor for name, value in timings.items()},
        "optimize.subsets_per_query": _mean([r.subsets_considered for r in results]),
        "plans.ops_per_plan": _mean([len(r.plan.operations) for r in results]),
        "runtime.engine_vs_executor_ratio": engine_self.self_ns / executor_self.self_ns,
    }


def _aggregate_timings(workload: Workload, plain: State, repeats: int) -> dict[str, float]:
    """``plan_aggregate`` and the partial-aggregate kernels, replayed on the
    evidence each source returns for the workload's own queries."""
    federation, mediator = plain.federation, plain.mediator
    plan_us, partials_ms = [], []
    for index, sql in enumerate(workload.sql_texts):
        query = mediator.parse_any(sql)
        items = mediator.answer(query.fusion).items

        def plan():
            return plan_aggregate(
                query, federation, answer_size=len(items), statistics=plain.statistics
            )

        plan_us.append(_median_us(plan, repeats))
        gathered = []
        for task in plan().tasks:
            source = federation.source(task.source)
            if task.pushdown:
                gathered.append((True, source.aggregate(query.specs, query.group_by, items)))
            else:
                gathered.append((False, source.fetch_rows(items)))
        start = time.perf_counter_ns()
        merged: dict = {}
        for pushed, evidence in gathered:
            partials = (
                evidence
                if pushed
                else partial_aggregate_rows(evidence, query.specs, query.group_by)
            )
            merged = merge_partials(merged, partials, query.specs)
        finalize_partials(merged, query.specs, query.group_by)
        partials_ms.append((time.perf_counter_ns() - start) / 1e6)
    return {
        "plans.plan_aggregate_us": _mean(plan_us),
        "relational.partials_ms_per_query": _mean(partials_ms),
    }


def serve_timings(workload: Workload, plain: State, baseline_ms_per_query: float) -> dict[str, float]:
    """What the serving tier's telemetry costs: the same arrivals with
    tracing off, and a runtime-backend mediator with and without a recorder."""
    quiet = run_round(workload.start_round(plain, tracing=False))
    quiet_ms = quiet.calibrated_ms / quiet.queries

    sql = workload.sql_texts[0]
    bare = Mediator(plain.federation, statistics=plain.statistics, backend="runtime", plan_cache=True)
    recorded = Mediator(
        plain.federation,
        statistics=plain.statistics,
        backend="runtime",
        plan_cache=True,
        recorder=Recorder(metrics=MetricsRegistry(), events=EventLog()),
    )
    spent = {"bare": 0, "recorded": 0}
    for _ in range(6):  # alternate, so a slow spell hits both sides
        for side, mediator in (("bare", bare), ("recorded", recorded)):
            start = time.perf_counter_ns()
            for _ in range(50):
                mediator.answer(sql)
            spent[side] += time.perf_counter_ns() - start
    return {
        "serve.ms_per_query_tracing_off": quiet_ms,
        "obs.tracing_overhead_frac": baseline_ms_per_query / quiet_ms - 1,
        "obs.recorder_overhead_frac": spent["recorded"] / spent["bare"] - 1,
    }


# ----------------------------------------------------------------------
# Layer metrics from one traced round


def traced_round_metrics(
    traced: State, tracer: Tracer, round_: Round
) -> dict[str, float]:
    """Self times and counts of the traced round, per query."""
    queries = round_.queries
    factor = round_.factor

    def self_ms(*names: str) -> float:
        return sum(tracer.total(n).self_ns for n in names) / 1e6 / factor / queries

    def total_ms(*names: str) -> float:
        return sum(tracer.total(n).total_ns for n in names) / 1e6 / factor / queries

    table_calls = [n for n in tracer.totals if n.startswith("relational.")]
    wrapper_calls = [n for n in tracer.totals if n.startswith("sources.")]
    records = [r for source in traced.federation for r in source.traffic.records]
    ops = tracer.total("bench.op")
    out = {
        "costs.model_calls_per_query": tracer.total("costs.model").calls / queries,
        "costs.model_ms_per_query": self_ms("costs.model"),
        "sources.stats_calls_per_query": traced.statistics.calls / queries,
        "sources.requests_per_query": len(records) / queries,
        "sources.emulated_bindings_per_query": sum(
            1 for r in records if r.operation == "sjq-emulated"
        )
        / queries,
        "sources.wrapper_self_ms_per_query": self_ms(*wrapper_calls),
        "relational.table_ms_per_query": total_ms(*table_calls),
        "relational.rows_touched_per_query": sum(
            source.table.counters.rows_scanned for source in traced.federation
        )
        / queries,
        "relational.fetch_rows_ms_per_query": total_ms("sources.fetch_rows"),
        "mediator.execute_self_ms_per_query": self_ms("mediator.execute"),
        "mediator.answer_self_us": self_ms("mediator.answer", "mediator.answer_aggregate") * 1e3,
        "serve.submit_self_ms_per_query": self_ms("serve.submit", "serve.run_until_idle"),
        "bench.trace_attributed_frac": 1 - ops.self_ns / ops.total_ns,
    }
    service = traced.service
    if service is not None:
        out["serve.events_per_query"] = len(service.recorder.events) / queries
        out["serve.spans_per_query"] = len(service.spans) / queries
        out["serve.max_in_flight"] = service.max_in_flight
        out["serve.shed"] = sum(service.admission.rejected_total.values())
    return out
