"""The R13 benchmark's gates: every op answers its oracle, and no
workload gets faster by doing less than its specification says."""

from __future__ import annotations

import repro.mediator.session as session
import repro.relational.parser as parser
from gates.support import e2e, python, time_limit
from repro.bench.harness import make_kit
from repro.mediator.reference import reference_aggregate
from repro.mediator.session import Mediator
from repro.obs import EventLog, SpanLog, metrics_from_events
from repro.obs.spans import FIRST_ENGINE_SPAN_ID, execute_spans
from repro.optimize import postopt, sja_plus
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans import cost, operations
from repro.plans import plan as plan_module
from repro.plans.cost import OpCostEstimate
from repro.query.aggregate import AggregateQuery
from repro.query.sqlparse import parse_query
from repro.relational import columnar, relation
from repro.relational.items import ItemSet
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultProfile, Faults
from repro.runtime.health import BreakerConfig
from repro.runtime.trace import RuntimeTrace
from repro.serve.service import MediatorService
from repro.sources.generators import SyntheticConfig
from repro.sources.network import TrafficRecord
from repro.sources.remote import RemoteSource
from workloads import TENANTS, WORKLOADS, PlainKit


def test_end_to_end_benchmark_smoke_r13(tmp_path):
    """End-to-end benchmark smoke (R13) — every op answers its oracle"""
    python("benchmarks/e2e/run.py", "--smoke", "--out", tmp_path, timeout=300)


def test_every_workload_text_parses_to_the_query_it_was_built_from_r13(monkeypatch):
    """Every workload text parses to the query it was built from (R13)

    The workloads build their texts from specs; parsing a text must
    give back the spec's fusion query (and GROUP BY), with the text
    tokenized once.
    """
    calls, tokenize = [], parser.tokenize

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", counted)
    with time_limit(300):
        for name, workload in WORKLOADS.items():
            for seed in (16, 17):
                w = workload(seed)
                for spec, sql in zip(w.specs, w.sql_texts, strict=True):
                    calls.clear()
                    query = parse_query(sql, "U", w.merge)
                    assert calls == [sql], (name, seed, len(calls))
                    if spec.group_by is None:
                        assert query == spec.fusion(w.merge), (name, seed, sql)
                    else:
                        assert isinstance(query, AggregateQuery), (name, seed, sql)
                        assert query.fusion == spec.fusion(w.merge), (name, seed, sql)
                        assert query.group_by == (spec.group_by,), (name, seed, sql)


def test_a_served_text_is_parsed_once_r13(monkeypatch):
    """A served text is parsed once (R13) — the plan cache keeps each statement

    serve_point's seed-16 smoke arrivals through its own service, with
    the two SQL entry points the mediator imports counted: one parse per
    distinct text, warm-up included, and every ticket equal to the
    workload's oracle.
    """
    calls = []
    for name in ("parse_fusion_query", "parse_query"):

        def counted(sql, *args, _entry=getattr(session, name), **kwargs):
            calls.append(sql)
            return _entry(sql, *args, **kwargs)

        monkeypatch.setattr(session, name, counted)
    with time_limit(300):
        w = WORKLOADS["serve_point"](16, smoke=True)
        state = w.build(PlainKit(), lambda: None)
        tickets = [ticket for op in w.ops(state) for ticket in op.run()]
        texts = set(w.sql_texts)
        assert sorted(calls) == sorted(texts), (len(calls), len(texts))
        assert len(tickets) == len(w.arrivals), (len(tickets), len(w.arrivals))
        for arrival, ticket in zip(w.arrivals, tickets):
            assert ticket.status == "done" and ticket.items == w.expected[arrival.sql], ticket.seq


def test_plan_fresh_searches_all_127_subsets_r13(tmp_path):
    """plan_fresh searches all 127 subsets (R13) — never faster by searching less"""
    result = e2e("plan_fresh", tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    subsets = result["metrics"]["optimize.subsets_per_query"]["value"]
    assert subsets == 127, f"auto at m=7 is the subset DP over 2^7 - 1 subsets, read {subsets}"


def test_a_fresh_plan_costs_what_its_operations_cost_r13(monkeypatch):
    """A fresh plan costs what its operations cost (R13) — one validation walk, priced in one
    walk, two plans, one price table, tuple records

    On plan_fresh-shaped kits (m = 7 conditions x 16 sources): every
    Plan(...) built during an SJA+ optimize() asks each of its
    operations for reads() once, one optimize() builds at most two Plans
    (SJA's staged plan and the postoptimized one) and prices none with
    estimate_plan_cost (the postoptimization walk prices each operation
    as it emits it), its subset DP asks the cost model for one
    sjq_price_table and resolves no sjq_pricer (the plan coster's
    sjq_cost applies one per semijoin operation, not counted), and the
    per-operation records of the planning and wire paths are slotted
    tuples (StepTrace, the sequential executor's record, stays a
    dataclass: the engine-ratio gate divides by that executor's time).
    """
    with time_limit(300):
        for record in (OpCostEstimate, TrafficRecord):
            assert issubclass(record, tuple) and record.__slots__ == (), record
        reads = []
        for cls in vars(operations).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, operations.Operation)
                and "reads" in vars(cls)
            ):

                def counted(self, _reads=cls.reads):
                    reads.append(self)
                    return _reads(self)

                monkeypatch.setattr(cls, "reads", counted)
        plans = []
        construct = plan_module.Plan.__init__

        def constructed(self, ops, *args, **kwargs):
            del reads[:]
            construct(self, ops, *args, **kwargs)
            assert len(reads) == len(self.operations), (len(reads), len(self.operations))
            assert set(map(id, reads)) == set(map(id, self.operations))
            plans.append(self)

        monkeypatch.setattr(plan_module.Plan, "__init__", constructed)
        pricings = []
        for module in (cost, postopt, sja_plus):
            if hasattr(module, "estimate_plan_cost"):

                def priced(*args, _price=module.estimate_plan_cost):
                    pricings.append(args[0])
                    return _price(*args)

                monkeypatch.setattr(module, "estimate_plan_cost", priced)
        for seed in range(16, 20):
            kit = make_kit(
                SyntheticConfig(
                    n_sources=16, n_entities=300, coverage=(0.2, 0.6), native_fraction=0.5,
                    emulated_fraction=0.25, seed=seed,
                ),
                m=7,
            )
            model, applying, asked = kit.cost_model, [], {"sjq_price_table": 0, "sjq_pricer": 0}

            def sjq_cost(*args, _cost=model.sjq_cost):
                applying.append(True)
                try:
                    return _cost(*args)
                finally:
                    applying.pop()

            def sjq_pricer(*args, _pricer=model.sjq_pricer):
                asked["sjq_pricer"] += not applying
                return _pricer(*args)

            def sjq_price_table(*args, _table=model.sjq_price_table):
                asked["sjq_price_table"] += 1
                return _table(*args)

            model.sjq_cost, model.sjq_pricer, model.sjq_price_table = (
                sjq_cost,
                sjq_pricer,
                sjq_price_table,
            )
            del plans[:], pricings[:]
            SJAPlusOptimizer().optimize(kit.query, kit.source_names, kit.cost_model, kit.estimator)
            assert 1 <= len(plans) <= 2 and not pricings, (seed, len(plans), len(pricings))
            assert asked == {"sjq_price_table": 1, "sjq_pricer": 0}, (seed, asked)


def test_agg_groupby_fetches_from_every_source_r13(tmp_path):
    """agg_groupby fetches from every source (R13) — never faster by aggregating less"""
    result = e2e("agg_groupby", tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    requests = result["metrics"]["sources.requests_per_query"]["value"]
    assert requests == 12, f"2 conditions x 4 sources + 4 second-phase fetches, read {requests}"
    touched = result["metrics"]["relational.rows_touched_per_query"]["value"]
    assert touched == 3708, f"seed-16 smoke reads 3708 rows per query, read {touched}"


def test_the_second_phase_reads_the_fusion_bitmap(monkeypatch):
    """The second phase reads the fusion bitmap — same groups on every backend

    The aggregate-parity check on seeds 16-17 under the sequential
    backend, the runtime backend and the runtime backend with one
    replanning round: every group equals the oracle to the bit, and
    every membership mask a second-phase fetch or pushdown computes is
    over the fusion answer's ItemSet, never its decode.
    """

    def canon(v):
        if isinstance(v, float):
            return v.hex()
        return tuple(map(canon, v)) if isinstance(v, tuple) else repr(v)

    kinds, inside, member_mask = [], [False], columnar.member_mask

    def recorded(table, wanted):
        if inside[0]:
            kinds.append(type(wanted))
        return member_mask(table, wanted)

    def second_phase(method):
        def wrapper(self, *args):
            inside[0] = True
            try:
                return method(self, *args)
            finally:
                inside[0] = False

        return wrapper

    monkeypatch.setattr(columnar, "member_mask", recorded)
    monkeypatch.setattr(relation, "member_mask", recorded)
    monkeypatch.setattr(RemoteSource, "fetch_rows", second_phase(RemoteSource.fetch_rows))
    monkeypatch.setattr(RemoteSource, "aggregate", second_phase(RemoteSource.aggregate))
    with time_limit(600):
        for seed in (16, 17):
            w = WORKLOADS["agg_groupby"](seed)
            state = w.build(PlainKit(), lambda: None)
            for backend, replan in (("sequential", 0), ("runtime", 0), ("runtime", 1)):
                mediator = Mediator(
                    state.federation, statistics=state.statistics, backend=backend,
                    replan=replan,
                )
                for sql in w.sql_texts:
                    ref = canon(
                        reference_aggregate(state.federation, mediator.parse_any(sql)).groups
                    )
                    for numpy_on in (True, False):
                        previous = columnar.set_numpy_enabled(numpy_on)
                        for pushdown in (True, False, "force"):
                            got = canon(
                                mediator.answer_aggregate(sql, pushdown=pushdown).result.groups
                            )
                            assert got == ref, (seed, backend, replan, sql, numpy_on, pushdown)
                        columnar.set_numpy_enabled(previous)
        assert kinds and set(kinds) == {ItemSet}, set(kinds)


def test_scan_heavy_scans_every_table_r13(tmp_path):
    """scan_heavy scans every table (R13) — never faster by scanning less"""
    result = e2e("scan_heavy", tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    read = {
        name: result["metrics"][name]["value"]
        for name in (
            "sources.requests_per_query",
            "relational.rows_touched_per_query",
            "mediator.plan_cache_hit_ratio",
        )
    }
    assert read == {
        "sources.requests_per_query": 12,
        "relational.rows_touched_per_query": 33552,
        "mediator.plan_cache_hit_ratio": 1,
    }, read


def test_scan_heavy_selects_through_the_value_index(monkeypatch):
    """scan_heavy selects through the value index — same bitmaps under every override

    Seeds 16-17 at full size: every answer equals the oracle, the fusion
    bitmaps are equal under set_numpy_enabled(None / True / False), and
    where numpy imports the two numpy settings answer leaves from both
    forms of a value index — its bitmaps and its slices — while the
    python kernels take neither.  Without numpy no index is built.
    """
    served = {"bitmaps": 0, "slices": 0}
    bits_where, ids_where = columnar.ValueIndex.bits_where, columnar.ValueIndex.ids_where

    def bitmapped(self, condition):
        bits = bits_where(self, condition)
        served["bitmaps"] += bits is not None
        return bits

    def sliced(self, condition):
        served["slices"] += 1
        return ids_where(self, condition)

    monkeypatch.setattr(columnar.ValueIndex, "bits_where", bitmapped)
    monkeypatch.setattr(columnar.ValueIndex, "ids_where", sliced)
    with time_limit(600):
        for seed in (16, 17):
            w = WORKLOADS["scan_heavy"](seed)
            state = w.build(PlainKit(), lambda: None)
            bitmaps = {}
            for override in (None, True, False):
                previous = columnar.set_numpy_enabled(override)
                served.update(bitmaps=0, slices=0)
                runs = []
                for i, op in enumerate(w.ops(state)):
                    result = op.run()
                    assert op.check(result), (seed, override, i)
                    assert type(result.execution.item_set) is ItemSet, (seed, override, i)
                    runs.append(result.execution.item_set)
                columnar.set_numpy_enabled(previous)
                bitmaps[override] = runs
                indexed = columnar.numpy_available() and override is not False
                assert {form: count > 0 for form, count in served.items()} == {
                    "bitmaps": indexed, "slices": indexed
                }, (seed, override, served)
            assert bitmaps[None] == bitmaps[True] == bitmaps[False], seed


def test_serve_point_records_every_query_r13(tmp_path):
    """serve_point records every query (R13) — never faster by recording less"""
    result = e2e("serve_point", tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    read = {
        name: result["metrics"][name]["value"]
        for name in ("serve.events_per_query", "serve.spans_per_query")
    }
    assert read == {"serve.events_per_query": 25, "serve.spans_per_query": 25}, read


def test_tracing_a_served_query_stays_cheap_r13(tmp_path):
    """Tracing a served query stays cheap (R13) — tracing_overhead_frac at most 0.44

    The traced pass serves the same arrivals with tracing on and off.
    One smoke round is 50 queries, so one stall moves a single reading
    by up to 1.4; the gate reads the least of three runs. Five such
    minima read 0.10-0.29 with slotted span records and the critical
    path tiled from the span fold (0.56-0.64 before); the gate is their
    max + 0.15.
    """
    readings = []
    for __ in range(3):
        result = e2e("serve_point", tmp_path)
        assert result["correct"] and result["failed"] == 0, result
        readings.append(result["metrics"]["obs.tracing_overhead_frac"]["value"])
    assert len(readings) == 3, readings
    least = min(readings)
    assert least <= 0.44, (
        f"tracing costs {least:.2f} of an untraced query (gate 0.44; readings {readings})"
    )


def test_a_served_runs_jsonl_reads_back_to_its_live_bytes_traces_metrics_and_spans_r13(
    monkeypatch,
):
    """A served run's JSONL reads back to its live bytes, traces, metrics and spans (R13)

    serve_point's seeded arrivals through a deterministic service, calm
    and under wire faults + breakers + deadlines: the log read back from
    JSONL writes the same bytes, folds to the live engine traces and
    registry, and each read-back run renders to the live Chrome trace.
    """
    # Keep what the live run builds: each engine run's trace.
    live_traces, run = [], RuntimeEngine.run

    def recording_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        live_traces.append(result.trace)
        return result

    monkeypatch.setattr(RuntimeEngine, "run", recording_run)

    def shape(trace):  # a trace read back carries stand-ins for the operations
        return trace.makespan_s, trace.timeline(), [
            (s.step, s.operation.kind.value, s.source, s.condition, s.queued_s, s.started_s,
             s.finished_s, s.attempts, s.status, s.output_size)
            for s in trace.spans
        ]

    configs = {
        "calm": ({}, None),
        "faulty": (
            {
                "faults": Faults(wire=FaultProfile.flaky(0.2)),
                "shed_policy": "none",
                "resilience": Resilience(breaker=BreakerConfig.aggressive()),
            },
            3.0,
        ),
    }
    with time_limit(300):
        for seed in (16, 17):
            w = WORKLOADS["serve_point"](seed, smoke=True)
            state = w.build(PlainKit(), lambda: None)
            for name, (options, deadline) in configs.items():
                service = MediatorService(
                    state.federation, mode="deterministic", tenants=TENANTS, pool_slots=2,
                    queue_limit=64, seed=seed, statistics=state.statistics, **options,
                )
                live_traces.clear()
                for arrival in w.arrivals:
                    service.submit(
                        arrival.sql, tenant=arrival.tenant, at_s=arrival.at_s,
                        deadline_s=deadline,
                    )
                service.run_until_idle()
                jsonl = service.recorder.events.to_jsonl()
                back = EventLog.from_jsonl(jsonl)
                assert back.to_jsonl() == jsonl, (seed, name)
                traces = RuntimeTrace.runs(back)
                assert live_traces and list(map(shape, traces)) == list(
                    map(shape, live_traces)
                ), (seed, name)
                rebuilt = metrics_from_events(back)
                assert rebuilt.to_json_text() + rebuilt.to_prometheus() == (
                    service.metrics.to_json_text() + service.metrics.to_prometheus()
                ), (seed, name)
                # Each read-back run renders under the query dispatched just before it.
                dispatched = [
                    e.query for e in back if e.type == "serve" and e.phase == "dispatched"
                ]
                assert len(dispatched) == len(traces), (seed, name)
                tickets = {ticket.seq: ticket for ticket in service.tickets}
                engine = {}
                for seq, trace in zip(dispatched, traces):
                    ticket = tickets[seq]
                    engine[ticket.trace_id] = execute_spans(
                        ticket.trace_id, (trace,), ticket.dispatched_s
                    )[0]
                spans = SpanLog()
                for trace_id in service.spans.trace_ids():
                    spans.extend(
                        [
                            s for s in service.spans.for_trace(trace_id)
                            if s.span_id < FIRST_ENGINE_SPAN_ID
                        ]
                        + engine.get(trace_id, [])
                    )
                assert spans.to_chrome_json() == service.spans.to_chrome_json(), (seed, name)


def test_an_engine_run_stays_within_2_5x_of_the_sequential_executor_r13(tmp_path):
    """An engine run stays within 2.5x of the sequential executor (R13)

    The traced pass times both executors on serve_point's plans. The
    ratio read 3.0-3.2 before the engine's per-plan schedule and
    one-pass fold, 2.1-2.3 after (single smoke runs spread by about
    0.15); the gate catches a slide back, item 3's 1.15 is the target.
    """
    result = e2e("serve_point", tmp_path)
    assert result["correct"], result
    ratio = result["metrics"]["runtime.engine_vs_executor_ratio"]["value"]
    assert ratio <= 2.5, f"an engine run costs {ratio:.2f}x the sequential executor (gate 2.5)"
