"""The CLI and serving-tier smokes: event logs that validate and mine,
planner settings, R8, R10 and R11, and metrics rebuilt from a log."""

from __future__ import annotations

import json
import re

from gates.support import SQL, repro, time_limit
from repro import Mediator, load_federation, replicate_federation
from repro.bench.serving import run_serving
from repro.bench.untrusted import run_untrusted
from repro.obs import EventLog, Recorder, metrics_from_events
from repro.obs.spans import Span, SpanLog, analyze_log, validate_chrome_trace
from repro.runtime.engine import Resilience
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.sources.generators import dmv_fig1
from repro.sources.observed import ObservedStatistics


def test_telemetry_smoke(tmp_path):
    """Telemetry smoke — CLI metrics + event log validates (R6 stack)"""
    fed, events = tmp_path / "fed.json", tmp_path / "events.jsonl"
    repro("export-dmv", fed)
    repro("query", fed, SQL, "--metrics", "--profile", "--emit-events", events)
    log = EventLog.read(events)  # re-validates every line
    types = {event.type for event in log}
    assert {"run_start", "attempt", "op", "run_end"} <= types, types
    repro("query", fed, SQL, "--observed-stats", events)

    # A log on disk mines what the run that wrote it mines live.
    live = Mediator(load_federation(fed), backend="runtime", recorder=Recorder()).answer(SQL)
    mined = ObservedStatistics()
    mined.observe(live.execution.profile.traces)
    logged = ObservedStatistics.from_events(EventLog.read(events))
    assert logged.observations == mined.observations > 0, (
        logged.observations,
        mined.observations,
    )
    # A re-planned profile: every row is its own round's, and the
    # makespan is the query's, on every answer of one mediator.
    federation, query = dmv_fig1()
    mediator = Mediator(
        replicate_federation(federation, 2), backend="runtime",
        faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
        resilience=Resilience(policy=RetryPolicy.no_retry()),
        replan=2, recorder=Recorder(),
    )
    for __ in range(3):
        answer = mediator.answer(query)
        profile = answer.execution.profile
        assert len(profile.traces) == 2, len(profile.traces)
        for span in profile.steps:
            assert span.busy_s <= span.finished_s - span.queued_s, span
        assert profile.makespan_s == answer.execution.makespan_s


def test_planner_settings_take_effect_or_are_refused(tmp_path):
    """Planner settings take effect or are refused"""
    fed, budget = tmp_path / "fed.json", tmp_path / "budget.jsonl"
    repro("export-dmv", fed)
    # A setting the planner would ignore is refused: exit 2, one error line.
    refused = repro("explain", fed, SQL, "--optimizer", "filter", "--search", "dp", expect=2)
    assert refused.stderr.count("\n") == 1, refused.stderr
    assert re.search("^error: search ", refused.stderr, re.M), refused.stderr
    # A budget makes every plan anytime; one subset is always spent.
    repro("workload", fed, SQL, "--count", "8", "--planning-budget", "1", "--emit-events", budget)
    plans = EventLog.read(budget).of_type("plan")
    assert plans and all(p.strategy == "anytime" and p.exhausted for p in plans), plans
    robust = repro(
        "query", fed, SQL, "--fault-rate", "0.3", "--optimizer", "robust",
        "--robustness-lambda", "5.0",
    )
    assert "robust ranking (λ=5)" in robust.stdout


def test_serving_tier_smoke_r8(tmp_path):
    """Serving-tier smoke (R8) — completions, replay, no deadlocks"""
    with time_limit(300):
        report = run_serving(count=16, rate_qps=10.0, thread_count=6, bench_json=False)
        assert "identical" in report
        assert "zero re-optimizations" in report
    fed = tmp_path / "fed.json"
    repro("export-dmv", fed, timeout=120)
    repro(
        "workload", fed, SQL, "--mode", "threads", "--workers", "3", "--count", "8",
        "--queue-limit", "32", timeout=120,
    )
    # A breaker's half-open probe held by another worker's engine
    # must degrade a parked dispatch, never fail the query.
    for seed in range(1, 9):
        threads = repro(
            "workload", fed, SQL, "--mode", "threads", "--workers", "3", "--count", "24",
            "--queue-limit", "32", "--fault-rate", "0.6", "--breaker", "--seed", seed,
            timeout=120,
        )
        assert "(0 failed" in threads.stdout, (seed, threads.stdout)


def test_untrusted_answers_smoke_r10(tmp_path):
    """Untrusted-answers smoke (R10) — vote admits zero spurious, liars quarantined"""
    with time_limit(300):
        report = run_untrusted(queries=5, bench_json=False)
        assert "identical" in report
        assert "majority outvotes" in report
    fed = tmp_path / "fed.json"
    repro("export-dmv", fed, timeout=120)
    repro(
        "query", fed, SQL, "--data-faults", "stale=0.4,corrupt=0.5", "--verify", "sanitize",
        "--quarantine", "--fault-seed", "11", timeout=120,
    )
    # A sticky quarantine degrades the refused steps instead of
    # hanging the run.
    sticky = repro(
        "workload", fed, SQL, "--count", "12", "--data-faults", "R1:corrupt=1.0",
        "--verify", "sanitize", "--quarantine", timeout=120,
    )
    assert "quarantined: R1" in sticky.stdout, sticky.stdout


def test_tracing_smoke_r11(tracing_rows, tmp_path):
    """Tracing smoke (R11) — dominant phase shifts, exact sums, valid export"""
    __, rows = tracing_rows
    assert rows["calm"]["dominant_phase"] == "exec.wire"
    assert rows["churn"]["dominant_phase"].startswith("exec.")
    assert rows["churn, starved pool"]["dominant_phase"] in ("queue", "pool")
    assert (
        rows["churn, starved pool"]["latency_burn_rate"] > rows["calm"]["latency_burn_rate"]
    )
    fed = tmp_path / "fed.json"
    repro("export-dmv", fed, timeout=120)
    exports = [tmp_path / "trace.json", tmp_path / "trace_again.json"]
    for export in exports:
        repro(
            "workload", fed, SQL, "--count", "10", "--rate-qps", "10", "--pool-slots", "1",
            "--trace-export", export, "--slo", "latency:60:0.75,completeness:0.9",
            timeout=120,
        )
    # Same seed, same span bytes — at the CLI surface, not only in-process.
    assert exports[0].read_bytes() == exports[1].read_bytes()
    # Thread mode under faults + breakers: spans are rendered per worker,
    # breaker transitions land on the service's own event stream.
    events, threaded = tmp_path / "ev.jsonl", tmp_path / "trace_t.json"
    repro(
        "workload", fed, SQL, "--mode", "threads", "--workers", "3", "--fault-rate", "0.4",
        "--breaker", "--count", "12", "--emit-events", events, "--trace-export", threaded,
        timeout=120,
    )
    with time_limit(120):
        spans = validate_chrome_trace(json.loads(threaded.read_text(encoding="utf-8")))
        assert spans > 0 and len(EventLog.read(events)) > 0
    with time_limit(120):
        data = json.loads(exports[0].read_text(encoding="utf-8"))
        spans = validate_chrome_trace(data)
        assert spans > 0, "exported trace is empty"
        # Critical paths must tile each root span exactly.
        roots = {}
        for event in data["traceEvents"]:
            if event.get("ph") == "X" and event["name"] == "query":
                roots[event["args"]["trace_id"]] = event["dur"] / 1e6
        log = SpanLog()
        for event in data["traceEvents"]:
            if event.get("ph") != "X":
                continue
            args = event["args"]
            log.add(
                Span(
                    trace_id=args["trace_id"], span_id=args["span_id"],
                    parent_id=args["parent_id"], name=event["name"], category=event["cat"],
                    start_s=event["ts"] / 1e6, end_s=(event["ts"] + event["dur"]) / 1e6,
                    attributes={
                        k: v for k, v in args.items()
                        if k not in ("trace_id", "span_id", "parent_id")
                    },
                )
            )
        paths = analyze_log(log)
        assert set(paths) == set(roots)
        for trace_id, path in paths.items():
            total = sum(s.duration_s for s in path.slices)
            assert abs(total - roots[trace_id]) < 1e-6, (trace_id, total, roots[trace_id])


def test_metrics_are_a_fold(tmp_path):
    """Metrics are a fold — a log on disk reproduces the metrics printed beside it"""
    fed, events = tmp_path / "fed.json", tmp_path / "w.jsonl"
    repro("export-dmv", fed, timeout=120)
    printed = repro(
        "workload", fed, SQL, "--count", "12", "--rate-qps", "10", "--pool-slots", "1",
        "--fault-rate", "0.3", "--breaker", "--deadline", "30", "--metrics", "json",
        "--emit-events", events, timeout=120,
    )
    with time_limit(120):
        log = EventLog.read(events)  # re-validates every line
        rebuilt = metrics_from_events(log).to_json_text()
        assert rebuilt in printed.stdout, "log does not rebuild the printed metrics"
