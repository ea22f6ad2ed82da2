"""One workload in one process on one thread: the measuring half.

``run.py`` launches this file once per workload with ``PYTHONHASHSEED=0``
and ``REPRO_COLUMNAR*`` unset, and reads the single JSON line it prints.

A timed run is: three cold constructions (``setup_s`` is their median),
then whole rounds of the same op list until ``--seconds`` have passed
and the pooled sample supports a p95.  Between rounds, outside every
clock: ``federation.reset_traffic()`` and ``gc.collect()``; GC stays
enabled inside.  The traced pass is a separate construction from timing
subclasses and never feeds an end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

import calib
from layers import (
    LAYER_METRICS,
    TracedKit,
    direct_timings,
    serve_timings,
    traced_round_metrics,
)
from manifest import repro_manifest
from measure import (
    MIN_SAMPLES_BEYOND,
    PhaseClock,
    Round,
    Tracer,
    percentile,
    run_round,
    samples_beyond,
    supported_percentiles,
)
from workloads import WORKLOADS, PlainKit, State, Workload

ROOT = Path(__file__).resolve().parents[2]
TAIL_PERCENTILE = 95
#: Ops a timed run must pool before p95 has ten samples beyond it.
MIN_OPS = math.ceil((MIN_SAMPLES_BEYOND + 1) / (1 - TAIL_PERCENTILE / 100))
SETUP_REPEATS = 3
#: A set-up of a few milliseconds is repeated until this much was measured.
MIN_SETUP_S = 0.5
MAX_SETUP_REPEATS = 25


def cold_setups(workload: Workload, repeats: int) -> tuple[State, list[PhaseClock]]:
    clocks: list[PhaseClock] = []
    state = None
    while len(clocks) < repeats or (
        repeats > 1
        and sum(c.raw_s for c in clocks) < MIN_SETUP_S
        and len(clocks) < MAX_SETUP_REPEATS
    ):
        state = None  # the previous construction is garbage before the next starts
        clock = PhaseClock()
        state = workload.build(PlainKit(), clock.tick)
        clocks.append(clock)
    return state, clocks


def one_round(workload: Workload, state: State, tracer: Tracer | None = None) -> Round:
    ops = workload.start_round(state)
    round_ = run_round(ops, tracer)
    round_.wire_cost = state.federation.total_traffic_cost()
    return round_


def timed_rounds(
    workload: Workload, state: State, seconds: float, rounds: int | None
) -> list[Round]:
    """Whole rounds: a fixed number, or until the clock and the sample allow."""
    done: list[Round] = []
    start = time.perf_counter()
    while True:
        done.append(one_round(workload, state))
        if rounds is not None:
            if len(done) >= rounds:
                return done
            continue
        elapsed = time.perf_counter() - start
        pooled = sum(len(r.samples) for r in done)
        if elapsed >= seconds and (pooled >= MIN_OPS or elapsed >= 2.5 * seconds):
            return done


def qps(round_: Round) -> float:
    return round_.queries / (round_.calibrated_ms / 1e3)


def end_to_end(clocks: list[PhaseClock], rounds: list[Round]) -> dict[str, float]:
    pooled = [s.latency_ms for r in rounds for s in r.samples]
    return {
        "setup_s": median([c.calibrated_s for c in clocks]),
        "throughput_qps": median([qps(r) for r in rounds]),
        "latency_p50_ms": percentile(pooled, 50),
        "latency_p95_ms": percentile(pooled, TAIL_PERCENTILE),
        "cpu_ms_per_query": median([r.calibrated_cpu_ms / r.queries for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wire_cost_per_query": median([r.wire_cost / r.queries for r in rounds]),
    }


def bench_metrics(rounds: list[Round]) -> dict[str, float]:
    """How slow the box was, how far rounds disagreed, uncalibrated numbers."""
    factors = [s / calib.CALIB_REF_MS for r in rounds for s in r.slices_ms]
    rates = [qps(r) for r in rounds]
    raw_ms = sum(r.raw_ms for r in rounds) / sum(r.queries for r in rounds)
    return {
        "bench.calib_factor_p50": median(factors),
        "bench.calib_factor_max": max(factors),
        "bench.round_spread_frac": (max(rates) - min(rates)) / median(rates),
        "bench.raw_ms_per_query": raw_ms,
        "bench.raw_throughput_qps": 1e3 / raw_ms,
    }


def hit_ratio(state: State, before: tuple[int, int]) -> float:
    cache = state.plan_cache
    if cache is None:
        return 0.0
    hits, misses = cache.hits - before[0], cache.misses - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def traced_pass(
    workload: Workload,
    plain: State,
    baseline: list[Round],
    repeats: int,
) -> tuple[dict[str, float], Round, Tracer]:
    """Build the workload again from timing subclasses, run one round of
    its op list with every layer boundary recorded, then the direct timings."""
    tracer = Tracer()
    kit = TracedKit(tracer)
    clock = PhaseClock()
    traced = workload.build(kit, clock.tick)
    statistics = kit.counted_statistics
    cold_ms = statistics.cold_ns / 1e6 * clock.calibrated_s / clock.raw_s
    tracer.clear()
    statistics.calls = 0
    round_ = one_round(workload, traced, tracer)

    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(traced_round_metrics(traced, tracer, round_))
    metrics.update(direct_timings(workload, plain, traced, repeats))
    baseline_ms = sum(r.calibrated_ms for r in baseline) / sum(r.queries for r in baseline)
    if traced.service is not None:
        metrics.update(serve_timings(workload, plain, baseline_ms))
    metrics["sources.stats_cold_ms"] = cold_ms
    metrics.update(bench_metrics(baseline))
    metrics["bench.trace_overhead_frac"] = (
        round_.calibrated_ms / round_.queries / baseline_ms - 1
    )
    return metrics, round_, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--inject-wrong-answer", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.inject_wrong_answer:
        workload.corrupt_oracle()
    rounds = 1 if args.smoke else args.rounds
    timed = args.trace in ("0", "both")
    # Without the timed run, two plain rounds are the traced pass's baseline.
    if not timed and rounds is None:
        rounds = 2

    state, clocks = cold_setups(workload, SETUP_REPEATS if timed and not args.smoke else 1)
    cache_before = (state.plan_cache.hits, state.plan_cache.misses) if state.plan_cache else (0, 0)
    measured = timed_rounds(workload, state, args.seconds, rounds)
    report: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "end_to_end": None,
        "per_layer": None,
    }
    pooled = sum(len(r.samples) for r in measured)
    if timed:
        report["end_to_end"] = end_to_end(clocks, measured)
        report["details"] = {
            "rounds": len(measured),
            "setups": len(clocks),
            "ops": pooled,
            "queries": sum(r.queries for r in measured),
            "samples_beyond_p95": samples_beyond(pooled, TAIL_PERCENTILE),
            "supported_percentiles": supported_percentiles(pooled),
            "round_qps": [qps(r) for r in measured],
            **bench_metrics(measured),
        }
    all_rounds = list(measured)
    if args.trace in ("1", "both"):
        ratio = hit_ratio(state, cache_before)
        layer, traced_round, tracer = traced_pass(
            workload, state, measured, repeats=3 if args.smoke else 9
        )
        layer["mediator.plan_cache_hit_ratio"] = ratio
        report["per_layer"] = layer
        all_rounds.append(traced_round)
        args.out.mkdir(parents=True, exist_ok=True)
        trace_file = args.out / f"trace-{workload.name}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "manifest": repro_manifest(ROOT, args.seed),
                    "workload": workload.name,
                    **tracer.to_json(),
                }
            )
        )
    report["attempted"] = sum(len(r.samples) for r in all_rounds)
    report["failed"] = sum(r.failed for r in all_rounds)
    print(json.dumps(report))
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
