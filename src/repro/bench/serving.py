"""R8 — the serving tier: concurrent multi-query workloads.

Drives :class:`repro.serve.MediatorService` with seeded Poisson
workloads and reports the headline serving numbers: queries/sec,
p50/p95/p99 latency, max concurrent in-flight queries, shedding, and
shared plan-cache hit counts.  Four sections:

1. a workload sweep — calm vs a mid-workload churn wave, plus a
   thread-pool run of the same arrival list;
2. deterministic replay — the churn run executed twice from the same
   workload seed must produce byte-identical event streams;
3. the shared plan cache under a repeated-query workload — repeats must
   never re-enter the optimizer;
4. weighted fairness — admitted shares for 1:3-weighted tenants.
"""

from __future__ import annotations

from repro.bench.report import Table, check_replay, join_sections, write_bench_rows
from repro.optimize.planning import Planning
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.runtime import BreakerConfig, Faults, Resilience
from repro.serve import (
    Arrival,
    ChurnWave,
    MediatorService,
    TenantSpec,
    WorkloadSpec,
    generate_arrivals,
    percentile,
    run_workload,
)
from repro.sources.generators import dmv_fig1

#: The paper's Fig. 1 fusion query, as every serving request's SQL.
DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)

#: The two tenants of every serving experiment, weighted 1:3.
TENANTS = (TenantSpec("bronze", weight=1.0), TenantSpec("gold", weight=3.0))


def dmv_arrivals(
    count: int, rate_qps: float, seed: int, deadline_s: float | None = None
) -> list[Arrival]:
    """Seeded Poisson arrivals of :data:`DMV_SQL` for :data:`TENANTS`."""
    return generate_arrivals(
        WorkloadSpec(
            queries=(DMV_SQL,),
            tenants=TENANTS,
            count=count,
            rate_qps=rate_qps,
            seed=seed,
            deadline_s=deadline_s,
        )
    )


def churn_wave(arrivals: list[Arrival], rate: float) -> ChurnWave:
    """R2 flaky at ``rate`` for arrivals in 30-70 % of their span."""
    span_s = arrivals[-1].at_s
    return ChurnWave(
        start_s=span_s * 0.3, end_s=span_s * 0.7, sources=("R2",), rate=rate
    )


def _service(
    federation,
    mode: str,
    *,
    pool_slots: int,
    queue_limit: int,
    seed: int,
    churn: ChurnWave | None = None,
    workers: int = 3,
) -> MediatorService:
    return MediatorService(
        federation,
        mode=mode,
        tenants=TENANTS,
        workers=workers,
        pool_slots=pool_slots,
        queue_limit=queue_limit,
        seed=seed,
        faults=Faults(churn=churn),
        resilience=Resilience(
            breaker=BreakerConfig.default() if churn is not None else None
        ),
    )


def run_serving(
    count: int = 40,
    rate_qps: float = 8.0,
    seed: int = 1800,
    pool_slots: int = 6,
    queue_limit: int = 32,
    churn_rate: float = 0.6,
    thread_count: int = 12,
    thread_workers: int = 3,
    bench_json: bool = True,
) -> str:
    """R8: qps and tail latency of the serving tier under source churn.

    One seeded Poisson workload (two tenants, 1:3 weights) runs three
    ways: deterministic calm, deterministic with a churn wave crossing
    the middle of the timeline, and on the thread-pool backend.  The
    churn run must overlap at least four queries in flight on one
    shared plan cache and health registry, and re-running it from the
    same seed must replay byte-identically.

    When ``bench_json`` is true the per-scenario rows are also written
    to ``BENCH_R8.json`` in the current directory for CI trend
    tracking.
    """
    federation, __ = dmv_fig1()
    arrivals = dmv_arrivals(count, rate_qps, seed)
    churn = churn_wave(arrivals, churn_rate)

    table = Table(
        "serving workloads (DMV federation, "
        f"{count} arrivals at {rate_qps:g} q/s offered, "
        f"{pool_slots} slots/source)",
        [
            "scenario",
            "mode",
            "done",
            "failed",
            "shed",
            "qps",
            "p50 s",
            "p95 s",
            "p99 s",
            "in-flight max",
            "cache hits",
        ],
    )
    rows: list[dict] = []
    reports = {}
    scenarios = [
        ("calm", "deterministic", None, arrivals),
        ("churn wave", "deterministic", churn, arrivals),
        ("calm", "threads", None, arrivals[:thread_count]),
    ]
    for name, mode, wave, load in scenarios:
        service = _service(
            federation,
            mode,
            pool_slots=pool_slots,
            queue_limit=queue_limit,
            seed=seed,
            churn=wave,
            workers=thread_workers,
        )
        try:
            report = run_workload(service, load)
        finally:
            if mode == "threads":
                service.close()
        reports[(name, mode)] = report
        shed = sum(report.rejected.values())
        table.add_row(
            [
                name,
                mode,
                report.completed,
                report.failed,
                shed,
                report.qps,
                report.p50_s,
                report.p95_s,
                report.p99_s,
                report.max_in_flight,
                report.plan_cache_hits,
            ]
        )
        rows.append(
            {
                "bench": "R8",
                "scenario": f"{name}, {mode}",
                "mode": mode,
                "submitted": report.submitted,
                "completed": report.completed,
                "failed": report.failed,
                "shed": shed,
                "duration_s": report.duration_s,
                "qps": report.qps,
                "p50_s": report.p50_s,
                "p95_s": report.p95_s,
                "p99_s": report.p99_s,
                "max_in_flight": report.max_in_flight,
                "plan_cache_hits": report.plan_cache_hits,
                "plan_cache_misses": report.plan_cache_misses,
            }
        )
    churn_report = reports[("churn wave", "deterministic")]
    if churn_report.max_in_flight < 4:
        raise AssertionError(
            f"churn workload peaked at {churn_report.max_in_flight} "
            "concurrent queries; the serving tier must overlap >= 4"
        )
    if churn_report.completed == 0:
        raise AssertionError("churn workload completed no queries")
    table.add_note(
        f"churn wave: R2 flaky at {churn_rate:g} for arrivals in "
        f"[{churn.start_s:.2f}s, {churn.end_s:.2f}s) with breakers on"
    )
    table.add_note(
        "acceptance: >= 4 queries in flight at once on one shared "
        "plan cache + health registry during the churn run"
    )

    def replay(replay_seed: int) -> tuple[str, tuple[int]]:
        service = _service(
            federation,
            "deterministic",
            pool_slots=pool_slots,
            queue_limit=queue_limit,
            seed=replay_seed,
            churn=churn,
        )
        run_workload(service, arrivals)
        stream = service.recorder.events.to_jsonl()
        return stream, (len(stream.splitlines()),)

    replay_table = check_replay(
        "deterministic replay (churn workload, virtual clock)",
        ["events"],
        "acceptance: same seed -> byte-identical event stream "
        "(faults, breakers, and churn included); new seed diverges",
        replay,
        seed,
    )

    cache_table = Table(
        "shared plan cache under a repeated-query workload",
        [
            "distinct queries",
            "queries served",
            "optimizer calls",
            "hits",
            "misses",
            "hit rate",
        ],
    )
    calls = {"n": 0}

    class _CountingOptimizer(SJAPlusOptimizer):
        def optimize(self, *args, **kwargs):
            calls["n"] += 1
            return super().optimize(*args, **kwargs)

    service = MediatorService(
        federation,
        mode="deterministic",
        tenants=TENANTS,
        pool_slots=pool_slots,
        queue_limit=queue_limit,
        seed=seed,
        planning=Planning(optimizer=_CountingOptimizer()),
    )
    repeat_report = run_workload(service, arrivals)
    cache = service.plan_cache
    distinct = len({arrival.sql for arrival in arrivals})
    if calls["n"] != distinct:
        raise AssertionError(
            f"{calls['n']} optimizer calls for {distinct} distinct "
            "queries — repeats must be served from the shared cache"
        )
    if cache.hits == 0:
        raise AssertionError(
            "repeated-query workload produced zero plan-cache hits"
        )
    cache_table.add_row(
        [
            distinct,
            repeat_report.completed,
            calls["n"],
            cache.hits,
            cache.misses,
            cache.hit_rate,
        ]
    )
    cache_table.add_note(
        "acceptance: optimizer calls == distinct queries; every "
        "repeat is a cache hit (zero re-optimizations)"
    )
    cache_table.add_note(cache.summary())

    fairness_table = Table(
        "weighted-fair admission (stride scheduling, 1:3 weights)",
        ["tenant", "weight", "admitted", "share", "p95 s"],
    )
    total_admitted = sum(churn_report.admitted_by_tenant.values()) or 1
    for tenant in TENANTS:
        admitted = churn_report.admitted_by_tenant.get(tenant.name, 0)
        latencies = churn_report.latency_by_tenant.get(tenant.name, [])
        fairness_table.add_row(
            [
                tenant.name,
                tenant.weight,
                admitted,
                f"{admitted / total_admitted:.0%}",
                percentile(latencies, 95),
            ]
        )
    fairness_table.add_note(
        "arrivals are drawn 1:3 by weight; under saturation the stride "
        "scheduler dispatches in the same ratio"
    )

    if bench_json:
        write_bench_rows("R8", rows)

    return join_sections(
        "=== R8: serving tier — many queries, one mediator ===",
        table.render(),
        replay_table.render(),
        cache_table.render(),
        fairness_table.render(),
    )
