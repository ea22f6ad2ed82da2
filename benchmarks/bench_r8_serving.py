"""R8 — the serving tier: qps and tail latency under source churn."""

from __future__ import annotations

import pytest

from repro.bench.serving import DMV_SQL, run_serving
from repro.runtime import BreakerConfig, Faults, Resilience
from repro.serve import (
    ChurnWave,
    FairScheduler,
    MediatorService,
    TenantSpec,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
)

TENANTS = [TenantSpec("bronze", weight=1.0), TenantSpec("gold", weight=3.0)]


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        queries=(DMV_SQL,),
        tenants=tuple(TENANTS),
        count=24,
        rate_qps=8.0,
        seed=77,
    )
    return generate_arrivals(spec)


def serve_deterministic(federation, arrivals, churn=None):
    service = MediatorService(
        federation,
        mode="deterministic",
        tenants=TENANTS,
        pool_slots=6,
        queue_limit=32,
        seed=77,
        faults=Faults(churn=churn),
        resilience=Resilience(
            breaker=BreakerConfig.default() if churn is not None else None
        ),
    )
    return run_workload(service, arrivals)


def test_deterministic_workload_calm(benchmark, dmv, workload):
    # The serving loop itself: admission, stride scheduling, pool
    # acquisition, and virtual-clock completion for a full workload.
    federation, __ = dmv
    report = benchmark(serve_deterministic, federation, workload)
    assert report.completed == len(workload)
    assert report.max_in_flight >= 4
    assert report.qps > 0


def test_deterministic_workload_churn(benchmark, dmv, workload):
    # Same workload with a churn wave crossing the middle: everything
    # still completes, the tail absorbs the retries and breaker holds.
    federation, __ = dmv
    churn = ChurnWave(1.0, 2.0, sources=("R2",), rate=0.6)
    report = benchmark(serve_deterministic, federation, workload, churn)
    assert report.completed + report.failed == len(workload)
    assert report.p99_s >= report.p50_s


def test_thread_pool_workload(benchmark, dmv, workload):
    # The thread backend measured on the wall clock: N workers sharing
    # one plan cache and health registry.
    federation, __ = dmv

    def serve():
        service = MediatorService(
            federation,
            mode="threads",
            tenants=TENANTS,
            workers=3,
            pool_slots=6,
            queue_limit=32,
        )
        try:
            return run_workload(service, workload[:8])
        finally:
            service.close()

    report = benchmark.pedantic(serve, rounds=3, iterations=1)
    assert report.completed == 8
    assert report.failed == 0


def test_stride_scheduler_throughput(benchmark):
    # The scheduler is on every dispatch path; a push+pop cycle must
    # stay trivially cheap next to a single query's makespan.
    sched = FairScheduler(TENANTS)

    def cycle():
        for i in range(100):
            sched.push("bronze", i)
            sched.push("gold", i)
        while sched.pop() is not None:
            pass

    benchmark(cycle)
    assert len(sched) == 0


def test_r8_report(benchmark, report_runner):
    report = report_runner(benchmark, "R8")
    assert "many queries, one mediator" in report
    assert "identical" in report
    assert "zero re-optimizations" in report


def test_r8_smoke_params():
    # The CI smoke job runs the workload at tiny parameters; keep that
    # entry point working without touching BENCH_R8.json.
    report = run_serving(
        count=12,
        rate_qps=12.0,
        thread_count=4,
        bench_json=False,
    )
    assert "serving workloads" in report
    assert "byte-identical" in report
