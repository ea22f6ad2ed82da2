"""Property-based tests for causal tracing: replay determinism and
critical-path exactness over randomized workloads."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import analyze_log, validate_chrome_trace
from repro.serve import (
    MediatorService,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
)
from repro.sources.generators import dmv_fig1

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


def run_once(seed, count, rate_qps, pool_slots, fault_rate):
    from repro.runtime.faults import FaultProfile, Faults

    federation, __ = dmv_fig1()
    service = MediatorService(
        federation,
        mode="deterministic",
        pool_slots=pool_slots,
        seed=seed,
        faults=Faults(wire=FaultProfile.flaky(fault_rate)) if fault_rate else None,
    )
    spec = WorkloadSpec(
        queries=(DMV_SQL,), count=count, rate_qps=rate_qps, seed=seed
    )
    run_workload(service, generate_arrivals(spec))
    return service


@given(
    seed=st.integers(0, 10_000),
    count=st.integers(2, 6),
    rate_qps=st.floats(1.0, 20.0),
    pool_slots=st.integers(1, 4),
    fault_rate=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=10, deadline=None)
def test_same_seed_trace_export_is_byte_identical(
    seed, count, rate_qps, pool_slots, fault_rate
):
    first = run_once(seed, count, rate_qps, pool_slots, fault_rate)
    second = run_once(seed, count, rate_qps, pool_slots, fault_rate)
    exported = first.spans.to_chrome_json()
    assert exported == second.spans.to_chrome_json()
    assert validate_chrome_trace(first.spans.to_chrome_trace()) == len(
        first.spans
    )


@given(
    seed=st.integers(0, 10_000),
    count=st.integers(2, 8),
    pool_slots=st.integers(1, 4),
    fault_rate=st.sampled_from([0.0, 0.3, 0.6]),
)
@settings(max_examples=15, deadline=None)
def test_critical_path_always_tiles_the_latency(
    seed, count, pool_slots, fault_rate
):
    service = run_once(seed, count, 8.0, pool_slots, fault_rate)
    paths = analyze_log(service.spans)
    finished = [
        t for t in service.tickets if t.completed_s is not None
    ]
    assert finished
    for ticket in finished:
        path = paths[ticket.trace_id]
        assert abs(path.total_s - ticket.latency_s) <= 1e-9
        assert (
            abs(sum(path.by_phase().values()) - ticket.latency_s) <= 1e-9
        )
        # Slices partition [submit, complete]: contiguous, ordered.
        for left, right in zip(path.slices, path.slices[1:]):
            assert abs(left.end_s - right.start_s) <= 1e-12
