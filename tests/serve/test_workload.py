"""Tests for workload generation, churn waves, and the load harness."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.serve import (
    ChurnWave,
    MediatorService,
    TenantSpec,
    WorkloadSpec,
    generate_arrivals,
    percentile,
    run_workload,
)

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


class TestGenerateArrivals:
    def spec(self, **kwargs):
        defaults = dict(
            queries=(DMV_SQL,),
            tenants=(TenantSpec("a", weight=1.0), TenantSpec("b", weight=3.0)),
            count=40,
            rate_qps=4.0,
            seed=7,
        )
        defaults.update(kwargs)
        return WorkloadSpec(**defaults)

    def test_deterministic_for_same_seed(self):
        assert generate_arrivals(self.spec()) == generate_arrivals(self.spec())

    def test_seed_changes_arrivals(self):
        assert generate_arrivals(self.spec()) != generate_arrivals(
            self.spec(seed=8)
        )

    def test_times_strictly_increase(self):
        arrivals = generate_arrivals(self.spec())
        times = [a.at_s for a in arrivals]
        assert times == sorted(times)
        assert times[0] > 0

    def test_tenants_drawn_by_weight(self):
        arrivals = generate_arrivals(self.spec(count=400))
        b_share = sum(1 for a in arrivals if a.tenant == "b") / 400
        assert 0.6 < b_share < 0.9  # expected 0.75

    def test_spec_validation(self):
        with pytest.raises(CostModelError):
            WorkloadSpec(queries=())
        with pytest.raises(CostModelError):
            WorkloadSpec(queries=(DMV_SQL,), count=0)
        with pytest.raises(CostModelError):
            WorkloadSpec(queries=(DMV_SQL,), rate_qps=0.0)


class TestChurnWave:
    def test_covers_half_open_window(self):
        wave = ChurnWave(1.0, 2.0, sources=("R1",))
        assert not wave.covers(0.999)
        assert wave.covers(1.0)
        assert wave.covers(1.999)
        assert not wave.covers(2.0)

    def test_profile_is_flaky(self):
        wave = ChurnWave(0.0, 1.0, sources=("R1",), rate=0.4)
        assert wave.profile().transient_rate == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(CostModelError):
            ChurnWave(2.0, 1.0, sources=("R1",))
        with pytest.raises(CostModelError):
            ChurnWave(0.0, 1.0, sources=())


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_single_value(self):
        assert percentile([3.5], 99) == 3.5

    def test_out_of_range_rejected(self):
        with pytest.raises(CostModelError):
            percentile([1.0], 101)

    @pytest.mark.parametrize("q", [-1, 101, 150])
    def test_out_of_range_rejected_without_values(self, q):
        with pytest.raises(CostModelError):
            percentile([], q)


class TestRunWorkload:
    def test_deterministic_end_to_end(self, dmv_federation):
        tenants = (TenantSpec("a", weight=1.0), TenantSpec("b", weight=3.0))
        spec = WorkloadSpec(
            queries=(DMV_SQL,), tenants=tenants, count=15,
            rate_qps=6.0, seed=11,
        )
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            tenants=list(tenants),
            seed=spec.seed,
            pool_slots=2,
            queue_limit=8,
        )
        report = run_workload(service, generate_arrivals(spec))
        shed = sum(report.rejected.values())
        assert report.submitted == 15
        assert report.completed + report.failed + shed == 15
        assert report.completed > 0
        assert report.qps > 0
        assert report.p50_s <= report.p95_s <= report.p99_s
        assert report.plan_cache_hits + report.plan_cache_misses >= (
            report.completed
        )
        assert "q/s" in report.summary()

    def test_thread_mode_end_to_end(self, dmv_federation):
        spec = WorkloadSpec(queries=(DMV_SQL,), count=6, rate_qps=50.0, seed=2)
        service = MediatorService(
            dmv_federation, mode="threads", workers=2, queue_limit=32
        )
        try:
            report = run_workload(service, generate_arrivals(spec))
        finally:
            service.close()
        assert report.mode == "threads"
        assert report.completed + sum(report.rejected.values()) == 6
        assert report.failed == 0
