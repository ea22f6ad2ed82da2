"""Integration tests for MediatorService in both execution modes."""

from __future__ import annotations

import inspect

import pytest

from repro.errors import (
    QueueFullError,
    QuotaExceededError,
    ServiceClosedError,
    ServiceError,
    UnknownTenantError,
)
from repro.obs.events import EventLog
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.runtime.engine import Resilience
from repro.runtime.faults import DataFaultProfile, FaultProfile, Faults
from repro.runtime.health import BreakerConfig
from repro.serve import (
    ChurnWave,
    MediatorService,
    QueryTicket,
    TenantSpec,
    derive_seed,
)
from repro.sources.generators import DMV_FIG1_ANSWER, dmv_fig1
from repro.sources.observed import ObservedStatistics
from repro.optimize.planning import Planning

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


class CountingOptimizer(SJAPlusOptimizer):
    """SJA+ that counts how often the search actually runs."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def optimize(self, *args, **kwargs):
        self.calls += 1
        return super().optimize(*args, **kwargs)


class TestDeterministicMode:
    def test_single_query_answers_correctly(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        ticket = service.submit(DMV_SQL)
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.items == DMV_FIG1_ANSWER
        assert ticket.latency_s > 0

    def test_concurrent_in_flight_queries(self, dmv_federation):
        """Four queries submitted together overlap on the virtual clock."""
        service = MediatorService(
            dmv_federation, mode="deterministic", pool_slots=4, queue_limit=8
        )
        tickets = [service.submit(DMV_SQL, at_s=0.0) for __ in range(4)]
        service.run_until_idle()
        assert all(t.status == "done" for t in tickets)
        assert service.max_in_flight >= 4

    def test_shared_plan_cache_skips_optimizer(self, dmv_federation):
        """Repeated queries hit the shared cache: one optimization total."""
        optimizer = CountingOptimizer()
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            planning=Planning(optimizer=optimizer),
        )
        for i in range(5):
            service.submit(DMV_SQL, at_s=float(i))
        service.run_until_idle()
        assert optimizer.calls == 1
        assert service.plan_cache.hits == 4
        assert service.plan_cache.misses == 1

    def test_robust_planner_credits_the_shared_registrys_breakers(self):
        # Breakers live in the service's registry, not in a keyword of
        # the worker's mediator: the robust planner must read failover
        # capacity off the engine, as a directly built mediator does.
        from repro.mediator.session import Mediator
        from repro.optimize.robust import RobustOptimizer
        from repro.sources.generators import replicate_federation

        federation = replicate_federation(dmv_fig1()[0], 2)
        resilience = Resilience(breaker=BreakerConfig.default())
        service = MediatorService(
            federation, resilience=resilience, planning=Planning(optimizer="robust")
        )
        direct = Mediator(
            federation,
            backend="runtime",
            resilience=resilience,
            planning=Planning(optimizer="robust"),
        )
        for mediator in (service._det_mediator, direct):
            assert isinstance(mediator.optimizer, RobustOptimizer)
            assert mediator.runtime.resilient
            assert mediator.optimizer.failover is True
        plain = MediatorService(federation, planning=Planning(optimizer="robust"))
        assert plain._det_mediator.optimizer.failover is False

    def test_shared_health_registry_accumulates_across_queries(
        self, dmv_federation
    ):
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            faults=Faults(wire={"R2": FaultProfile.flaky(1.0)}),
            resilience=Resilience(breaker=BreakerConfig.default()),
            seed=3,
        )
        assert service._det_mediator.runtime.health is service.health
        for i in range(5):
            service.submit(DMV_SQL, at_s=float(i * 100))
        service.run_until_idle()
        snap = service.health.snapshot()
        # Evidence from several queries accumulated in one registry,
        # and the always-failing source tripped its shared breaker.
        assert snap["R2"]["failures"] >= 3
        assert snap["R2"]["times_opened"] >= 1

    def test_backpressure_rejects_instead_of_deadlocking(
        self, dmv_federation
    ):
        service = MediatorService(
            dmv_federation, mode="deterministic",
            pool_slots=1, queue_limit=2,
        )
        admitted = [service.submit(DMV_SQL, at_s=0.0) for __ in range(3)]
        with pytest.raises(QueueFullError):
            service.submit(DMV_SQL, at_s=0.0)
        service.run_until_idle()
        assert [t.status for t in admitted] == ["done"] * 3
        assert service.admission.rejected_total == {"queue_full": 1}

    def test_quota_enforced_on_outstanding_queries(self, dmv_federation):
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            tenants=[TenantSpec("small", quota=1), TenantSpec("big")],
            pool_slots=8,
            queue_limit=8,
        )
        service.submit(DMV_SQL, tenant="small", at_s=0.0)
        with pytest.raises(QuotaExceededError):
            service.submit(DMV_SQL, tenant="small", at_s=0.0)
        service.submit(DMV_SQL, tenant="big", at_s=0.0)
        service.run_until_idle()
        service.submit(DMV_SQL, tenant="small")  # quota released
        service.run_until_idle()
        assert service.completed_count == 3

    def test_weighted_fairness_under_saturation(self, dmv_federation):
        """1:3 weights dispatch ~1:3 while the queue stays saturated."""
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            tenants=[
                TenantSpec("light", weight=1.0),
                TenantSpec("heavy", weight=3.0),
            ],
            pool_slots=1,  # serialize dispatch so order is observable
            queue_limit=32,
        )
        for __ in range(4):
            service.submit(DMV_SQL, tenant="light", at_s=0.0)
        for __ in range(12):
            service.submit(DMV_SQL, tenant="heavy", at_s=0.0)
        service.run_until_idle()
        order = [
            t.tenant
            for t in sorted(service.tickets, key=lambda t: t.dispatched_s)
        ]
        window = order[:12]
        # Expected ratio 3 heavy : 1 light, with slack for startup.
        assert 7 <= window.count("heavy") <= 10
        assert 2 <= window.count("light") <= 5

    def test_closed_service_rejects_submissions(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(DMV_SQL)

    def test_unknown_tenant_rejected(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        with pytest.raises(UnknownTenantError):
            service.submit(DMV_SQL, tenant="nope")

    def test_past_arrival_rejected(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        service.submit(DMV_SQL, at_s=5.0)
        with pytest.raises(ServiceError):
            service.submit(DMV_SQL, at_s=1.0)

    def test_mined_statistics_learn_across_queries(self, dmv_federation):
        statistics = ObservedStatistics()
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            statistics=statistics,
        )
        before = statistics.fingerprint()
        service.submit(DMV_SQL, at_s=0.0)
        service.run_until_idle()
        assert statistics.observations > 0
        assert statistics.fingerprint() != before

    def test_observed_statistics_are_mined_unasked(self, dmv_federation):
        # Mining follows from the provider: one with a callable
        # ``observe`` is fed every completed run, with no switch.
        assert "mine_statistics" not in inspect.signature(MediatorService).parameters
        statistics = ObservedStatistics()
        service = MediatorService(dmv_federation, statistics=statistics)
        service.submit(DMV_SQL)
        service.run_until_idle()
        assert statistics.observations == 3  # R1, R2 and R3's loads

    def test_event_stream_round_trips_through_schema(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        service.submit(DMV_SQL)
        service.run_until_idle()
        text = service.recorder.events.to_jsonl()
        parsed = EventLog.from_jsonl(text)  # validates every record
        assert parsed.to_jsonl() == text
        phases = [e["phase"] for e in parsed.of_type("serve")]
        assert phases == ["admitted", "dispatched", "completed"]


def _run_replay(federation, seed):
    service = MediatorService(
        federation,
        mode="deterministic",
        seed=seed,
        pool_slots=2,
        queue_limit=8,
        tenants=[TenantSpec("a", weight=1.0), TenantSpec("b", weight=3.0)],
        faults=Faults(
            wire=FaultProfile.flaky(0.2),
            churn=ChurnWave(0.5, 2.0, sources=("R2",), rate=0.6),
        ),
        resilience=Resilience(breaker=BreakerConfig.default()),
    )
    import random

    rng = random.Random(seed)
    clock = 0.0
    rejections = 0
    for __ in range(10):
        clock += rng.expovariate(4.0)
        tenant = "a" if rng.random() < 0.25 else "b"
        try:
            service.submit(DMV_SQL, tenant=tenant, at_s=clock)
        except QueueFullError:
            rejections += 1
    service.run_until_idle()
    answers = [
        (t.seq, t.status, tuple(sorted(t.items or ())))
        for t in service.tickets
    ]
    return service.recorder.events.to_jsonl(), answers, rejections


class TestDeterministicReplay:
    def test_same_seed_replays_byte_identically(self, dmv_federation):
        events1, answers1, rej1 = _run_replay(dmv_federation, seed=42)
        events2, answers2, rej2 = _run_replay(dmv_federation, seed=42)
        assert events1 == events2
        assert answers1 == answers2
        assert rej1 == rej2

    def test_different_seed_diverges(self, dmv_federation):
        events1, __, __ = _run_replay(dmv_federation, seed=42)
        events2, __, __ = _run_replay(dmv_federation, seed=43)
        assert events1 != events2


class TestThreadMode:
    def test_concurrent_execution_end_to_end(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", workers=3,
            pool_slots=4, queue_limit=32,
        )
        try:
            tickets = [service.submit(DMV_SQL) for __ in range(9)]
            service.drain(timeout_s=60.0)
        finally:
            service.close()
        assert all(t.status == "done" for t in tickets)
        assert all(t.items == DMV_FIG1_ANSWER for t in tickets)
        # Shared cache: at most one optimization per distinct worker
        # racing the first miss, then hits for everything else.
        assert service.plan_cache.hits >= 6

    def test_thread_mode_serving_metrics(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", workers=2, queue_limit=32
        )
        try:
            for __ in range(4):
                service.submit(DMV_SQL)
            service.drain(timeout_s=60.0)
        finally:
            service.close()
        completed = service.metrics.counter(
            "repro_serve_completed_total", tenant="default", outcome="ok"
        )
        assert completed.value == 4.0
        exported = service.metrics.to_json()
        assert any("repro_serve_latency_s" in key for key in exported)

    def test_thread_mode_backpressure(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", workers=1,
            pool_slots=1, queue_limit=1,
        )
        try:
            service.submit(DMV_SQL)
            saw_rejection = False
            for __ in range(50):
                try:
                    service.submit(DMV_SQL)
                except QueueFullError:
                    saw_rejection = True
                    break
            service.drain(timeout_s=60.0)
        finally:
            service.close()
        assert saw_rejection
        assert service.failed_count == 0

    def test_every_worker_shares_the_one_resilience_value(self, dmv_federation):
        # ... and the one Planning value, from which each worker's
        # mediator builds its own optimizer with a private budget.
        class Spy(MediatorService):
            def _make_mediator(self, recorder):
                mediator = super()._make_mediator(recorder)
                made.append(mediator)
                return mediator

        made: list = []
        resilience = Resilience(
            hedge_delay_s=2.0, breaker=BreakerConfig.default()
        )
        planning = Planning(budget=64)
        service = Spy(
            dmv_federation, mode="threads", workers=3, resilience=resilience,
            planning=planning,
        )
        try:
            tickets = [service.submit(DMV_SQL) for __ in range(6)]
            service.drain(timeout_s=60.0)
        finally:
            service.close()
        assert all(t.items == DMV_FIG1_ANSWER for t in tickets)
        assert service.resilience is resilience and len(made) == 3
        assert service.planning is planning
        for mediator in made:
            assert mediator.runtime.resilience is resilience
            assert mediator.runtime.health is service.health
            assert mediator.planning is planning
            assert mediator.planning_budget is not None
        assert len({id(m.optimizer) for m in made}) == 3
        assert len({id(m.planning_budget) for m in made}) == 3

    def test_drain_is_thread_mode_only(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        with pytest.raises(ServiceError):
            service.drain()

    def test_at_s_is_deterministic_mode_only(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="threads", workers=1)
        try:
            with pytest.raises(ServiceError):
                service.submit(DMV_SQL, at_s=1.0)
        finally:
            service.close()

    def test_unknown_mode_rejected(self, dmv_federation):
        with pytest.raises(ServiceError):
            MediatorService(dmv_federation, mode="asyncio")


class TestUntrustedServing:
    """Data faults + verification + quarantine through the service."""

    def make_service(self, resilience=Resilience(load_balance=True), wire=None):
        from repro.optimize import FilterOptimizer
        from repro.sources.generators import replicate_federation

        federation, __ = dmv_fig1()
        federation = replicate_federation(federation, 2)
        liar = DataFaultProfile(stale_rate=0.6, corrupt_rate=1.0)
        service = MediatorService(
            federation,
            mode="deterministic",
            faults=Faults(wire=wire, data={f"R{i}~1": liar for i in (1, 2, 3)}),
            planning=Planning(optimizer=FilterOptimizer()),
            resilience=resilience,
        )
        return service

    def test_verified_service_quarantines_liars_for_all_queries(self):
        service = self.make_service(
            Resilience(
                quarantine=True,
                load_balance=True,
                verify="vote",
            )
        )
        tickets = []
        for step in range(8):
            tickets.append(service.submit(DMV_SQL, at_s=float(step)))
            service.run_until_idle()
        assert all(t.status == "done" for t in tickets)
        quarantined = set(service.health.quarantined_names())
        assert quarantined
        assert all(name.endswith("~1") for name in quarantined)
        # Post-quarantine queries come back complete and exact.
        assert tickets[-1].items == DMV_FIG1_ANSWER

    def test_unverified_service_leaves_no_quality_evidence(self):
        service = self.make_service()
        for step in range(4):
            service.submit(DMV_SQL, at_s=float(step))
        service.run_until_idle()
        assert service.health.quarantined_names() == ()
        assert service.health.quality_of("R1~1").answers == 0

    def test_per_source_data_faults_merge_into_wire_profiles(self):
        service = self.make_service(wire={"R1~1": FaultProfile.flaky(0.2)})
        injector = service.faults.injector(derive_seed(service.seed, 0))
        tampered = injector.profile_for("R1~1")
        assert tampered.transient_rate == 0.2
        assert isinstance(tampered.data, DataFaultProfile)
        assert injector.profile_for("R2~1").data is not None
        assert injector.profile_for("R1").data is None


class TestPlanningWallClock:
    """Satellite: thread mode arms wall clocks from measured latency."""

    def arm(self, service, deadline_s=None):
        from repro.obs import Recorder

        mediator = service._make_mediator(Recorder())
        ticket = QueryTicket(
            seq=0, tenant="default", query=DMV_SQL,
            submitted_s=0.0, deadline_s=deadline_s,
        )
        service._arm_planning(mediator, ticket, now_s=0.0)
        return mediator.planning_budget

    def test_thread_mode_arms_wall_clock_from_ewma(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", planning=Planning(budget=64)
        )
        try:
            service._observe_plan_latency(0.05)
            budget = self.arm(service)
            assert budget.wall_clock_s is not None
            # Full pressure (empty queue): twice the observed EWMA.
            assert budget.wall_clock_s == pytest.approx(0.1)
        finally:
            service.close()

    def test_wall_clock_floor_survives_cache_hits(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", planning=Planning(budget=64)
        )
        try:
            for __ in range(20):
                service._observe_plan_latency(1e-6)
            budget = self.arm(service)
            assert budget.wall_clock_s == 0.01
        finally:
            service.close()

    def test_unmeasured_thread_mode_arms_subsets_only(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", planning=Planning(budget=64)
        )
        try:
            budget = self.arm(service)
            assert budget.max_subsets == 64
            assert budget.wall_clock_s is None
        finally:
            service.close()

    def test_deterministic_mode_never_arms_wall_clock(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="deterministic", planning=Planning(budget=64)
        )
        service._observe_plan_latency(0.05)
        budget = self.arm(service)
        assert budget.max_subsets == 64
        assert budget.wall_clock_s is None

    def test_ewma_tracks_observed_latencies(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", planning=Planning(budget=64)
        )
        try:
            service._observe_plan_latency(0.10)
            service._observe_plan_latency(0.20)
            # alpha = 0.3: 0.7 * 0.10 + 0.3 * 0.20
            assert service._plan_latency_ewma == pytest.approx(0.13)
        finally:
            service.close()

    def test_thread_mode_measures_latency_end_to_end(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", planning=Planning(budget=64), workers=2
        )
        try:
            ticket = service.submit(DMV_SQL)
            service.drain(timeout_s=30.0)
            assert ticket.items == DMV_FIG1_ANSWER
            assert service._plan_latency_ewma is not None
            assert service._plan_latency_ewma > 0.0
        finally:
            service.close()
