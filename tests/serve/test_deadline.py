"""End-to-end deadlines on the serving tier.

Covers the deadline primitives (:mod:`repro.serve.deadline`), shedding
at admission, queue-expiry and execution-cut partial answers, the
deadline counters and events, replay determinism, and the anytime
planning budget as seen from a ticket.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlineInfeasibleError
from repro.serve import (
    Deadline,
    MediatorService,
    QueueWaitEstimator,
    TenantSpec,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
    valid_deadline,
)
from repro.sources.generators import DMV_FIG1_ANSWER
from repro.optimize.planning import Planning

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)

TENANTS = [TenantSpec("bronze", weight=1.0), TenantSpec("gold", weight=3.0)]


def overload_arrivals(count=24, deadline_s=1.0, seed=2100):
    spec = WorkloadSpec(
        queries=(DMV_SQL,),
        tenants=tuple(TENANTS),
        count=count,
        rate_qps=50.0,
        seed=seed,
        deadline_s=deadline_s,
    )
    return generate_arrivals(spec)


def overloaded_service(federation, shed_policy, seed=2100, **kwargs):
    return MediatorService(
        federation,
        mode="deterministic",
        tenants=TENANTS,
        pool_slots=1,
        queue_limit=64,
        seed=seed,
        shed_policy=shed_policy,
        **kwargs,
    )


class TestDeadlinePrimitives:
    def test_valid_deadline(self):
        assert valid_deadline(1.0)
        assert valid_deadline(1e-6)
        assert not valid_deadline(0.0)
        assert not valid_deadline(-1.0)
        assert not valid_deadline(float("inf"))
        assert not valid_deadline(float("nan"))

    def test_deadline_expiry_boundary(self):
        # Reaching the deadline exactly is on time; only strictly
        # after it counts as expired.
        deadline = Deadline(submitted_s=1.0, budget_s=2.0)
        assert deadline.expires_at_s == 3.0
        assert deadline.remaining_s(1.0) == 2.0
        assert not deadline.expired(3.0)
        assert deadline.expired(3.1)

    def test_estimator_falls_back_tenant_to_global_to_zero(self):
        estimator = QueueWaitEstimator(width=2)
        assert estimator.mean_service_s("gold") == 0.0
        estimator.observe("bronze", 2.0)
        assert estimator.mean_service_s("gold") == 2.0  # global fallback
        estimator.observe("gold", 4.0)
        assert estimator.mean_service_s("gold") == 4.0

    def test_estimator_ignores_unusable_samples(self):
        estimator = QueueWaitEstimator()
        estimator.observe("t", float("nan"))
        estimator.observe("t", float("inf"))
        estimator.observe("t", -1.0)
        assert estimator.mean_service_s("t") == 0.0

    def test_estimator_prediction_scales_with_backlog_and_width(self):
        estimator = QueueWaitEstimator(width=2)
        estimator.observe("t", 1.0)
        # backlog/width queue drains plus the query's own service time.
        assert estimator.predict_completion_s("t", backlog=4) == pytest.approx(
            4 / 2 * 1.0 + 1.0
        )
        # A known plan makespan longer than the mean dominates the tail.
        assert estimator.predict_completion_s(
            "t", backlog=0, plan_makespan_s=3.0
        ) == pytest.approx(3.0)


class TestAdmissionShedding:
    def test_unusable_deadline_is_refused_outright(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        for bad in (0.0, -1.0, float("inf")):
            with pytest.raises(DeadlineInfeasibleError) as excinfo:
                service.submit(DMV_SQL, deadline_s=bad)
            assert excinfo.value.reason == "deadline"
        assert service.admission.rejected_total["deadline"] == 3
        sheds = service.recorder.events.of_type("shed")
        assert len(sheds) == 3
        assert {e.reason for e in sheds} == {"invalid"}

    def test_infeasible_deadline_is_shed_with_prediction(
        self, dmv_federation
    ):
        service = overloaded_service(dmv_federation, "deadline")
        report = run_workload(service, overload_arrivals())
        assert report.shed_deadline > 0
        assert report.deadline_misses == 0
        sheds = service.recorder.events.of_type("shed")
        assert sheds
        for event in sheds:
            assert event.reason == "infeasible"
            assert event.predicted > event.deadline

    def test_shed_policy_none_admits_everything(self, dmv_federation):
        service = overloaded_service(dmv_federation, "none")
        report = run_workload(service, overload_arrivals())
        assert report.shed_deadline == 0
        assert report.completed == report.submitted

    def test_generous_deadline_answers_in_full(self, dmv_federation):
        service = MediatorService(dmv_federation, mode="deterministic")
        ticket = service.submit(DMV_SQL, deadline_s=1e6)
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.items == DMV_FIG1_ANSWER
        assert not ticket.partial
        assert not ticket.deadline_missed
        assert service.deadline_met_count == 1
        assert service.deadline_miss_count == 0


class TestGracefulDegradation:
    def test_execution_cut_returns_partial_subset(self, dmv_federation):
        # A deadline shorter than the query's makespan: the engine cuts
        # execution at the budget and the ticket carries a partial
        # answer, never an exception and never extra tuples.
        baseline = MediatorService(dmv_federation, mode="deterministic")
        full = baseline.submit(DMV_SQL)
        baseline.run_until_idle()
        budget = full.latency_s / 2
        service = MediatorService(
            dmv_federation, mode="deterministic", shed_policy="none"
        )
        ticket = service.submit(DMV_SQL, deadline_s=budget)
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.partial
        assert ticket.incomplete_conditions
        assert set(ticket.items) <= set(full.items)
        assert not ticket.deadline_missed
        cuts = service.recorder.events.of_type("deadline")
        assert [e.stage for e in cuts] == ["execution"]

    def test_queue_expiry_completes_as_empty_partial(self, dmv_federation):
        # Under overload with shedding off, queries whose budget dies
        # in the queue still complete — empty, partial, counted missed.
        service = overloaded_service(dmv_federation, "none")
        report = run_workload(service, overload_arrivals())
        assert report.failed == 0
        missed = [
            t
            for t in service.tickets
            if t.status == "done" and t.deadline_missed
        ]
        assert missed
        for ticket in missed:
            assert ticket.partial
            assert ticket.items == frozenset()
        stages = {
            e.stage
            for e in service.recorder.events.of_type("deadline")
        }
        assert "queue" in stages

    def test_workload_report_deadline_columns(self, dmv_federation):
        service = overloaded_service(dmv_federation, "none")
        report = run_workload(service, overload_arrivals())
        assert report.deadline_misses > 0
        assert report.partial_answers > 0
        assert report.shed_queue == report.rejected.get("queue_full", 0)
        assert report.shed_quota == report.rejected.get("quota", 0)
        assert "deadlines:" in report.summary()


class TestReplayDeterminism:
    def test_same_seed_replays_byte_identically(self, dmv_federation):
        arrivals = overload_arrivals()
        streams = []
        for __ in range(2):
            service = overloaded_service(dmv_federation, "deadline")
            run_workload(service, arrivals)
            streams.append(service.recorder.events.to_jsonl())
        assert streams[0] == streams[1]
        assert '"type":"shed"' in streams[0]
        assert '"type":"deadline"' in streams[0]


class TestAnytimePlanning:
    def test_planning_budget_flag_reaches_the_ticket(self, dmv_federation):
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            planning=Planning(budget=1),
            plan_cache=False,
        )
        ticket = service.submit(DMV_SQL)
        service.run_until_idle()
        assert ticket.status == "done"
        assert ticket.planning_budget_exhausted
        assert ticket.items == DMV_FIG1_ANSWER

    def test_generous_planning_budget_not_flagged(self, dmv_federation):
        service = MediatorService(
            dmv_federation,
            mode="deterministic",
            planning=Planning(budget=10_000),
            plan_cache=False,
        )
        ticket = service.submit(DMV_SQL)
        service.run_until_idle()
        assert not ticket.planning_budget_exhausted


class TestThreadMode:
    def test_deadlines_in_thread_mode(self, dmv_federation):
        service = MediatorService(
            dmv_federation, mode="threads", workers=2, tenants=TENANTS
        )
        try:
            with pytest.raises(DeadlineInfeasibleError):
                service.submit(DMV_SQL, deadline_s=-1.0, tenant="gold")
            ticket = service.submit(DMV_SQL, deadline_s=1e6, tenant="gold")
            service.drain()
            assert ticket.status == "done"
            assert ticket.items == DMV_FIG1_ANSWER
            assert not ticket.deadline_missed
            assert service.deadline_met_count == 1
        finally:
            service.close()
