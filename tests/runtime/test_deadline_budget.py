"""Query deadline budgets on the concurrent engine.

The budget is the execution slice of an end-to-end deadline: when it
expires mid-run the engine must cancel in-flight work and return a
*partial* answer (a subset of the true one, never a superset) instead
of raising — and retry backoff and hedge timers must never be
scheduled past it.
"""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import OnExhaust, RetryPolicy
from repro.runtime.trace import OpStatus
from repro.sources.generators import DMV_FIG1_ANSWER, dmv_fig1


@pytest.fixture
def dmv():
    return dmv_fig1()


def filter_plan(federation, query):
    return build_filter_plan(query, federation.source_names)


class TestBudgetBasics:
    def test_generous_budget_changes_nothing(self, dmv):
        federation, query = dmv
        plan = filter_plan(federation, query)
        baseline = RuntimeEngine(federation).run(plan)
        budgeted = RuntimeEngine(federation).run(plan, budget_s=1e6)
        assert budgeted.items == baseline.items == DMV_FIG1_ANSWER
        assert budgeted.makespan_s == baseline.makespan_s
        assert not budgeted.deadline_expired
        assert budgeted.complete

    def test_deadline_exactly_at_completion_counts_met(self, dmv):
        # Finishing exactly on the deadline is on time, not a miss.
        federation, query = dmv
        plan = filter_plan(federation, query)
        makespan = RuntimeEngine(federation).run(plan).makespan_s
        result = RuntimeEngine(federation).run(plan, budget_s=makespan)
        assert result.items == DMV_FIG1_ANSWER
        assert not result.deadline_expired
        assert result.complete

    def test_zero_budget_degrades_without_wire_traffic(self, dmv):
        federation, query = dmv
        plan = filter_plan(federation, query)
        federation.reset_traffic()
        result = RuntimeEngine(federation).run(plan, budget_s=0.0)
        assert result.deadline_expired
        assert not result.complete
        assert result.items <= DMV_FIG1_ANSWER
        assert result.trace.total_messages == 0
        remote_statuses = {
            span.status for span in result.trace.remote_spans
        }
        assert remote_statuses == {OpStatus.DEADLINE}

    def test_mid_run_expiry_returns_partial_subset(self, dmv):
        federation, query = dmv
        plan = filter_plan(federation, query)
        full = RuntimeEngine(federation).run(plan)
        budget = full.makespan_s / 2
        result = RuntimeEngine(federation).run(plan, budget_s=budget)
        assert result.deadline_expired
        assert result.items <= full.items
        assert result.makespan_s <= budget
        # Nothing raises: the partial answer is a normal return value.
        assert result.trace.deadline_steps

    def test_non_finite_budget_rejected(self, dmv):
        federation, query = dmv
        plan = filter_plan(federation, query)
        with pytest.raises(CostModelError):
            RuntimeEngine(federation).run(plan, budget_s=float("nan"))


class TestBackoffClamp:
    def test_clamped_backoff_never_exceeds_remaining(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=1.0)
        full = policy.backoff_s(3)
        assert policy.clamped_backoff_s(3, None) == full
        assert policy.clamped_backoff_s(3, full + 1.0) == full
        # A sleep that would consume the whole remainder is refused —
        # the retry would only wake to be cancelled.
        assert policy.clamped_backoff_s(3, full / 2) is None
        assert policy.clamped_backoff_s(3, full) is None

    def test_clamped_backoff_refuses_spent_budget(self):
        policy = RetryPolicy(max_retries=5, backoff_base_s=1.0)
        assert policy.clamped_backoff_s(1, 0.0) is None
        assert policy.clamped_backoff_s(1, -1.0) is None

    def test_flaky_source_under_tight_budget_stays_inside(self, dmv):
        # The regression the clamp exists for: a flaky source whose
        # exponential backoff alone would overshoot the budget.  The
        # run must end by the deadline with a subset answer, and no
        # attempt may extend past it.
        federation, query = dmv
        plan = filter_plan(federation, query)
        budget = 3.0
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.8), seed=11),
            resilience=Resilience(
                policy=RetryPolicy(
                    max_retries=8,
                    backoff_base_s=4.0,
                    on_exhaust=OnExhaust.SKIP,
                ),
            ),
        )
        result = engine.run(plan, budget_s=budget)
        assert result.makespan_s <= budget
        assert result.items <= DMV_FIG1_ANSWER
        for span in result.trace.remote_spans:
            assert span.finished_s <= budget + 1e-12


class TestHedgeClamp:
    def test_expiry_mid_hedge_cancels_both_runners(self, dmv):
        # A hedge in flight when the budget expires: primary and
        # substitute are both cancelled, neither extends past the
        # deadline, and the answer stays a subset.
        federation, query = dmv
        plan = filter_plan(federation, query)
        profile = FaultProfile(slowdown_rate=1.0, slowdown_factor=8.0)
        full = RuntimeEngine(
            federation,
            faults=FaultInjector(profile, seed=3),
            resilience=Resilience(hedge_delay_s=0.5),
        ).run(plan)
        budget = full.makespan_s / 2
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(profile, seed=3),
            resilience=Resilience(hedge_delay_s=0.5),
        )
        result = engine.run(plan, budget_s=budget)
        assert result.deadline_expired
        assert result.items <= DMV_FIG1_ANSWER
        assert result.makespan_s <= budget
        for span in result.trace.remote_spans:
            assert span.finished_s <= budget + 1e-12
