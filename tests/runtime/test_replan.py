"""Unit tests for in-flight re-planning around dead sources: the
mediator's runtime rounds, ``Mediator(backend="runtime", replan=N)``."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.mediator.session import Mediator
from repro.runtime.engine import Resilience
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    dmv_fig1,
    replicate_federation,
)


def dead(*names: str) -> FaultInjector:
    return FaultInjector(
        {name: FaultProfile.flaky(1.0) for name in names}, seed=0
    )


NO_RETRY = Resilience(policy=RetryPolicy.no_retry())


def replanning(federation, faults=None, resilience=None, replan=2) -> Mediator:
    return Mediator(
        federation,
        backend="runtime",
        faults=faults,
        resilience=resilience,
        replan=replan,
    )


@pytest.fixture
def replicated():
    federation, query = dmv_fig1()
    return replicate_federation(federation, 2), query


class TestHappyPath:
    def test_zero_faults_single_round(self, replicated):
        federation, query = replicated
        answer = replanning(federation).answer(query)
        assert answer.items == DMV_FIG1_ANSWER
        assert answer.execution.replans == 0
        assert answer.masked == ()
        assert answer.execution.complete
        assert answer.planned == (("R1", "R2", "R3"),)

    def test_plans_over_representatives_by_default(self, replicated):
        federation, query = replicated
        answer = replanning(federation).answer(query)
        planned = {s.source for s in answer.execution.trace.remote_spans}
        assert planned == {"R1", "R2", "R3"}  # mirrors held in reserve


class TestReplanRounds:
    def test_dead_source_masked_and_mirror_swapped_in(self, replicated):
        federation, query = replicated
        answer = replanning(
            federation, faults=dead("R1"), resilience=NO_RETRY
        ).answer(query)
        assert answer.items == DMV_FIG1_ANSWER
        assert answer.execution.complete
        assert answer.execution.replans >= 1
        assert "R1" in answer.masked
        final = answer.planned[-1]
        assert "R1" not in final
        assert "R1~1" in final

    def test_round_zero_answer_is_preserved(self, replicated):
        federation, query = replicated
        faults = dead("R1")
        first = replanning(
            federation, faults=faults, resilience=NO_RETRY, replan=0
        ).answer(query)
        federation.reset_traffic()
        answer = replanning(
            federation, faults=dead("R1"), resilience=NO_RETRY
        ).answer(query)
        assert answer.execution.traces[0].spans == first.execution.trace.spans
        assert first.items <= answer.items

    def test_both_mirrors_dead_stays_degraded_but_sound(self, replicated):
        federation, query = replicated
        answer = replanning(
            federation, faults=dead("R1", "R1~1"), resilience=NO_RETRY
        ).answer(query)
        # The final round plans around the whole R1 family and finishes
        # clean, so ``complete`` is True — but ``masked`` records the
        # coverage loss and the answer is a strict subset, never more.
        assert answer.items < DMV_FIG1_ANSWER
        assert {"R1", "R1~1"} <= set(answer.masked)
        assert answer.loss_expected
        assert "masked: R1, R1~1" in answer.replanning()

    def test_max_replans_bounds_rounds(self, replicated):
        federation, query = replicated
        answer = replanning(
            federation,
            faults=dead("R1", "R1~1", "R2", "R2~1", "R3", "R3~1"),
            resilience=NO_RETRY,
            replan=1,
        ).answer(query)
        assert len(answer.execution.traces) <= 2
        assert answer.items == frozenset()

    def test_max_replans_zero_is_plain_execution(self, replicated):
        federation, query = replicated
        answer = replanning(
            federation, faults=dead("R1"), resilience=NO_RETRY, replan=0
        ).answer(query)
        assert len(answer.execution.traces) == 1
        assert answer.execution.replans == 0
        assert not answer.execution.complete
        assert answer.planned == () and answer.masked == ()

    def test_dead_sources_lists_planned_names(self, replicated):
        # Round 0 loses R2's operations; exactly that planned source is
        # masked, and its mirror takes its place.
        federation, query = replicated
        answer = replanning(
            federation, faults=dead("R2"), resilience=NO_RETRY, replan=1
        ).answer(query)
        assert answer.masked == ("R2",)
        assert answer.planned == (("R1", "R2", "R3"), ("R1", "R3", "R2~1"))


class TestAccounting:
    def test_makespan_and_cost_sum_over_rounds(self, replicated):
        federation, query = replicated
        answer = replanning(
            federation, faults=dead("R1"), resilience=NO_RETRY
        ).answer(query)
        execution = answer.execution
        assert execution.makespan_s == pytest.approx(
            sum(trace.makespan_s for trace in execution.traces)
        )
        assert execution.total_cost == pytest.approx(
            sum(trace.total_cost for trace in execution.traces)
        )
        assert "masked: R1" in answer.replanning()

    def test_breaker_state_survives_across_rounds(self, replicated):
        federation, query = replicated
        from repro.runtime.health import BreakerConfig, BreakerState

        mediator = replanning(
            federation,
            faults=dead("R1"),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=1e6),
            ),
        )
        answer = mediator.answer(query)
        assert answer.items == DMV_FIG1_ANSWER
        assert mediator.runtime.health.state_of("R1") is BreakerState.OPEN


class TestValidation:
    def test_negative_max_replans_rejected(self, replicated):
        federation, __ = replicated
        with pytest.raises(CostModelError):
            replanning(federation, replan=-1)
