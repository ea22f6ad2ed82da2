"""Unit tests for in-flight re-planning around dead sources."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.mediator.session import Mediator
from repro.runtime.engine import Resilience
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.runtime.replan import ResilientExecutor
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


def resilient_executor(
    federation, faults=None, resilience=None, max_replans=2
) -> ResilientExecutor:
    """The re-planning loop over a mediator's own engine and planner."""
    mediator = Mediator(
        federation, backend="runtime", faults=faults, resilience=resilience
    )
    return ResilientExecutor(mediator.runtime, mediator._optimize, max_replans)


@pytest.fixture
def replicated():
    federation, query = dmv_fig1()
    return replicate_federation(federation, 2), query


class TestHappyPath:
    def test_zero_faults_single_round(self, replicated):
        federation, query = replicated
        executor = resilient_executor(federation)
        result = executor.run(query)
        assert result.items == DMV_FIG1_ANSWER
        assert result.replans == 0
        assert result.masked == ()
        assert result.complete
        assert result.rounds[0].sources == ("R1", "R2", "R3")

    def test_plans_over_representatives_by_default(self, replicated):
        federation, query = replicated
        result = resilient_executor(federation).run(query)
        planned = {
            s.source for s in result.rounds[0].result.trace.remote_spans
        }
        assert planned == {"R1", "R2", "R3"}  # mirrors held in reserve


class TestReplanRounds:
    def test_dead_source_masked_and_mirror_swapped_in(self, replicated):
        federation, query = replicated
        executor = resilient_executor(
            federation,
            faults=dead("R1"),
            resilience=NO_RETRY,
        )
        result = executor.run(query)
        assert result.items == DMV_FIG1_ANSWER
        assert result.complete
        assert result.replans >= 1
        assert "R1" in result.masked
        final = result.rounds[-1]
        assert "R1" not in final.sources
        assert "R1~1" in final.sources

    def test_round_zero_answer_is_preserved(self, replicated):
        federation, query = replicated
        executor = resilient_executor(
            federation,
            faults=dead("R1"),
            resilience=NO_RETRY,
        )
        result = executor.run(query)
        assert result.rounds[0].result.items <= result.items

    def test_both_mirrors_dead_stays_degraded_but_sound(self, replicated):
        federation, query = replicated
        executor = resilient_executor(
            federation,
            faults=dead("R1", "R1~1"),
            resilience=NO_RETRY,
        )
        result = executor.run(query)
        # The final round plans around the whole R1 family and finishes
        # clean, so ``complete`` is True — but ``masked`` records the
        # coverage loss and the answer is a strict subset, never more.
        assert result.items < DMV_FIG1_ANSWER
        assert {"R1", "R1~1"} <= set(result.masked)
        assert "masked: R1, R1~1" in result.summary()

    def test_max_replans_bounds_rounds(self, replicated):
        federation, query = replicated
        executor = resilient_executor(
            federation,
            faults=dead("R1", "R1~1", "R2", "R2~1", "R3", "R3~1"),
            resilience=NO_RETRY,
            max_replans=1,
        )
        result = executor.run(query)
        assert len(result.rounds) <= 2
        assert result.items == frozenset()

    def test_max_replans_zero_is_plain_execution(self, replicated):
        federation, query = replicated
        executor = resilient_executor(
            federation,
            faults=dead("R1"),
            resilience=NO_RETRY,
            max_replans=0,
        )
        result = executor.run(query)
        assert len(result.rounds) == 1
        assert result.replans == 0
        assert not result.complete

    def test_dead_sources_lists_planned_names(self, replicated):
        federation, query = replicated
        executor = resilient_executor(
            federation,
            faults=dead("R2"),
            resilience=NO_RETRY,
            max_replans=0,
        )
        result = executor.run(query)
        assert result.rounds[0].dead_sources == ("R2",)


class TestAccounting:
    def test_makespan_and_cost_sum_over_rounds(self, replicated):
        federation, query = replicated
        executor = resilient_executor(
            federation,
            faults=dead("R1"),
            resilience=NO_RETRY,
        )
        result = executor.run(query)
        assert result.makespan_s == pytest.approx(
            sum(r.result.makespan_s for r in result.rounds)
        )
        assert result.total_cost == pytest.approx(
            sum(r.result.trace.total_cost for r in result.rounds)
        )
        assert "masked: R1" in result.summary()

    def test_breaker_state_survives_across_rounds(self, replicated):
        federation, query = replicated
        from repro.runtime.health import BreakerConfig, BreakerState

        executor = resilient_executor(
            federation,
            faults=dead("R1"),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=1e6),
            ),
        )
        result = executor.run(query)
        assert result.items == DMV_FIG1_ANSWER
        assert executor.engine.health.state_of("R1") is BreakerState.OPEN


class TestValidation:
    def test_negative_max_replans_rejected(self, replicated):
        federation, __ = replicated
        with pytest.raises(CostModelError):
            resilient_executor(federation, max_replans=-1)

    def test_explicit_source_subset_honoured(self, replicated):
        federation, query = replicated
        result = resilient_executor(federation).run(
            query, source_names=("R1~1", "R2~1", "R3~1")
        )
        assert result.items == DMV_FIG1_ANSWER
        assert result.rounds[0].sources == ("R1~1", "R2~1", "R3~1")
