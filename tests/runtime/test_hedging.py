"""Unit tests for hedged dispatch and breaker rerouting in the engine."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.mediator.executor import Executor
from repro.mediator.schedule import response_time
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import AttemptFate, FaultInjector, FaultProfile
from repro.runtime.health import BreakerConfig, BreakerState
from repro.runtime.policy import RetryPolicy
from repro.runtime.trace import OpStatus
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    dmv_fig1,
    replicate_federation,
)


@pytest.fixture
def replicated():
    federation, query = dmv_fig1()
    return replicate_federation(federation, 2), query


def representative_plan(federation, query):
    return build_filter_plan(query, federation.representative_names)


class TestHedgeOnFailure:
    def test_dead_source_recovered_via_mirror(self, replicated):
        federation, query = replicated
        plan = representative_plan(federation, query)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                hedge_delay_s=5.0,
            ),
        )
        result = engine.run(plan)
        assert result.items == DMV_FIG1_ANSWER
        assert result.complete
        assert result.trace.recovered_steps
        recovered = [
            s for s in result.trace.spans if s.status is OpStatus.RECOVERED
        ]
        assert recovered
        for span in recovered:
            assert span.served_by == "R1~1"
            assert span.source == "R1"  # planned source is unchanged

    def test_hedge_does_not_consume_retry_budget(self, replicated):
        federation, query = replicated
        plan = representative_plan(federation, query)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                hedge_delay_s=5.0,
            ),
        )
        result = engine.run(plan)
        for span in result.trace.spans:
            if span.status is OpStatus.RECOVERED:
                assert span.retries == 0
                assert any(a.hedge for a in span.attempts)

    def test_without_substitutes_hedging_degrades_like_skip(self):
        federation, query = dmv_fig1()  # no replicas, no containment
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                hedge_delay_s=1.0,
            ),
        )
        result = engine.run(plan)
        assert not result.complete
        assert result.trace.hedge_attempts == 0
        assert result.items <= DMV_FIG1_ANSWER


class TestHedgeOnDelay:
    def test_slow_primary_loses_race_and_is_cancelled(self, replicated):
        federation, query = replicated
        plan = representative_plan(federation, query)
        stall = FaultProfile(stall_rate=1.0, stall_s=60.0)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector({"R1": stall}, seed=0),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                hedge_delay_s=1.0,
            ),
        )
        result = engine.run(plan)
        assert result.items == DMV_FIG1_ANSWER
        assert result.complete
        assert result.makespan_s < 60.0  # did not wait out the stall
        fates = [
            a.fate
            for s in result.trace.remote_spans
            for a in s.attempts
        ]
        assert AttemptFate.CANCELLED in fates

    def test_cancelled_losers_stay_charged(self, replicated):
        federation, query = replicated
        plan = representative_plan(federation, query)
        federation.reset_traffic()
        clean_cost = RuntimeEngine(federation).run(plan).trace.total_cost
        federation.reset_traffic()
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(
                {"R1": FaultProfile(stall_rate=1.0, stall_s=60.0)}, seed=0
            ),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                hedge_delay_s=1.0,
            ),
        )
        hedged = engine.run(plan)
        assert hedged.trace.hedge_attempts > 0
        # The cancelled attempt's bytes were already on the wire.
        assert hedged.trace.total_cost > clean_cost

    def test_large_delay_never_hedges_under_zero_faults(self, replicated):
        federation, query = replicated
        plan = representative_plan(federation, query)
        baseline = RuntimeEngine(federation).run(plan)
        hedging = RuntimeEngine(
            federation,
            resilience=Resilience(hedge_delay_s=1e6),
        ).run(plan)
        assert hedging.trace.hedge_attempts == 0
        assert hedging.makespan_s == pytest.approx(baseline.makespan_s)
        assert hedging.items == baseline.items

    def test_zero_fault_cross_validation_with_hedging_enabled(
        self, replicated
    ):
        # Hedging may only fire when an attempt outlives the delay; with
        # zero faults and a generous delay the static schedule holds.
        federation, query = replicated
        plan = representative_plan(federation, query)
        predicted = response_time(plan, Executor(federation).execute(plan))
        federation.reset_traffic()
        engine = RuntimeEngine(
            federation,
            resilience=Resilience(
                hedge_delay_s=1e6,
                breaker=BreakerConfig.default(),
            ),
        )
        simulated = engine.run(plan)
        assert simulated.makespan_s == pytest.approx(
            predicted.makespan_s, abs=1e-12
        )
        assert simulated.items == DMV_FIG1_ANSWER


class TestBreakerRerouting:
    def test_open_breaker_reroutes_to_mirror(self, replicated):
        federation, query = replicated
        plan = representative_plan(federation, query)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=1e6),
            ),
        )
        first = engine.run(plan)
        assert engine.health.state_of("R1") is BreakerState.OPEN
        # Health persists on the engine: a second run of the same plan
        # never touches R1 — every R1 op is rerouted and recovered.
        second = engine.run(plan)
        assert second.items == DMV_FIG1_ANSWER
        assert second.complete
        r1_steps = {
            s.step for s in second.trace.remote_spans if s.source == "R1"
        }
        assert r1_steps == set(second.trace.recovered_steps)
        assert first.items <= second.items

    def test_breaker_counts_opens(self, replicated):
        federation, query = replicated
        plan = representative_plan(federation, query)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                breaker=BreakerConfig(failure_threshold=1, cooldown_s=1e6),
            ),
        )
        engine.run(plan)
        assert engine.health.breaker_of("R1").times_opened >= 1
        assert "open" in engine.health.report()


class TestLoserAccounting:
    """Hedge losers must never leak samples into the health registry.

    Regression for a double-finish bug: when a task's retry was parked
    behind an open breaker while its hedge was still racing, a winning
    hedge finished the task but left it on the blocked list — the next
    drain re-launched the *finished* task, and that phantom attempt's
    failure was recorded against the winning source's replica group.
    """

    AUDIT_PROFILE = FaultProfile(
        transient_rate=0.35, stall_rate=0.3, stall_s=40.0
    )
    AUDIT_POLICY = dict(max_retries=2, timeout_s=20.0, backoff_base_s=0.1)

    def run_audited(self, seed):
        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 2)
        plan = representative_plan(federation, query)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(self.AUDIT_PROFILE, seed=seed),
            resilience=Resilience(
                policy=RetryPolicy(**self.AUDIT_POLICY),
                hedge_delay_s=1.0,
                breaker=BreakerConfig.aggressive(),
            ),
        )
        return federation, engine, engine.run(plan)

    def trace_stats(self, result):
        """Per-source (attempts, failures) from non-cancelled spans."""
        stats: dict[str, list[int]] = {}
        for span in result.trace.remote_spans:
            for attempt in span.attempts:
                if attempt.fate is AttemptFate.CANCELLED:
                    continue
                entry = stats.setdefault(attempt.source, [0, 0])
                entry[0] += 1
                entry[1] += attempt.fate.failed
        return stats

    @pytest.mark.parametrize("seed", [8, 11])
    def test_health_matches_trace_exactly(self, seed):
        # Seeds that historically produced a phantom failure against
        # the winning mirror (health said 3a/1f, trace said 2a/0f).
        federation, engine, result = self.run_audited(seed)
        stats = self.trace_stats(result)
        for name in federation.source_names:
            health = engine.health.health_of(name)
            attempts, failures = stats.get(name, (0, 0))
            assert (health.attempts, health.failures) == (
                attempts,
                failures,
            ), name

    @pytest.mark.parametrize("seed", [14, 15])
    def test_blocked_retry_plus_winning_hedge_does_not_crash(self, seed):
        # The same double-finish re-propagated a task's completion,
        # marking a union ready before all inputs existed (seeds that
        # historically raised TypeError deep in union_many).
        __, __, result = self.run_audited(seed)
        assert result.items <= DMV_FIG1_ANSWER

    def test_cancelled_loser_records_no_health_sample(self, replicated):
        # The direct satellite property: a pure stall-loser that is
        # cancelled by a winning hedge contributes zero attempts and
        # zero failures to its source's rolling health window.
        federation, query = replicated
        plan = representative_plan(federation, query)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(
                {"R1": FaultProfile(stall_rate=1.0, stall_s=60.0)}, seed=0
            ),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(),
                hedge_delay_s=1.0,
            ),
        )
        result = engine.run(plan)
        cancelled = [
            a
            for s in result.trace.remote_spans
            for a in s.attempts
            if a.fate is AttemptFate.CANCELLED
        ]
        assert cancelled  # the stalled primaries lost their races
        health = engine.health.health_of("R1")
        assert health.attempts == 0
        assert health.failures == 0


class TestDeterminism:
    def make_engine(self, federation):
        return RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.4), seed=7),
            resilience=Resilience(
                policy=RetryPolicy(max_retries=2),
                hedge_delay_s=2.0,
                breaker=BreakerConfig.aggressive(),
            ),
        )

    def test_same_seed_same_trace(self):
        runs = []
        for __ in range(2):
            federation, query = dmv_fig1()
            federation = replicate_federation(federation, 2)
            plan = representative_plan(federation, query)
            runs.append(self.make_engine(federation).run(plan))
        first, second = runs
        assert first.trace == second.trace
        assert first.items == second.items
        assert first.trace.timeline() == second.trace.timeline()

    def test_different_seed_may_differ_but_stays_sound(self):
        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 2)
        plan = representative_plan(federation, query)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.4), seed=8),
            resilience=Resilience(
                policy=RetryPolicy(max_retries=2),
                hedge_delay_s=2.0,
            ),
        )
        result = engine.run(plan)
        assert result.items <= DMV_FIG1_ANSWER  # never spurious


class TestValidation:
    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_bad_hedge_delay_rejected(self, bad):
        federation, __ = dmv_fig1()
        with pytest.raises(CostModelError):
            RuntimeEngine(federation, resilience=Resilience(hedge_delay_s=bad))
