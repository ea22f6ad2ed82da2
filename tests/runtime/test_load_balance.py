"""Unit tests for replica-aware load balancing of healthy traffic."""

from __future__ import annotations

import pytest

from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.health import BreakerConfig
from repro.runtime.policy import RetryPolicy
from repro.runtime.trace import OpStatus
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    dmv_fig1,
    replicate_federation,
)


def replicated():
    federation, query = dmv_fig1()
    return replicate_federation(federation, 2), query


def representative_plan(federation, query):
    return build_filter_plan(query, federation.representative_names)


class TestBalancedDispatch:
    def test_healthy_traffic_spreads_across_the_group(self):
        federation, query = replicated()
        plan = representative_plan(federation, query)
        result = RuntimeEngine(
            federation,
            resilience=Resilience(load_balance=True),
        ).run(plan)
        assert result.items == DMV_FIG1_ANSWER
        assert result.complete
        served = {
            a.source
            for span in result.trace.remote_spans
            for a in span.attempts
        }
        assert served & {"R1~1", "R2~1", "R3~1"}  # mirrors took work
        # Serving from one's own slot is normal operation, not recovery.
        assert all(
            span.status is OpStatus.OK for span in result.trace.remote_spans
        )
        assert not result.trace.recovered_steps

    def test_balancing_never_slows_a_healthy_run(self):
        federation, query = replicated()
        plan = representative_plan(federation, query)
        baseline = RuntimeEngine(federation).run(plan)
        federation2, __ = replicated()
        balanced = RuntimeEngine(
            federation2,
            resilience=Resilience(load_balance=True),
        ).run(plan)
        assert balanced.items == baseline.items
        assert balanced.makespan_s <= baseline.makespan_s

    def test_default_engine_keeps_mirrors_idle(self):
        federation, query = replicated()
        plan = representative_plan(federation, query)
        result = RuntimeEngine(federation).run(plan)
        served = {
            a.source
            for span in result.trace.remote_spans
            for a in span.attempts
        }
        assert served <= set(federation.representative_names)

    def test_no_replicas_means_no_behavior_change(self):
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        plain = RuntimeEngine(federation).run(plan)
        federation2, __ = dmv_fig1()
        balanced = RuntimeEngine(
            federation2,
            resilience=Resilience(load_balance=True),
        ).run(plan)
        assert balanced.trace == plain.trace
        assert balanced.items == plain.items


class TestBalancedResilience:
    def make_engine(self, federation, seed):
        return RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.4), seed=seed),
            resilience=Resilience(
                policy=RetryPolicy(max_retries=2, backoff_base_s=0.1),
                hedge_delay_s=2.0,
                breaker=BreakerConfig.aggressive(),
                load_balance=True,
            ),
        )

    @pytest.mark.parametrize("seed", [3, 7, 21])
    def test_faulty_balanced_runs_stay_sound(self, seed):
        federation, query = replicated()
        plan = representative_plan(federation, query)
        result = self.make_engine(federation, seed).run(plan)
        assert result.items <= DMV_FIG1_ANSWER  # never spurious

    def test_same_seed_same_trace(self):
        runs = []
        for __ in range(2):
            federation, query = replicated()
            plan = representative_plan(federation, query)
            runs.append(self.make_engine(federation, seed=7).run(plan))
        first, second = runs
        assert first.trace == second.trace
        assert first.items == second.items
        assert first.trace.timeline() == second.trace.timeline()
