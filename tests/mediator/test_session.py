"""Unit tests for the Mediator facade."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError, NotAFusionQueryError
from repro.mediator.session import Mediator
from repro.optimize.filter import FilterOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.runtime.engine import Resilience
from repro.runtime.health import BreakerConfig
from repro.runtime.policy import RetryPolicy
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    dmv_fig1,
    replicate_federation,
)
from repro.sources.statistics import SampledStatistics
from repro.optimize.planning import Planning


class TestAnswer:
    def test_structured_query(self, dmv_mediator, dmv_query):
        answer = dmv_mediator.answer(dmv_query)
        assert answer.items == DMV_FIG1_ANSWER
        assert answer.verified is True

    def test_sql_query(self, dmv_mediator):
        sql = (
            "SELECT u1.L FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        )
        answer = dmv_mediator.answer(sql)
        assert answer.items == DMV_FIG1_ANSWER

    def test_bad_sql_rejected(self, dmv_mediator):
        with pytest.raises(NotAFusionQueryError):
            dmv_mediator.answer("SELECT * FROM U")

    def test_query_validated_against_schema(self, dmv_mediator):
        sql = (
            "SELECT u1.L FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.ZZZ = 'x' AND u2.V = 'sp'"
        )
        with pytest.raises(Exception):
            dmv_mediator.answer(sql)

    def test_summary_mentions_costs(self, dmv_mediator, dmv_query):
        answer = dmv_mediator.answer(dmv_query)
        assert "estimated cost" in answer.summary()
        assert "actual cost" in answer.summary()


class TestConfiguration:
    def test_custom_optimizer(self, dmv_federation, dmv_query):
        mediator = Mediator(
            dmv_federation, planning=Planning(optimizer=FilterOptimizer()), verify=True
        )
        answer = mediator.answer(dmv_query)
        assert answer.optimization.optimizer == "FILTER"
        assert answer.items == DMV_FIG1_ANSWER

    def test_custom_statistics(self, dmv_query):
        federation, __ = dmv_fig1()
        mediator = Mediator(
            federation,
            statistics=SampledStatistics(federation, fraction=0.5, seed=0),
            planning=Planning(optimizer=SJAOptimizer()),
            verify=True,
        )
        answer = mediator.answer(dmv_query)
        assert answer.items == DMV_FIG1_ANSWER

    @pytest.mark.parametrize("verify", ["vote", "off", 1, None])
    def test_verify_is_only_the_oracle_check(self, dmv_federation, verify):
        # A verification *mode* belongs in Resilience(verify=...); read
        # as a truthy oracle check it would raise on every honest answer.
        with pytest.raises(CostModelError, match="must be a bool"):
            Mediator(dmv_federation, verify=verify)

    def test_plan_without_execution(self, dmv_mediator, dmv_query):
        result = dmv_mediator.plan(dmv_query)
        assert result.plan.result
        # planning must not touch the sources
        assert dmv_mediator.federation.total_messages() == 0

    def test_explain_text(self, dmv_mediator, dmv_query):
        text = dmv_mediator.explain(dmv_query)
        assert "estimated total cost" in text
        assert "c1" in text


class TestPlanCache:
    def test_repeated_queries_hit_the_cache(self, dmv_federation, dmv_query):
        mediator = Mediator(dmv_federation, plan_cache=True, verify=True)
        first = mediator.answer(dmv_query)
        second = mediator.answer(dmv_query)
        assert mediator.plan_cache_hits == 1
        assert first.plan == second.plan
        assert second.items == DMV_FIG1_ANSWER

    def test_different_queries_miss(self, dmv_federation, dmv_query):
        from repro.query.fusion import FusionQuery

        mediator = Mediator(dmv_federation, plan_cache=True)
        mediator.plan(dmv_query)
        mediator.plan(FusionQuery.from_strings("L", ["V = 'sp'"]))
        assert mediator.plan_cache_hits == 0

    def test_cache_off_by_default(self, dmv_mediator, dmv_query):
        dmv_mediator.plan(dmv_query)
        dmv_mediator.plan(dmv_query)
        assert dmv_mediator.plan_cache_hits == 0

    def test_clear_plan_cache(self, dmv_federation, dmv_query):
        mediator = Mediator(dmv_federation, plan_cache=True)
        mediator.plan(dmv_query)
        mediator.clear_plan_cache()
        mediator.plan(dmv_query)
        assert mediator.plan_cache_hits == 0

    def test_explain_also_uses_cache(self, dmv_federation, dmv_query):
        mediator = Mediator(dmv_federation, plan_cache=True)
        mediator.plan(dmv_query)
        mediator.explain(dmv_query)
        assert mediator.plan_cache_hits == 1


class TestTwoPhase:
    def test_fetch_records_returns_full_rows(self, dmv_mediator, dmv_query):
        answer = dmv_mediator.answer(dmv_query)
        records = dmv_mediator.fetch_records(answer.items)
        assert records.items() == DMV_FIG1_ANSWER
        # J55 has one row each at R1/R2; T21 one each at R1/R2/R3 -> 5 rows.
        assert len(records) == 5

    def test_fetch_records_charges_traffic(self, dmv_mediator, dmv_query):
        answer = dmv_mediator.answer(dmv_query)
        before = dmv_mediator.federation.total_traffic_cost()
        dmv_mediator.fetch_records(answer.items)
        assert dmv_mediator.federation.total_traffic_cost() > before


class TestRuntimeBackend:
    def test_unknown_backend_rejected(self, dmv_federation):
        with pytest.raises(ValueError, match="unknown backend"):
            Mediator(dmv_federation, backend="parallel")

    def test_runtime_backend_answers_and_attaches_trace(
        self, dmv_federation, dmv_query
    ):
        mediator = Mediator(dmv_federation, backend="runtime", verify=True)
        answer = mediator.answer(dmv_query)
        assert answer.items == DMV_FIG1_ANSWER
        assert answer.execution.trace is not None
        assert answer.execution.makespan_s > 0
        assert "makespan" in answer.summary()

    def test_sequential_backend_has_no_runtime_result(
        self, dmv_mediator, dmv_query
    ):
        answer = dmv_mediator.answer(dmv_query)
        assert answer.execution.trace is None
        assert "makespan" not in answer.summary()

    def test_sequential_backend_refuses_what_it_would_ignore(
        self, dmv_federation, dmv_mediator, dmv_query
    ):
        # Re-planning rounds and budgets need the engine's clock; the
        # sequential backend would accept them and run as without.
        with pytest.raises(CostModelError, match="replan=2 needs backend='runtime'"):
            Mediator(dmv_federation, replan=2)
        with pytest.raises(CostModelError, match="budget_s needs backend='runtime'"):
            dmv_mediator.answer(dmv_query, budget_s=1.0)
        aggregate = (
            "SELECT u1.V, COUNT(*) FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' GROUP BY u1.V"
        )
        with pytest.raises(CostModelError, match="budget_s needs backend='runtime'"):
            dmv_mediator.answer_aggregate(aggregate, budget_s=1.0)
        assert dmv_mediator.answer(dmv_query, budget_s=None).items == DMV_FIG1_ANSWER
        assert Mediator(dmv_federation, replan=0).max_replans == 0

    def test_degraded_run_does_not_fail_verification(
        self, dmv_federation, dmv_query
    ):
        from repro.runtime import FaultInjector, FaultProfile

        mediator = Mediator(
            dmv_federation,
            backend="runtime",
            verify=True,
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(policy=RetryPolicy.no_retry()),
        )
        answer = mediator.answer(dmv_query)  # must not raise
        assert answer.verified is False
        assert answer.execution.trace.degraded_steps
        assert answer.items <= DMV_FIG1_ANSWER

    def test_engine_entry_point(self, dmv_mediator, dmv_query):
        optimization = dmv_mediator.plan(dmv_query)
        result = dmv_mediator.runtime.run(optimization.plan)
        assert result.items == DMV_FIG1_ANSWER
        assert result.complete


NO_RETRY = RetryPolicy.no_retry()


class TestResilientBackend:
    def make_mediator(self, resilience=Resilience(policy=NO_RETRY), **kwargs):
        from repro.runtime.faults import FaultInjector, FaultProfile

        federation, __ = dmv_fig1()
        federation = replicate_federation(federation, 2)
        return Mediator(
            federation,
            backend="runtime",
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=7),
            resilience=resilience,
            **kwargs,
        )

    def test_replanning_recovers_dead_source(self, dmv_query):
        mediator = self.make_mediator(replan=2)
        answer = mediator.answer(dmv_query)
        assert answer.items == DMV_FIG1_ANSWER
        assert answer.execution.replans >= 1
        assert "replan round" in answer.summary()

    def test_hedging_recovers_in_flight(self, dmv_query):
        mediator = self.make_mediator(
            Resilience(policy=NO_RETRY, hedge_delay_s=2.0)
        )
        answer = mediator.answer(dmv_query)
        assert answer.items == DMV_FIG1_ANSWER
        assert answer.planned == ()  # no replanning configured
        assert answer.execution.trace.recovered_steps
        assert "recovered" in answer.summary()

    def test_breaker_config_enables_breakers(self, dmv_query):
        mediator = self.make_mediator(
            Resilience(policy=NO_RETRY, breaker=BreakerConfig.default())
        )
        assert mediator.runtime.health.enabled
        mediator = self.make_mediator()
        assert not mediator.runtime.health.enabled

    def test_health_registry_shared_with_replanner(self, dmv_query):
        mediator = self.make_mediator(
            Resilience(policy=NO_RETRY, breaker=BreakerConfig.default()),
            replan=2,
        )
        answer = mediator.answer(dmv_query)
        assert answer.items == DMV_FIG1_ANSWER
        # Re-planning rounds run on the mediator's own engine, so the
        # mediator-level view saw the failures.
        assert answer.execution.replans == 1
        assert mediator.runtime.health.health_of("R1").failures > 0

    @pytest.mark.parametrize("replan", [0, 2])
    def test_replanning_goes_through_the_plan_cache(self, dmv_query, replan):
        # Re-planning rounds plan with the mediator's own cached planner:
        # three identical answers read 2 hits / 1 miss either way.
        federation = replicate_federation(dmv_fig1()[0], 2)
        mediator = Mediator(
            federation, backend="runtime", replan=replan, plan_cache=True
        )
        for __ in range(3):
            assert mediator.answer(dmv_query).items == DMV_FIG1_ANSWER
        cache = mediator.plan_cache
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)

    def test_later_rounds_cache_under_the_masked_source_tuple(self, dmv_query):
        mediator = self.make_mediator(replan=2, plan_cache=True)
        first = mediator.answer(dmv_query)
        assert first.execution.replans == 1
        # Round 0 planned over the representatives, round 1 over the
        # tuple with the dead R1 masked and its mirror swapped in.
        assert first.planned == (("R1", "R2", "R3"), ("R2", "R3", "R1~1"))
        assert (mediator.plan_cache.misses, len(mediator.plan_cache)) == (2, 2)
        mediator.answer(dmv_query)
        assert (mediator.plan_cache.hits, mediator.plan_cache.misses) == (2, 2)

    def test_negative_replan_rejected(self):
        federation, __ = dmv_fig1()
        with pytest.raises(CostModelError):
            Mediator(federation, backend="runtime", replan=-1)

    def test_masked_resilient_run_passes_verification(self, dmv_query):
        # Both R1 and its mirror dead: the final round plans around the
        # whole group and completes, but ``masked`` explains the losses
        # so verify=True must not raise.
        from repro.runtime.faults import FaultInjector, FaultProfile

        federation, __ = dmv_fig1()
        federation = replicate_federation(federation, 2)
        mediator = Mediator(
            federation,
            backend="runtime",
            verify=True,
            faults=FaultInjector(
                {
                    "R1": FaultProfile.flaky(1.0),
                    "R1~1": FaultProfile.flaky(1.0),
                },
                seed=7,
            ),
            resilience=Resilience(policy=NO_RETRY),
            replan=2,
        )
        answer = mediator.answer(dmv_query)
        assert answer.verified is False
        assert answer.items < DMV_FIG1_ANSWER
        assert answer.masked
