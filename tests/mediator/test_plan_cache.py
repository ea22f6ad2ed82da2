"""Tests for the mediator plan cache (repro.mediator.plan_cache).

The headline guarantee: a repeated fusion query is served with *zero*
optimizer invocations, while any statistics refresh (an
:class:`ObservedStatistics` mining pass) cleanly invalidates the stale
entry.
"""

from __future__ import annotations

import pytest

from repro.errors import OptimizationError
from repro.mediator.executor import Executor
from repro.mediator.plan_cache import (
    DEFAULT_CAPACITY,
    PlanCache,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.mediator.session import Mediator
from repro.obs.recorder import Recorder
from repro.optimize.sja import SJAOptimizer
from repro.plans.builder import build_filter_plan
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Comparison
from repro.runtime.trace import RuntimeTrace
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    synthetic_query,
)
from repro.sources.observed import ObservedStatistics
from repro.sources.statistics import ExactStatistics
from repro.optimize.planning import Planning


class CountingSJA(SJAOptimizer):
    """SJA optimizer that counts how often optimize() actually runs."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def optimize(self, query, source_names, cost_model, estimator):
        self.calls += 1
        return super().optimize(query, source_names, cost_model, estimator)


def warmup_events(federation, query):
    recorder = Recorder(metrics=None)
    plan = build_filter_plan(query, federation.source_names, "warm-up")
    federation.reset_traffic()
    Executor(federation, recorder=recorder).execute(plan)
    return recorder.events


# --- the headline guarantee ----------------------------------------------


def test_repeated_query_skips_the_optimizer():
    federation, query = dmv_fig1()
    optimizer = CountingSJA()
    mediator = Mediator(federation, planning=Planning(optimizer=optimizer), plan_cache=True)
    first = mediator.answer(query)
    second = mediator.answer(query)
    assert optimizer.calls == 1
    assert first.items == second.items
    assert mediator.plan_cache.hits == 1
    assert mediator.plan_cache.misses == 1
    assert mediator.plan_cache_hits == 1


def test_condition_order_shares_an_entry():
    federation, query = dmv_fig1()
    permuted = FusionQuery(
        query.merge_attribute, tuple(reversed(query.conditions))
    )
    assert query_fingerprint(query) == query_fingerprint(permuted)
    optimizer = CountingSJA()
    mediator = Mediator(federation, planning=Planning(optimizer=optimizer), plan_cache=True)
    mediator.plan(query)
    mediator.plan(permuted)
    assert optimizer.calls == 1
    assert mediator.plan_cache.hits == 1


def test_changed_constant_misses():
    federation, query = dmv_fig1()
    other = FusionQuery(
        query.merge_attribute,
        (Comparison("V", "=", "parking"),) + query.conditions[1:],
    )
    assert query_fingerprint(query) != query_fingerprint(other)
    optimizer = CountingSJA()
    mediator = Mediator(federation, planning=Planning(optimizer=optimizer), plan_cache=True)
    mediator.plan(query)
    mediator.plan(other)
    assert optimizer.calls == 2


# --- invalidation on statistics refresh ----------------------------------


def test_observed_statistics_refresh_invalidates():
    federation, query = dmv_fig1()
    statistics = ObservedStatistics(universe=10)
    optimizer = CountingSJA()
    mediator = Mediator(
        federation,
        statistics=statistics,
        planning=Planning(optimizer=optimizer),
        plan_cache=True,
    )
    mediator.plan(query)
    mediator.plan(query)
    assert optimizer.calls == 1

    before = statistics.fingerprint()
    mined = statistics.observe(
        RuntimeTrace.runs(warmup_events(federation, query))
    )
    assert mined > 0
    assert statistics.fingerprint() != before

    mediator.plan(query)  # stale entry must not be served
    assert optimizer.calls == 2
    mediator.plan(query)  # the refreshed plan caches again
    assert optimizer.calls == 2


def test_fruitless_observe_keeps_the_fingerprint():
    statistics = ObservedStatistics()
    before = statistics.fingerprint()
    assert statistics.observe([]) == 0
    assert statistics.fingerprint() == before


def test_immutable_providers_fingerprint_by_identity():
    federation, __ = dmv_fig1()
    exact = ExactStatistics(federation)
    assert statistics_fingerprint(exact) == statistics_fingerprint(exact)
    assert statistics_fingerprint(exact) != statistics_fingerprint(
        ExactStatistics(federation)
    )


# --- LRU mechanics --------------------------------------------------------


def queries_for(federation, n):
    violations = ["dui", "sp", "parking", "reckless"]
    return [
        FusionQuery("L", (Comparison("V", "=", violations[i]),))
        for i in range(n)
    ]


def test_lru_evicts_the_coldest_entry():
    federation, __ = dmv_fig1()
    statistics = ExactStatistics(federation)
    sources = federation.source_names
    cache = PlanCache(capacity=2)
    q1, q2, q3 = queries_for(federation, 3)
    results = {}
    for query in (q1, q2, q3):
        optimization = SJAOptimizer().optimize(
            query,
            sources,
            Mediator(federation).cost_model,
            Mediator(federation).estimator,
        )
        results[query] = optimization
    cache.put(q1, sources, statistics, results[q1])
    cache.put(q2, sources, statistics, results[q2])
    assert cache.get(q1, sources, statistics) is results[q1]  # refresh q1
    cache.put(q3, sources, statistics, results[q3])  # evicts q2, not q1
    assert len(cache) == 2
    assert cache.get(q2, sources, statistics) is None
    assert cache.get(q1, sources, statistics) is results[q1]
    assert cache.get(q3, sources, statistics) is results[q3]


def test_clear_resets_entries_and_counters():
    federation, query = dmv_fig1()
    mediator = Mediator(federation, plan_cache=True)
    mediator.plan(query)
    mediator.plan(query)
    assert len(mediator.plan_cache) == 1
    assert mediator.plan_cache.hit_rate == 0.5
    mediator.clear_plan_cache()
    assert len(mediator.plan_cache) == 0
    assert mediator.plan_cache.hits == 0
    assert mediator.plan_cache.misses == 0
    assert mediator.plan_cache.hit_rate == 0.0


def test_capacity_must_be_positive():
    with pytest.raises(OptimizationError, match="capacity"):
        PlanCache(capacity=0)


# --- mediator wiring ------------------------------------------------------


def test_mediator_coerces_plan_cache_argument():
    federation, __ = dmv_fig1()
    assert Mediator(federation).plan_cache is None
    assert Mediator(federation, plan_cache=False).plan_cache is None
    enabled = Mediator(federation, plan_cache=True)
    assert enabled.plan_cache.capacity == DEFAULT_CAPACITY
    sized = Mediator(federation, plan_cache=4)
    assert sized.plan_cache.capacity == 4


def test_budget_cut_plan_is_not_cached():
    # A plan cut short by the planning budget answers that query only:
    # once the pressure is gone the same query is planned exactly, and
    # it is the exact result the cache keeps.
    config = SyntheticConfig(n_sources=4, n_entities=90, seed=5)
    federation = build_synthetic(config)
    query = synthetic_query(config, m=5, seed=6)
    mediator = Mediator(
        federation, planning=Planning(budget=1), plan_cache=True
    )
    cut = mediator.plan(query)
    assert cut.budget_exhausted
    assert len(mediator.plan_cache) == 0
    mediator.planning_budget.arm()  # no limit: exact branch-and-bound
    exact = mediator.plan(query)
    assert not exact.budget_exhausted
    reference = Mediator(federation, planning=Planning(search="bnb")).plan(query)
    assert exact.estimated_cost == reference.estimated_cost
    assert mediator.plan(query) is exact
    assert mediator.plan_cache.hits == 1


def test_budget_cut_replanning_round_is_not_cached():
    # The re-planner plans through the mediator's cached planner, so the
    # rule above covers its rounds too.
    config = SyntheticConfig(n_sources=4, n_entities=90, seed=5)
    mediator = Mediator(
        build_synthetic(config),
        backend="runtime",
        replan=2,
        planning=Planning(budget=1),
        plan_cache=True,
    )
    answer = mediator.answer(synthetic_query(config, m=5, seed=6))
    assert answer.optimization.budget_exhausted
    assert (mediator.plan_cache.misses, len(mediator.plan_cache)) == (1, 0)


def test_summary_reports_usage():
    federation, query = dmv_fig1()
    mediator = Mediator(federation, plan_cache=PlanCache(capacity=8))
    mediator.plan(query)
    mediator.plan(query)
    summary = mediator.plan_cache.summary()
    assert "1/8 entries" in summary
    assert "1 hits / 1 misses" in summary
