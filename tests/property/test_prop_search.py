"""Property-based tests: subset search is exact wherever the sweep is.

For any seeded synthetic federation and any query of arity m <= 6, the
subset-DP and branch-and-bound strategies must return plans whose cost
is identical to the factorial enumeration's — the tentpole guarantee
that lets the optimizer retire the O(m!) loops without changing a single
chosen plan.  Beam search may lose, but never wins (its orderings are a
subset of the sweep's) and must flag itself inexact.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.sources.generators import synthetic_query
from repro.sources.statistics import ExactStatistics

from tests.property.strategies import synthetic_kits


def planning_kit(federation, config, m, query_seed):
    query = synthetic_query(config, m=m, seed=query_seed)
    statistics = ExactStatistics(federation)
    estimator = SizeEstimator(statistics, federation.source_names)
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    return query, cost_model, estimator


@given(kit=synthetic_kits(max_m=6), query_seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_sja_dp_and_bnb_match_factorial_sweep(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    names = federation.source_names
    sweep = SJAOptimizer(search="exhaustive").optimize(
        query, names, cost_model, estimator
    )
    for strategy in ("dp", "bnb"):
        other = SJAOptimizer(search=strategy).optimize(
            query, names, cost_model, estimator
        )
        assert other.estimated_cost == sweep.estimated_cost
        assert other.search_strategy == strategy
        assert other.plan.remote_op_count == sweep.plan.remote_op_count


@given(kit=synthetic_kits(max_m=5), query_seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_sj_dp_and_bnb_match_factorial_sweep(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    names = federation.source_names
    sweep = SJOptimizer(search="exhaustive").optimize(
        query, names, cost_model, estimator
    )
    for strategy in ("dp", "bnb"):
        other = SJOptimizer(search=strategy).optimize(
            query, names, cost_model, estimator
        )
        assert other.estimated_cost == sweep.estimated_cost


@given(kit=synthetic_kits(max_m=5), query_seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_beam_never_beats_the_sweep(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    names = federation.source_names
    sweep = SJAOptimizer(search="exhaustive").optimize(
        query, names, cost_model, estimator
    )
    beam = SJAOptimizer(search="beam", beam_width=2).optimize(
        query, names, cost_model, estimator
    )
    assert beam.estimated_cost >= sweep.estimated_cost
    assert beam.search_strategy == "beam"
