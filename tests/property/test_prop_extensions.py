"""Property-based tests for the extension modules (schedule, adaptive,
phases, io round-trips)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.io import federation_from_dict, federation_to_dict
from repro.mediator.executor import Executor
from repro.mediator.phases import PhaseStrategy, answer_with_records
from repro.mediator.reference import reference_answer
from repro.mediator.schedule import estimated_response_time, response_time
from repro.mediator.session import Mediator
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


@given(kit=synthetic_kits(), query_seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_adaptive_matches_reference(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    result = Mediator(federation, cost_model=cost_model).answer_adaptive(query)
    assert result.items == reference_answer(federation, query)


@given(kit=synthetic_kits(), query_seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_adaptive_cost_accounting_consistent(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    federation.reset_traffic()
    result = Mediator(federation, cost_model=cost_model).answer_adaptive(query)
    assert abs(result.total_cost - federation.total_traffic_cost()) < 1e-6


@given(kit=synthetic_kits(), query_seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_schedule_invariants(kit, query_seed):
    """Makespan bounds and dependency consistency for executed plans."""
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    plan = SJAOptimizer().optimize(
        query, federation.source_names, cost_model, estimator
    ).plan
    execution = Executor(federation).execute(plan)
    schedule = response_time(plan, execution)
    longest = max(step.elapsed_s for step in execution.steps)
    assert longest - 1e-12 <= schedule.makespan_s <= schedule.total_time_s + 1e-12
    # dependency consistency: readers start after writers finish
    finish = {}
    for op in schedule.ops:
        for register in op.operation.reads():
            assert op.start_s >= finish[register] - 1e-12
        finish[op.operation.target] = op.finish_s


@given(kit=synthetic_kits(), query_seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_estimated_schedule_is_positive_and_bounded(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    plan = SJAOptimizer().optimize(
        query, federation.source_names, cost_model, estimator
    ).plan
    schedule = estimated_response_time(plan, federation, estimator)
    assert 0 < schedule.makespan_s <= schedule.total_time_s + 1e-12


@given(kit=synthetic_kits(max_m=2), query_seed=st.integers(0, 500))
@settings(max_examples=12, deadline=None)
def test_phase_strategies_agree_on_entities(kit, query_seed):
    federation, config, m = kit
    query = synthetic_query(config, m=m, seed=query_seed)
    mediator = Mediator(federation)
    expected = reference_answer(federation, query)
    for strategy in (PhaseStrategy.TWO_PHASE, PhaseStrategy.ONE_PHASE):
        federation.reset_traffic()
        result = answer_with_records(mediator, query, strategy)
        assert result.items == expected
        assert result.records.items() <= expected


@given(kit=synthetic_kits(), query_seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_plan_serialization_roundtrip(kit, query_seed):
    from repro.optimize.sja_plus import SJAPlusOptimizer
    from repro.plans.serialize import plan_from_json, plan_to_json

    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    for optimizer in (SJAOptimizer(), SJAPlusOptimizer()):
        plan = optimizer.optimize(
            query, federation.source_names, cost_model, estimator
        ).plan
        rebuilt = plan_from_json(plan_to_json(plan))
        assert rebuilt == plan
        federation.reset_traffic()
        assert Executor(federation).execute(rebuilt).items == (
            reference_answer(federation, query)
        )


@given(kit=synthetic_kits(), query_seed=st.integers(0, 500))
@settings(max_examples=10, deadline=None)
def test_federation_spec_roundtrip_preserves_answers(kit, query_seed):
    federation, config, m = kit
    query = synthetic_query(config, m=m, seed=query_seed)
    rebuilt = federation_from_dict(federation_to_dict(federation))
    assert rebuilt.source_names == federation.source_names
    assert reference_answer(rebuilt, query) == reference_answer(
        federation, query
    )
    for name in federation.source_names:
        original = federation.source(name)
        clone = rebuilt.source(name)
        assert clone.capabilities == original.capabilities
        assert clone.link == original.link
