"""Property-based tests: every optimizer's plan computes the right answer
and the cost dominance chain of Sec. 3 holds.

These are the library's central invariants:

* **Correctness** — for any federation and fusion query, executing any
  optimizer's plan returns exactly the reference answer (materialize U,
  intersect per-condition item sets).
* **Dominance** — estimated costs satisfy SJA <= SJ <= FILTER (SJ can
  always mimic the filter plan; SJA refines SJ per source), and the
  greedy variants are sandwiched between SJA and FILTER.
* **One ruler** — the stage rules the staged optimizers share agree,
  along every ordering, with the independent staged accounting of
  :func:`repro.plans.space.staged_plan_cost`, and the optimum they find
  is the brute-force optimum of their spec space.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import Executor
from repro.mediator.reference import reference_answer
from repro.optimize.exhaustive import (
    ExhaustiveAdaptiveOptimizer,
    ExhaustiveSemijoinOptimizer,
)
from repro.optimize.filter import FilterOptimizer
from repro.optimize.greedy import GreedySJAOptimizer, SelectivityOrderOptimizer
from repro.optimize.search import cost_along
from repro.optimize.sj import SJOptimizer, SJStagedProblem
from repro.optimize.sja import SJAOptimizer, SJAStagedProblem
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.space import staged_plan_cost
from repro.sources.generators import synthetic_query
from repro.sources.statistics import ExactStatistics

from tests.property.strategies import synthetic_kits

ALL_OPTIMIZERS = [
    FilterOptimizer,
    SJOptimizer,
    SJAOptimizer,
    SJAPlusOptimizer,
    SelectivityOrderOptimizer,
    GreedySJAOptimizer,
]


def planning_kit(federation, config, m, query_seed):
    query = synthetic_query(config, m=m, seed=query_seed)
    statistics = ExactStatistics(federation)
    estimator = SizeEstimator(statistics, federation.source_names)
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    return query, cost_model, estimator


@pytest.mark.parametrize("optimizer_class", ALL_OPTIMIZERS)
@given(kit=synthetic_kits(), query_seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_optimizer_answers_match_reference(optimizer_class, kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    result = optimizer_class().optimize(
        query, federation.source_names, cost_model, estimator
    )
    federation.reset_traffic()
    execution = Executor(federation).execute(result.plan)
    assert execution.items == reference_answer(federation, query)


@given(kit=synthetic_kits(), query_seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_cost_dominance_chain(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    args = (query, federation.source_names, cost_model, estimator)
    filter_cost = FilterOptimizer().optimize(*args).estimated_cost
    sj_cost = SJOptimizer().optimize(*args).estimated_cost
    sja_cost = SJAOptimizer().optimize(*args).estimated_cost
    assert sja_cost <= sj_cost + 1e-6
    assert sj_cost <= filter_cost + 1e-6


@given(kit=synthetic_kits(), query_seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_greedy_sandwiched_between_sja_and_filter(kit, query_seed):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    args = (query, federation.source_names, cost_model, estimator)
    sja_cost = SJAOptimizer().optimize(*args).estimated_cost
    filter_cost = FilterOptimizer().optimize(*args).estimated_cost
    for greedy_class in (SelectivityOrderOptimizer, GreedySJAOptimizer):
        greedy_cost = greedy_class().optimize(*args).estimated_cost
        assert sja_cost - 1e-6 <= greedy_cost <= filter_cost + 1e-6


@pytest.mark.parametrize(
    "stage_rule, optimizer_class, brute_force_class",
    [
        (SJStagedProblem, SJOptimizer, ExhaustiveSemijoinOptimizer),
        (SJAStagedProblem, SJAOptimizer, ExhaustiveAdaptiveOptimizer),
    ],
)
@given(
    kit=synthetic_kits(max_sources=3, max_m=4),
    query_seed=st.integers(0, 1000),
)
@settings(max_examples=12, deadline=None)
def test_stage_rules_agree_with_the_oracle_along_every_ordering(
    stage_rule, optimizer_class, brute_force_class, kit, query_seed
):
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    names = federation.source_names
    problem = stage_rule(query.conditions, names, cost_model, estimator)
    for ordering in permutations(range(m)):
        outcome = cost_along(problem, ordering)
        assert outcome.ordering == ordering
        assert outcome.cost == pytest.approx(
            staged_plan_cost(
                query, ordering, outcome.payloads, names, cost_model,
                estimator,
            ),
            rel=1e-9,
        )
    args = (query, names, cost_model, estimator)
    assert optimizer_class().optimize(*args).estimated_cost == pytest.approx(
        brute_force_class().optimize(*args).estimated_cost, rel=1e-9
    )


@given(kit=synthetic_kits(), query_seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_sja_internal_cost_matches_independent_recosting(kit, query_seed):
    """The cost SJA reports must equal re-costing its emitted plan with
    the shared staged accounting — optimizer bookkeeping cannot drift
    from the plan it actually built."""
    from repro.plans.builder import StagedChoice
    from repro.plans.operations import SelectionOp

    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    result = SJAOptimizer().optimize(
        query, federation.source_names, cost_model, estimator
    )
    plan = result.plan
    ordering = [
        query.conditions.index(stage.condition) for stage in plan.stages
    ]
    ops_by_target = {op.target: op for op in plan.remote_operations}
    choices = tuple(
        tuple(
            StagedChoice.SELECTION
            if isinstance(ops_by_target[register], SelectionOp)
            else StagedChoice.SEMIJOIN
            for register in stage.source_registers
        )
        for stage in plan.stages
    )
    recosted = staged_plan_cost(
        query, ordering, choices, federation.source_names, cost_model,
        estimator,
    )
    assert recosted == pytest.approx(result.estimated_cost)


@given(kit=synthetic_kits(), query_seed=st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_actual_cost_of_executed_sja_plan_close_to_estimate(kit, query_seed):
    """With oracle statistics, the only estimation error is the
    independence assumption on intermediate sets; the estimate must at
    least be finite, positive, and within an order of magnitude."""
    federation, config, m = kit
    query, cost_model, estimator = planning_kit(
        federation, config, m, query_seed
    )
    result = SJAOptimizer().optimize(
        query, federation.source_names, cost_model, estimator
    )
    federation.reset_traffic()
    execution = Executor(federation).execute(result.plan)
    assert execution.total_cost > 0
    assert result.estimated_cost > 0
    ratio = execution.total_cost / result.estimated_cost
    assert 0.1 <= ratio <= 10.0
