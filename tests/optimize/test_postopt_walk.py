"""SJA+'s one priced postoptimization walk against the passes it fuses.

:func:`~repro.optimize.postopt.postoptimize` prunes, prices and loads a
plan in one walk, carrying each step's ``(cost, size)`` over where its
inputs did not move.  Its plan must be the one the two public passes
build one after the other, and its breakdown the generic plan coster's
price of that plan, step for step and bit for bit — with numpy's price
tables and without them.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.optimize.postopt import (
    apply_difference_pruning,
    apply_source_loading,
    postoptimize,
)
from repro.optimize.sja import SJAOptimizer
from repro.plans.cost import estimate_plan_cost
from repro.relational.columnar import set_numpy_enabled
from repro.sources.generators import synthetic_query
from repro.sources.statistics import ExactStatistics

from tests.optimize.test_fresh_plan_pins import NUMPY_LEGS, SEEDS, fresh_kit
from tests.property.strategies import synthetic_kits


numpy_legs = pytest.mark.parametrize(
    "numpy_on", NUMPY_LEGS, ids=lambda on: f"numpy-{'on' if on else 'off'}"
)


@contextlib.contextmanager
def numpy_enabled(on):
    previous = set_numpy_enabled(on)
    try:
        yield
    finally:
        set_numpy_enabled(previous)


def bits(breakdown):
    return [
        (step.step, step.operation, step.cost.hex(), step.output_size.hex())
        for step in breakdown.steps
    ]


def assert_walk_matches_the_passes(plan, model, estimator):
    """The walk's plan is the two passes' plan and its breakdown prices
    that plan as the generic coster does, to the bit; returns whether
    the walk rewrote ``plan``."""
    walked, breakdown = postoptimize(plan, model, estimator)
    passes = apply_source_loading(
        apply_difference_pruning(plan), model, estimator
    )
    assert walked.operations == passes.operations
    assert walked.description == passes.description
    assert (walked is plan) == (passes is plan)
    priced = estimate_plan_cost(walked, model, estimator)
    assert bits(breakdown) == bits(priced)
    assert breakdown.total.hex() == priced.total.hex()
    assert breakdown.result_size.hex() == priced.result_size.hex()
    return walked is not plan


@numpy_legs
@given(kit=synthetic_kits(max_sources=6, max_m=4), query_seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_the_walk_is_the_passes_priced_by_the_plan_coster(numpy_on, kit, query_seed):
    federation, config, m = kit
    query = synthetic_query(config, m=m, seed=query_seed)
    with numpy_enabled(numpy_on):
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        plan = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        ).plan
        assert_walk_matches_the_passes(plan, model, estimator)


@numpy_legs
@pytest.mark.parametrize("seed", SEEDS)
def test_the_walk_is_the_passes_on_the_pinned_fresh_plans(numpy_on, seed):
    # The pinned seeds cover no rewrite (16), pruning (17), loading (18)
    # and both (21, 25).
    with numpy_enabled(numpy_on):
        kit = fresh_kit(seed)
        plan = SJAOptimizer().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        ).plan
        rewritten = assert_walk_matches_the_passes(
            plan, kit.cost_model, kit.estimator
        )
    assert rewritten == (seed != 16)
