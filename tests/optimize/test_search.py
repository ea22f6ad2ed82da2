"""Unit tests for the plan-search subsystem (repro.optimize.search).

The contract under test: every *exact* strategy (exhaustive sweep,
subset DP, branch-and-bound) returns a cost-identical ordering — not
approximately identical, bit-for-bit identical, because all of them
price stages through the same memoized subset context.  Beam search is
allowed to lose, and must say so via ``exact=False``.
"""

from __future__ import annotations

import ast
import inspect
import math
import pathlib
import textwrap

import pytest

import repro
from repro.costs.calibrated import CalibratedCostModel
from repro.costs.charge import (
    ChargeCostModel,
    charge_sjq_price_table,
    charge_sjq_pricer,
)
from repro.costs.estimates import SizeEstimator
from repro.costs.model import UniformCostModel
from repro.errors import OptimizationError
from repro.optimize.exhaustive import ExhaustiveAdaptiveOptimizer
from repro.optimize.search import (
    AUTO_DP_MAX_M,
    AUTO_EXHAUSTIVE_MAX_M,
    DEFAULT_BEAM_WIDTH,
    STRATEGIES,
    beam_search,
    resolve_strategy,
    search_ordering,
)
from repro.optimize.sja import SJAOptimizer, SJAStagedProblem
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    synthetic_query,
)
from repro.sources.statistics import ExactStatistics


def synthetic_problem(m=5, n_sources=4, seed=77):
    config = SyntheticConfig(n_sources=n_sources, n_entities=90, seed=seed)
    federation = build_synthetic(config)
    query = synthetic_query(config, m=m, seed=seed + 1)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    problem = SJAStagedProblem(
        query.conditions, federation.source_names, cost_model, estimator
    )
    return problem, query, federation, cost_model, estimator


# --- strategy resolution --------------------------------------------------


def test_auto_prefers_exhaustive_for_small_m():
    for m in range(1, AUTO_EXHAUSTIVE_MAX_M + 1):
        assert resolve_strategy("auto", m) == "exhaustive"


def test_auto_switches_to_dp_then_beam():
    assert resolve_strategy("auto", AUTO_EXHAUSTIVE_MAX_M + 1) == "dp"
    assert resolve_strategy("auto", AUTO_DP_MAX_M) == "dp"
    assert resolve_strategy("auto", AUTO_DP_MAX_M + 1) == "beam"


def test_explicit_strategies_pass_through():
    for strategy in STRATEGIES:
        if strategy == "auto":
            continue
        assert resolve_strategy(strategy, 12) == strategy


def test_unknown_strategy_rejected():
    with pytest.raises(OptimizationError, match="unknown search strategy"):
        resolve_strategy("annealing", 4)
    problem, *_ = synthetic_problem(m=3)
    with pytest.raises(OptimizationError, match="unknown search strategy"):
        search_ordering(problem, 3, strategy="annealing")


def test_bad_beam_width_rejected():
    problem, *_ = synthetic_problem(m=3)
    with pytest.raises(OptimizationError, match="beam width"):
        beam_search(problem, 3, beam_width=0)


# --- exactness and counters ----------------------------------------------


def test_exact_strategies_agree_bit_for_bit():
    problem, query, *_ = synthetic_problem(m=5)
    sweep = search_ordering(problem, query.arity, "exhaustive")
    dp = search_ordering(problem, query.arity, "dp")
    bnb = search_ordering(problem, query.arity, "bnb")
    assert dp.cost == sweep.cost
    assert bnb.cost == sweep.cost
    assert sorted(dp.ordering) == sorted(sweep.ordering)
    assert dp.exact and bnb.exact and sweep.exact


def test_counters_reflect_search_shape():
    problem, query, *_ = synthetic_problem(m=5)
    m = query.arity
    sweep = search_ordering(problem, m, "exhaustive")
    assert sweep.orderings_considered == math.factorial(m)
    assert sweep.subsets_considered == 0
    dp = search_ordering(problem, m, "dp")
    assert dp.orderings_considered == 0
    assert dp.subsets_considered == 2**m - 1
    bnb = search_ordering(problem, m, "bnb")
    assert bnb.orderings_considered == 0
    assert 0 < bnb.subsets_considered <= 2**m - 1


def test_bnb_ordering_achieves_reported_cost():
    # Pruning must never decouple the returned chain from the returned
    # cost: re-pricing the ordering stage by stage reproduces it.
    problem, query, *_ = synthetic_problem(m=5, seed=123)
    outcome = search_ordering(problem, query.arity, "bnb")
    total = 0.0
    mask = 0
    for position, index in enumerate(outcome.ordering):
        if position == 0:
            stage = problem.first_stage(index)
        else:
            prefix = problem.first_prefix(outcome.ordering[0])
            for prior in outcome.ordering[1:position]:
                prefix = problem.shrink(prefix, prior)
            stage = problem.later_stage(index, prefix)
        total += stage.cost
        mask |= 1 << index
    # The search prices prefixes lowest-condition-first; this fold goes
    # in chain order, so allow float reassociation noise and nothing
    # more — an unsound backtrack would be off by whole stages.
    assert total == pytest.approx(outcome.cost, rel=1e-9)


def test_beam_is_marked_inexact_and_bounded():
    problem, query, *_ = synthetic_problem(m=5)
    survivors = beam_search(problem, query.arity, beam_width=3)
    assert 1 <= len(survivors) <= 3
    assert all(not s.exact for s in survivors)
    assert [s.cost for s in survivors] == sorted(s.cost for s in survivors)
    best = search_ordering(problem, query.arity, "exhaustive")
    assert survivors[0].cost >= best.cost  # can lose, never win


def test_wide_beam_recovers_the_optimum():
    # With beam_width >= the whole level, beam degenerates to DP and
    # must find the exact optimum (still reported as inexact).
    problem, query, *_ = synthetic_problem(m=4)
    sweep = search_ordering(problem, query.arity, "exhaustive")
    wide = search_ordering(
        problem, query.arity, "beam", beam_width=2**query.arity
    )
    assert wide.cost == sweep.cost
    assert not wide.exact


def test_default_beam_width_exported():
    assert DEFAULT_BEAM_WIDTH >= 1


# --- the subset search against the brute-force oracle ----------------------


def test_sja_sweep_matches_the_brute_force_spec_enumeration():
    # The optimizer memoizes stages and resolved cost terms internally;
    # the brute-force sweep of the adaptive spec space, which asks the
    # model afresh for every plan, must land on the same cost.
    __, query, federation, cost_model, estimator = synthetic_problem(
        m=4, n_sources=2
    )
    names = federation.source_names
    result = SJAOptimizer(search="exhaustive").optimize(
        query, names, cost_model, estimator
    )
    raw_best = ExhaustiveAdaptiveOptimizer().optimize(
        query, names, cost_model, estimator
    )
    # The oracle prices prefixes in chain order, the subset search
    # lowest-condition-first; identical up to float reassociation.
    assert result.estimated_cost == pytest.approx(
        raw_best.estimated_cost, rel=1e-9
    )


# --- optimizer integration ------------------------------------------------


@pytest.mark.parametrize("strategy", ["dp", "bnb"])
def test_sja_strategies_match_exhaustive_on_dmv(strategy):
    federation, query = dmv_fig1()
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    sweep = SJAOptimizer(search="exhaustive").optimize(
        query, federation.source_names, UniformCostModel(), estimator
    )
    other = SJAOptimizer(search=strategy).optimize(
        query, federation.source_names, UniformCostModel(), estimator
    )
    assert other.estimated_cost == sweep.estimated_cost
    assert other.search_strategy == strategy
    assert other.plans_considered == 0
    assert sweep.plans_considered == math.factorial(query.arity)


def test_result_summary_names_the_strategy():
    __, query, federation, cost_model, estimator = synthetic_problem(m=3)
    names = federation.source_names
    sweep = SJAOptimizer(search="exhaustive").optimize(
        query, names, cost_model, estimator
    )
    assert "plans considered (exhaustive)" in sweep.summary()
    dp = SJAOptimizer(search="dp").optimize(
        query, names, cost_model, estimator
    )
    assert "subsets considered (dp)" in dp.summary()
    assert "plans considered" not in dp.summary()


# --- structure ------------------------------------------------------------


def test_the_stage_rule_is_written_in_one_place():
    # Pricing a semijoin against a binding set *is* the Fig. 3/4 stage
    # rule.  The stage rules do it through the terms
    # ``StagedEstimatorProblem`` resolves once per condition, or the
    # price table it asks for per row, so outside the cost models only
    # that resolver, the generic plan coster and the tests' oracle may
    # ask a model for a semijoin price; anything else that calls
    # ``.sjq_cost(``, ``.sjq_pricer(`` or ``.sjq_price_table(`` has
    # grown a private copy of the rule.
    root = pathlib.Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in root.rglob("*.py")
    }
    callers = {
        name
        for name, text in sources.items()
        if any(
            call in text
            for call in (".sjq_cost(", ".sjq_pricer(", ".sjq_price_table(")
        )
    }
    allowed = {
        "optimize/search.py",
        "plans/cost.py",
        "plans/space.py",
    }
    assert {c for c in callers if not c.startswith("costs/")} <= allowed
    for rule in ("optimize/sj.py", "optimize/sja.py", "optimize/response_time.py"):
        assert ".sq_cost(" not in sources[rule], rule


def test_the_charge_formula_is_written_in_one_place():
    # ChargeCostModel and CalibratedCostModel differ in where the three
    # charges come from, not in what is done with them: the calibrated
    # model is the charge model over fitted charges, defining no cost
    # method of its own; the semijoin formula is
    # ``costs.charge.charge_sjq_pricer`` (batched:
    # ``charge_sjq_price_table``) and ``sjq_cost`` is that pricer
    # applied — no arithmetic of its own.
    assert issubclass(CalibratedCostModel, ChargeCostModel)
    assert not {
        "sq_cost", "sjq_cost", "sjq_pricer", "sjq_price_table", "lq_cost"
    } & set(vars(CalibratedCostModel))
    for model in (ChargeCostModel, CalibratedCostModel):
        applied = inspect.getsource(model.sjq_cost)
        assert "self.sjq_pricer(" in applied, model.__name__
        assert not any(
            isinstance(node, ast.BinOp)
            for node in ast.walk(ast.parse(textwrap.dedent(applied)))
        ), model.__name__
        assert "charge_sjq_pricer(" in inspect.getsource(model.sjq_pricer)
        assert "charge_sjq_price_table(" in inspect.getsource(
            model.sjq_price_table
        )
    # The scalar pricer and the batched table evaluate one formula.
    for priced in (charge_sjq_pricer, charge_sjq_price_table):
        assert "_semijoin_charge(" in inspect.getsource(priced), priced.__name__
