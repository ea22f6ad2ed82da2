"""Fusion-query optimizers.

The three algorithms of Sec. 3 plus the Sec. 4 postoptimizer and the
baselines used in evaluation:

* :class:`FilterOptimizer` — the O(mn) FILTER algorithm (best filter plan);
* :class:`SJOptimizer` — Fig. 3: optimal semijoin plan, O(m!·m·n);
* :class:`SJAOptimizer` — Fig. 4: optimal semijoin-adaptive plan, O(m!·m·n);
* :class:`SJAPlusOptimizer` — SJA + difference pruning + source loading
  (Sec. 4), O(m!·m·n + m·n);
* :class:`GreedySJAOptimizer` / :class:`SelectivityOrderOptimizer` —
  polynomial-time greedy variants in the spirit of the extended
  version's O(mn) algorithms;
* :class:`ExhaustiveSemijoinOptimizer` / :class:`ExhaustiveAdaptiveOptimizer`
  — brute-force searches over the full spec spaces (validation only);
* :class:`JoinOverUnionOptimizer` — the Sec. 5 "distribute the join over
  the union" strategy of resolution-based mediators (n^m SPJ subplans).

The staged family is *stage rule × ordering × plan builder*, with one
``optimize()`` (:class:`~repro.optimize.search.StagedOptimizer`): the
stage rule is Fig. 3's uniform choice
(:class:`~repro.optimize.sj.SJStagedProblem`) or Fig. 4's per-source
choice (:class:`~repro.optimize.sja.SJAStagedProblem`); the ordering
comes from a search (``search="auto"|"exhaustive"|"dp"|"bnb"|"beam"|
"anytime"`` in :mod:`repro.optimize.search` — the faithful factorial
sweep at small m, the exact subset DP and branch-and-bound beyond it,
beam search past the 2^m budget), is fixed (most selective first, priced
by :func:`cost_along`) or is a greedy cheapest-next-stage chain; and
:func:`~repro.plans.builder.build_staged_plan` renders the winner.
:func:`repro.plans.space.staged_plan_cost` is the independent oracle the
tests (and the brute-force optimizers) hold all of them to.
"""

from repro.optimize.base import OptimizationResult, Optimizer
from repro.optimize.search import (
    DEFAULT_BEAM_WIDTH,
    STRATEGIES,
    SearchOutcome,
    beam_search,
    cost_along,
    resolve_strategy,
    search_ordering,
)
from repro.optimize.filter import FilterOptimizer
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.optimize.greedy import (
    GreedySJAOptimizer,
    GreedySJOptimizer,
    SelectivityOrderOptimizer,
)
from repro.optimize.response_time import ResponseTimeSJAOptimizer
from repro.optimize.exhaustive import (
    ExhaustiveAdaptiveOptimizer,
    ExhaustiveSemijoinOptimizer,
)
from repro.optimize.union_pushdown import JoinOverUnionOptimizer
from repro.optimize.postopt import apply_difference_pruning, apply_source_loading
from repro.optimize.robust import (
    CandidateScore,
    RobustOptimizationResult,
    RobustOptimizer,
)
from repro.optimize.planning import Planning

__all__ = [
    "Optimizer",
    "OptimizationResult",
    "FilterOptimizer",
    "SJOptimizer",
    "SJAOptimizer",
    "SJAPlusOptimizer",
    "GreedySJAOptimizer",
    "GreedySJOptimizer",
    "SelectivityOrderOptimizer",
    "ResponseTimeSJAOptimizer",
    "ExhaustiveSemijoinOptimizer",
    "ExhaustiveAdaptiveOptimizer",
    "JoinOverUnionOptimizer",
    "apply_difference_pruning",
    "apply_source_loading",
    "RobustOptimizer",
    "RobustOptimizationResult",
    "CandidateScore",
    "Planning",
    "STRATEGIES",
    "DEFAULT_BEAM_WIDTH",
    "SearchOutcome",
    "beam_search",
    "cost_along",
    "resolve_strategy",
    "search_ordering",
]
