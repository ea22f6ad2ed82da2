"""Plan-search strategies: retiring the O(m!) optimizer loops.

The paper's SJ/SJA algorithms (Figs. 3-4) enumerate every condition
ordering — ``O(m!·m·n)`` — which caps the optimizers at m ≈ 8.  But the
staged cost recurrence has an *order-independent* state: the binding-set
size after stage ``i`` is ``U · Π g(c)`` over the **set** of conditions
processed so far, regardless of their order (independence assumption,
Sec. 3).  Stage cost is therefore a function of ``(condition, preceding
set)`` alone, and a Held-Karp-style dynamic program over condition
subsets,

    ``best[S] = min over last c ∈ S of best[S∖{c}] + stage(c, S∖{c})``

explores the same plan space as the factorial sweep in ``O(2^m·m·n)``
and returns a plan of *identical cost* (property-tested for m ≤ 6).

This module provides the search machinery shared by the staged
optimizers (:class:`~repro.optimize.sj.SJOptimizer`,
:class:`~repro.optimize.sja.SJAOptimizer`, and — over an additive
surrogate — :class:`~repro.optimize.response_time.
ResponseTimeSJAOptimizer`):

* ``exhaustive`` — the faithful permutation sweep, accelerated by the
  shared subset-keyed stage memo (stage outcomes repeat across the
  ``m!/|S|!``-fold permutations sharing a prefix set);
* ``dp`` — the exact subset DP with choice backtracking;
* ``bnb`` — the DP search run best-first with an *admissible* lower
  bound: every remaining condition is costed at its cheapest per-source
  choice under the fully shrunk prefix (the binding set only shrinks as
  conditions are processed, and semijoin cost is monotone in the
  binding size — the Sec. 2.4 monotonicity axiom), so pruned states can
  never hide a cheaper plan;
* ``beam`` — a width-``k`` beam over subset states for m past the
  ``2^m`` budget, clearly reported as inexact;
* ``auto`` — ``exhaustive`` for m ≤ :data:`AUTO_EXHAUSTIVE_MAX_M`
  (keeping the paper-faithful traces and ``orderings_considered``
  counters), ``dp`` up to :data:`AUTO_DP_MAX_M`, ``beam`` beyond.

Stages are priced two ways, to the same bits.  The subset DP visits
every ``(condition, preceding set)`` stage, so it prices them all in one
pass (:meth:`StagedCostFunction.later_stage_rows`): the prefix size of
every subset, built once; one row of sizes per condition; one
:meth:`~repro.costs.model.CostModel.sjq_price_table` call for the
query's conditions × sources × sizes semijoin prices; and the stage
rule's per-source comparison and in-order sum over whole rows.  It
searches on those costs and takes the winner's per-source choices from
the same pass: it asks for nothing stage by stage.  Every other
strategy visits a subset of the stages and prices each one as it goes
(:meth:`~StagedCostFunction.later_stage`), memoized by ``(condition,
preceding set)`` in the subset context; there
:class:`StagedEstimatorProblem` asks the cost model once per
``(condition, source)`` — the selection cost and a
:meth:`~repro.costs.model.CostModel.sjq_pricer`, the semijoin cost as a
function of ``|X|`` alone — for the stage rules to walk.  (The
factorial sweep keeps the memo: rows made its Fig. 1 plan slower.)

Finally, :func:`cost_along` costs one *given* ordering under a stage
rule, and :class:`StagedOptimizer` is the one ``optimize()`` every
staged optimizer shares: stage rule × ordering × plan builder.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Any, Callable, Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.errors import OptimizationError
from repro.optimize.base import OptimizationResult, Optimizer, _Stopwatch
from repro.plans.builder import IntersectPolicy, build_staged_plan
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Condition

#: The strategies accepted by ``search=`` everywhere.
STRATEGIES = ("auto", "exhaustive", "dp", "bnb", "beam", "anytime")

#: ``auto`` keeps the paper-faithful factorial sweep up to this arity
#: (6! = 720 orderings is still instant; existing ``m!`` counter
#: assertions and byte-identical traces stay valid).
AUTO_EXHAUSTIVE_MAX_M = 6

#: ``auto`` switches from the exact subset DP to beam search past this
#: arity (2^16 · m · n states exceed an interactive budget).
AUTO_DP_MAX_M = 16

#: Default beam width for the inexact fallback.
DEFAULT_BEAM_WIDTH = 8

#: Relative slack on branch-and-bound pruning tests.  Far above float
#: noise (~1e-13 accumulated over a chain), far below any real cost
#: difference — it only spares ulp-tied chains, keeping B&B's result
#: bit-identical to the subset DP's instead of "equal up to rounding".
BNB_PRUNE_SLACK = 1e-9


def resolve_strategy(strategy: str, m: int) -> str:
    """Map ``auto`` to a concrete strategy for arity ``m``."""
    if strategy not in STRATEGIES:
        known = ", ".join(STRATEGIES)
        raise OptimizationError(
            f"unknown search strategy {strategy!r}; choose from {known}"
        )
    if strategy != "auto":
        return strategy
    if m <= AUTO_EXHAUSTIVE_MAX_M:
        return "exhaustive"
    if m <= AUTO_DP_MAX_M:
        return "dp"
    return "beam"


class PlanningBudget:
    """A mutable per-query budget for the ``anytime`` search strategy.

    The serving tier arms one of these before every ``plan()`` call,
    sizing it from queue pressure and the query's remaining deadline.
    Two independent limits compose (whichever trips first wins):

    * ``max_subsets`` — a *node-count* budget on branch-and-bound
      expansions.  This is the limit deterministic mode uses: it is a
      pure function of the search state, so same-seed runs replay
      byte-identically no matter how fast the host machine is.
    * ``wall_clock_s`` — an elapsed-real-time budget, for the threaded
      backend where real latency is the thing being protected.  Never
      use it in deterministic mode: it would make plans (and therefore
      traces) machine-dependent.

    An unarmed budget (both limits ``None``) never expires, so
    ``search="anytime"`` without a budget is exact branch-and-bound.
    """

    def __init__(
        self,
        max_subsets: int | None = None,
        wall_clock_s: float | None = None,
    ):
        self.arm(max_subsets=max_subsets, wall_clock_s=wall_clock_s)

    def arm(
        self,
        max_subsets: int | None = None,
        wall_clock_s: float | None = None,
    ) -> "PlanningBudget":
        """(Re)set the limits and restart the wall clock; returns self."""
        if max_subsets is not None and max_subsets < 0:
            raise OptimizationError(
                f"max_subsets must be >= 0, got {max_subsets}"
            )
        if wall_clock_s is not None and not (
            math.isfinite(wall_clock_s) and wall_clock_s > 0
        ):
            raise OptimizationError(
                f"wall_clock_s must be finite and positive, got {wall_clock_s}"
            )
        self.max_subsets = max_subsets
        self.wall_clock_s = wall_clock_s
        self._started_at = (
            time.perf_counter() if wall_clock_s is not None else None
        )
        return self

    def exhausted(self, subsets_expanded: int) -> bool:
        """True once either limit has been reached."""
        if (
            self.max_subsets is not None
            and subsets_expanded >= self.max_subsets
        ):
            return True
        if self.wall_clock_s is not None:
            assert self._started_at is not None
            return time.perf_counter() - self._started_at >= self.wall_clock_s
        return False


@dataclass(frozen=True)
class StageOutcome:
    """One costed stage: its cost plus the per-source evaluation payload."""

    cost: float
    payload: Any


@dataclass(frozen=True)
class StageRows:
    """Later stages priced in one pass (:meth:`StagedCostFunction.
    later_stage_rows`): ``costs[index][column]`` and
    ``payload(index, column)`` are the cost and the payload of
    ``later_stage(index, prefix_rows[index][column])``, bit for bit."""

    costs: Sequence[Sequence[float]]
    payload: Callable[[int, int], Any]


class StagedCostFunction(ABC):
    """The order-independent staged recurrence behind the Fig. 3/4 loops.

    Implementations answer four questions about condition *indices*
    (positions in the query's condition tuple):

    * :meth:`first_stage` — cost/payload when the condition opens the
      plan (forced all-selection, Sec. 2.5);
    * :meth:`later_stage` — cost/payload given the binding-set estimate
      ``prefix_size`` left by the preceding conditions;
    * :meth:`first_prefix` — the binding-set estimate after the opening
      stage;
    * :meth:`shrink` — the binding-set estimate after one more
      condition.

    Exactness of the subset DP requires exactly what the paper's own
    per-ordering recurrence assumes: stage cost depends on the preceding
    conditions only through ``prefix_size``, and ``shrink`` is
    order-independent (multiplication by per-condition global
    selectivities).  Admissibility of the branch-and-bound bound
    additionally requires ``later_stage`` cost to be non-decreasing in
    ``prefix_size`` (the monotonicity axiom of Sec. 2.4).
    """

    @abstractmethod
    def first_stage(self, index: int) -> StageOutcome:
        """Cost the condition as the plan's opening (all-selection) stage."""

    @abstractmethod
    def later_stage(self, index: int, prefix_size: float) -> StageOutcome:
        """Cost the condition as a later stage against ``prefix_size``."""

    def later_stage_rows(self, prefix_rows: Sequence[Sequence[float]]) -> StageRows:
        """``later_stage(index, x)`` for every condition ``index`` and
        every ``x`` in ``prefix_rows[index]``: the rows the subset DP
        reads.  This default prices stage by stage and keeps the
        outcomes; override it to price the whole query at once."""
        outcomes = [
            [self.later_stage(index, size) for size in row]
            for index, row in enumerate(prefix_rows)
        ]
        return StageRows(
            [[outcome.cost for outcome in row] for row in outcomes],
            lambda index, column: outcomes[index][column].payload,
        )

    @abstractmethod
    def first_prefix(self, index: int) -> float:
        """Binding-set estimate after the condition opens the plan."""

    @abstractmethod
    def shrink(self, prefix_size: float, index: int) -> float:
        """Binding-set estimate after one more condition is processed."""


#: One source's prices for one condition: the selection cost and the
#: semijoin cost as a function of the binding-set size.
CostTerm = tuple[float, Callable[[float], float]]


class StagedEstimatorProblem(StagedCostFunction):
    """Shared prefix recurrence: ``U·g(c)`` then ``·g(c)`` per stage.

    Subclasses supply the stage costing; the binding-set arithmetic is
    identical across SJ, SJA, and the response-time surrogate because
    all three inherit the paper's independence model via the
    :class:`~repro.costs.estimates.SizeEstimator`.

    Nothing a stage prices depends on the ordering except ``|X|``, so
    the cost model is asked once per ``(condition, source)`` for the
    selection cost (:meth:`selection_costs`) and, for the stages priced
    one at a time, a semijoin pricer (:meth:`terms`) — or once per query
    for every semijoin price of the subset DP
    (:meth:`semijoin_prices`); the stage rules do the rest by
    arithmetic.
    """

    def __init__(
        self,
        conditions: Sequence[Condition],
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ):
        self.conditions = tuple(conditions)
        self.source_names = tuple(source_names)
        self.cost_model = cost_model
        self.estimator = estimator
        self._selections: dict[int, tuple[float, ...]] = {}
        self._terms: dict[int, tuple[CostTerm, ...]] = {}

    def selection_costs(self, index: int) -> tuple[float, ...]:
        """``sq_cost(c, R_j)`` of condition ``index`` per source, in
        ``source_names`` order, resolved on first use and held while the
        problem lives (one ``optimize()`` call)."""
        resolved = self._selections.get(index)
        if resolved is None:
            condition = self.conditions[index]
            resolved = self._selections[index] = tuple(
                self.cost_model.sq_cost(condition, source)
                for source in self.source_names
            )
        return resolved

    def terms(self, index: int) -> tuple[CostTerm, ...]:
        """Per source, in ``source_names`` order: ``sq_cost(c, R_j)`` and
        the ``|X| -> sjq_cost(c, R_j, |X|)`` pricer of condition
        ``index``, resolved on first use and held like
        :meth:`selection_costs`.  Only stages priced one at a time read
        the pricers; rows read :meth:`semijoin_prices` instead."""
        resolved = self._terms.get(index)
        if resolved is None:
            condition = self.conditions[index]
            resolved = self._terms[index] = tuple(
                (selection, self.cost_model.sjq_pricer(condition, source))
                for selection, source in zip(
                    self.selection_costs(index), self.source_names
                )
            )
        return resolved

    def semijoin_prices(
        self, prefix_rows: Sequence[Sequence[float]]
    ) -> Sequence[Sequence[Sequence[float]]]:
        """Every condition's semijoin prices at every source and every
        size of its row (``prefix_rows[index]``), conditions × sources ×
        sizes, in one :meth:`~repro.costs.model.CostModel.
        sjq_price_table` call: what a rule's
        :meth:`~StagedCostFunction.later_stage_rows` folds."""
        return self.cost_model.sjq_price_table(
            self.conditions, self.source_names, prefix_rows
        )

    def first_prefix(self, index: int) -> float:
        return self.estimator.union_selection_size(self.conditions[index])

    def shrink(self, prefix_size: float, index: int) -> float:
        return prefix_size * self.estimator.global_selectivity(
            self.conditions[index]
        )


@dataclass(frozen=True)
class SearchOutcome:
    """The winning ordering, its per-stage payloads, and search counters.

    Attributes:
        ordering: Condition indices in stage order.
        payloads: ``payloads[i]`` is the :class:`StageOutcome` payload of
            stage ``i`` (per-source choices, a uniform-stage flag, ...).
        cost: Total staged cost of the winner under the problem's own
            arithmetic.
        strategy: The concrete strategy that produced it (never "auto").
        orderings_considered: Complete orderings enumerated (0 unless
            exhaustive).
        subsets_considered: Subset states expanded (0 for exhaustive).
        exact: False for beam search (which may miss the optimum) and
            for an anytime search cut off by its budget.
        budget_exhausted: True when an anytime search returned its
            incumbent because the planning budget expired before the
            search space was exhausted.
    """

    ordering: tuple[int, ...]
    payloads: tuple[Any, ...]
    cost: float
    strategy: str
    orderings_considered: int = 0
    subsets_considered: int = 0
    exact: bool = True
    budget_exhausted: bool = False


class _SubsetContext:
    """Memoized prefixes and stage outcomes keyed by condition subsets.

    Prefixes are built lowest-condition-first so every strategy sees the
    *bit-identical* float for a given subset — which is what makes
    "DP cost == exhaustive cost" an exact statement rather than an
    up-to-rounding one.
    """

    def __init__(self, problem: StagedCostFunction, m: int):
        self.problem = problem
        self.m = m
        self._prefix: dict[int, float] = {}
        self._stage: dict[tuple[int, int], StageOutcome] = {}

    def prefix_of(self, mask: int) -> float:
        """Binding-set estimate after the conditions in ``mask``."""
        cached = self._prefix.get(mask)
        if cached is not None:
            return cached
        high = mask.bit_length() - 1
        rest = mask ^ (1 << high)
        if rest == 0:
            value = self.problem.first_prefix(high)
        else:
            value = self.problem.shrink(self.prefix_of(rest), high)
        self._prefix[mask] = value
        return value

    def prefixes(self) -> list[float]:
        """:meth:`prefix_of` every subset, indexed by mask (``0.0`` for
        the empty one): filled in ascending mask order, so each subset
        shrinks a memo hit."""
        return [0.0, *map(self.prefix_of, range(1, 1 << self.m))]

    def stage(self, index: int, premask: int) -> StageOutcome:
        """Cost condition ``index`` with ``premask`` already processed."""
        key = (index, premask)
        cached = self._stage.get(key)
        if cached is not None:
            return cached
        if premask == 0:
            outcome = self.problem.first_stage(index)
        else:
            outcome = self.problem.later_stage(index, self.prefix_of(premask))
        self._stage[key] = outcome
        return outcome


# ----------------------------------------------------------------------
# Strategies


def _exhaustive(context: _SubsetContext, m: int) -> SearchOutcome:
    """The faithful Fig. 3/4 sweep, with subset-memoized stage costs."""
    best_cost = math.inf
    best_ordering: tuple[int, ...] | None = None
    orderings = 0
    for ordering in permutations(range(m)):  # loop A
        orderings += 1
        mask = 0
        total = 0.0
        for index in ordering:  # loop B
            total += context.stage(index, mask).cost
            mask |= 1 << index
        if best_ordering is None or total < best_cost:
            best_cost = total
            best_ordering = ordering
    assert best_ordering is not None
    return SearchOutcome(
        ordering=best_ordering,
        payloads=_payloads_along(context, best_ordering),
        cost=best_cost,
        strategy="exhaustive",
        orderings_considered=orderings,
    )


def _payloads_along(
    context: _SubsetContext, ordering: Sequence[int]
) -> tuple[Any, ...]:
    """Stage payloads for a known ordering (memo hits throughout)."""
    payloads = []
    mask = 0
    for index in ordering:
        payloads.append(context.stage(index, mask).payload)
        mask |= 1 << index
    return tuple(payloads)


def _backtrack(choice: list[int], full: int) -> tuple[int, ...]:
    """Recover the stage order from per-subset last-condition choices."""
    ordering: list[int] = []
    mask = full
    while mask:
        index = choice[mask]
        ordering.append(index)
        mask ^= 1 << index
    ordering.reverse()
    return tuple(ordering)


def _stage_rows(context: _SubsetContext, m: int) -> tuple[list[list[int]], StageRows]:
    """Every later stage the subset DP visits, priced in one
    :meth:`~StagedCostFunction.later_stage_rows` pass:
    ``premasks[index]`` lists the preceding sets of condition ``index``,
    column for column of its row.  Each subset's prefix size is read
    once, from :meth:`_SubsetContext.prefixes`."""
    prefix = context.prefixes()
    full = (1 << m) - 1
    premasks = [
        [premask for premask in range(1, full + 1) if not premask & (1 << index)]
        for index in range(m)
    ]
    rows = context.problem.later_stage_rows(
        [[prefix[premask] for premask in row] for row in premasks]
    )
    return premasks, rows


def _dp(context: _SubsetContext, m: int) -> SearchOutcome:
    """Held-Karp subset DP: exact, O(2^m · m) stage costs, all priced in
    one pass, which also hands back the winner's payloads."""
    premasks, rows = _stage_rows(context, m)
    full = (1 << m) - 1
    costs = []
    for index in range(m):
        row = [math.inf] * (full + 1)  # a premask holding index: never read
        row[0] = context.stage(index, 0).cost
        for premask, cost in zip(premasks[index], rows.costs[index]):
            row[premask] = cost
        costs.append(row)
    best = [math.inf] * (full + 1)
    choice = [-1] * (full + 1)
    best[0] = 0.0
    for mask in range(1, full + 1):
        remaining = mask
        while remaining:
            bit = remaining & -remaining
            index = bit.bit_length() - 1
            remaining ^= bit
            premask = mask ^ bit
            total = best[premask] + costs[index][premask]
            if choice[mask] == -1 or total < best[mask]:
                best[mask] = total
                choice[mask] = index
    ordering = _backtrack(choice, full)
    first, *later = ordering
    payloads = [context.stage(first, 0).payload]
    premask = 1 << first
    for index in later:
        payloads.append(rows.payload(index, premasks[index].index(premask)))
        premask |= 1 << index
    return SearchOutcome(
        ordering=ordering,
        payloads=tuple(payloads),
        cost=best[full],
        strategy="dp",
        subsets_considered=full,
    )


def _greedy_chain(
    context: _SubsetContext, m: int
) -> tuple[tuple[int, ...], float]:
    """Cheapest-next-stage greedy ordering: the B&B incumbent."""
    mask = 0
    total = 0.0
    ordering: list[int] = []
    for __ in range(m):
        best_index = -1
        best_cost = math.inf
        for index in range(m):
            if mask & (1 << index):
                continue
            cost = context.stage(index, mask).cost
            if best_index == -1 or cost < best_cost:
                best_index = index
                best_cost = cost
        ordering.append(best_index)
        total += context.stage(best_index, mask).cost
        mask |= 1 << best_index
    return tuple(ordering), total


def _branch_and_bound(
    context: _SubsetContext,
    m: int,
    budget: PlanningBudget | None = None,
    anytime: bool = False,
) -> SearchOutcome:
    """Best-first subset search with an admissible remaining-cost bound.

    The bound costs every unprocessed condition at the *fully shrunk*
    prefix — the binding set left after all other conditions — which is
    the smallest binding it could ever face; with stage cost monotone in
    the binding size, the bound never exceeds the true remaining cost,
    so pruning preserves the exact optimum.  Each stack state carries
    its own chain, so the returned ordering always achieves the
    returned cost.

    Pruning tests carry :data:`BNB_PRUNE_SLACK` of relative slack: the
    bound and the dominance comparisons are admissible in *real*
    arithmetic, but float evaluation can overshoot by a few ulps, and
    without slack an ulp-tied optimal chain can be pruned — leaving a
    result one ulp above the subset DP's.  The slack keeps such chains
    alive, so B&B stays bit-identical to DP and the factorial sweep.

    With ``anytime`` the search carries an improving incumbent (seeded
    by the greedy chain, so there is *always* a valid plan to return)
    and stops expanding when ``budget`` reports itself exhausted — the
    best plan found so far comes back flagged ``budget_exhausted``,
    ``exact=False``.  A search that drains its stack before the budget
    trips is exact, identical to plain B&B.
    """
    full = (1 << m) - 1
    strategy = "anytime" if anytime else "bnb"
    if m == 1:
        return replace(_dp(context, m), strategy=strategy)

    def slacked(value: float) -> float:
        return value + BNB_PRUNE_SLACK * (abs(value) + 1.0)

    lower = [0.0] * m
    for index in range(m):
        rest = full ^ (1 << index)
        lower[index] = context.problem.later_stage(
            index, context.prefix_of(rest)
        ).cost

    def remaining_bound(mask: int) -> float:
        bound = 0.0
        missing = full ^ mask
        while missing:
            bit = missing & -missing
            missing ^= bit
            bound += lower[bit.bit_length() - 1]
        return bound

    incumbent_ordering, incumbent_cost = _greedy_chain(context, m)
    best: dict[int, float] = {0: 0.0}
    expanded = 0
    cut_short = False
    # Depth-first with children visited cheapest-outlook-first: good
    # incumbents arrive early, so later subtrees prune hard.
    stack: list[tuple[int, float, tuple[int, ...]]] = [(0, 0.0, ())]
    while stack:
        if budget is not None and budget.exhausted(expanded):
            cut_short = True
            break  # return the incumbent: best plan found in budget
        mask, cost, chain = stack.pop()
        if cost > slacked(best.get(mask, math.inf)):
            continue  # a cheaper path to this subset was found meanwhile
        expanded += 1
        children: list[tuple[float, float, int, tuple[int, ...]]] = []
        missing = full ^ mask
        while missing:
            bit = missing & -missing
            missing ^= bit
            index = bit.bit_length() - 1
            child_mask = mask | bit
            child_cost = cost + context.stage(index, mask).cost
            if child_cost >= slacked(best.get(child_mask, math.inf)):
                continue  # dominated by an earlier path to the subset
            if child_mask == full:
                if child_cost < incumbent_cost:
                    incumbent_cost = child_cost
                    incumbent_ordering = chain + (index,)
                    best[full] = child_cost
                continue
            outlook = child_cost + remaining_bound(child_mask)
            if outlook >= slacked(incumbent_cost):
                continue  # admissible bound: cannot beat the incumbent
            if child_cost < best.get(child_mask, math.inf):
                best[child_mask] = child_cost
            children.append((outlook, child_cost, child_mask, chain + (index,)))
        # Reverse-sorted push so the cheapest outlook is popped first.
        children.sort(reverse=True)
        for __, child_cost, child_mask, child_chain in children:
            stack.append((child_mask, child_cost, child_chain))

    return SearchOutcome(
        ordering=incumbent_ordering,
        payloads=_payloads_along(context, incumbent_ordering),
        cost=incumbent_cost,
        strategy=strategy,
        subsets_considered=expanded,
        exact=not cut_short,
        budget_exhausted=cut_short,
    )


def beam_search(
    problem: StagedCostFunction, m: int, beam_width: int = DEFAULT_BEAM_WIDTH
) -> tuple[SearchOutcome, ...]:
    """Width-``k`` beam over subset states; returns survivors, best first.

    Inexact: the optimum's prefix may be priced out of an early level.
    Exposed separately from :func:`search_ordering` because callers with
    a non-additive true objective (the response-time optimizer) re-rank
    the survivors by their own ruler.
    """
    if beam_width < 1:
        raise OptimizationError(
            f"beam width must be >= 1, got {beam_width}"
        )
    context = _SubsetContext(problem, m)
    level: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), 0)]
    states = 0
    for __ in range(m):
        frontier: dict[int, tuple[float, tuple[int, ...], int]] = {}
        for cost, chain, mask in level:
            for index in range(m):
                bit = 1 << index
                if mask & bit:
                    continue
                child = (
                    cost + context.stage(index, mask).cost,
                    chain + (index,),
                    mask | bit,
                )
                held = frontier.get(mask | bit)
                if held is None or child[0] < held[0]:
                    frontier[mask | bit] = child
        level = sorted(frontier.values())[:beam_width]
        states += len(level)
    return tuple(
        SearchOutcome(
            ordering=chain,
            payloads=_payloads_along(context, chain),
            cost=cost,
            strategy="beam",
            subsets_considered=states,
            exact=False,
        )
        for cost, chain, __ in level
    )


def search_ordering(
    problem: StagedCostFunction,
    m: int,
    strategy: str = "auto",
    beam_width: int = DEFAULT_BEAM_WIDTH,
    budget: PlanningBudget | None = None,
) -> SearchOutcome:
    """Find the cheapest condition ordering under ``problem``.

    ``budget`` applies only to ``strategy="anytime"`` (branch-and-bound
    with an improving incumbent): when the budget expires the best
    ordering found so far is returned, flagged ``budget_exhausted``.

    Example (two conditions, uniform costs — any ordering is optimal):
        >>> from repro.costs.model import UniformCostModel
        >>> from repro.costs.estimates import SizeEstimator
        >>> from repro.sources.statistics import ExactStatistics
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.optimize.sja import SJAStagedProblem
        >>> federation, query = dmv_fig1()
        >>> estimator = SizeEstimator(ExactStatistics(federation),
        ...                           federation.source_names)
        >>> problem = SJAStagedProblem(query.conditions,
        ...     federation.source_names, UniformCostModel(), estimator)
        >>> dp = search_ordering(problem, query.arity, "dp")
        >>> sweep = search_ordering(problem, query.arity, "exhaustive")
        >>> dp.cost == sweep.cost
        True
    """
    resolved = resolve_strategy(strategy, m)
    if resolved == "beam":
        return beam_search(problem, m, beam_width)[0]
    context = _SubsetContext(problem, m)
    if resolved == "exhaustive":
        return _exhaustive(context, m)
    if resolved == "dp":
        return _dp(context, m)
    if resolved == "anytime":
        return _branch_and_bound(context, m, budget=budget, anytime=True)
    return _branch_and_bound(context, m)


def cost_along(
    problem: StagedCostFunction, ordering: Sequence[int]
) -> SearchOutcome:
    """Cost one *given* condition ordering under ``problem`` (loop B).

    The binding-set estimate is threaded in chain order —
    ``first_prefix`` of the opening condition, then ``shrink`` per stage
    — which is how Figs. 3/4 write the recurrence, so the result agrees
    with :func:`repro.plans.space.staged_plan_cost` on the returned
    choices.  (The subset strategies build prefixes
    lowest-condition-first instead; the two agree up to float
    reassociation.)  Reported as an exhaustive sweep of a one-ordering
    space.
    """
    first, *later = ordering
    opening = problem.first_stage(first)
    cost = opening.cost
    payloads = [opening.payload]
    prefix_size = problem.first_prefix(first)
    for index in later:
        stage = problem.later_stage(index, prefix_size)
        cost += stage.cost
        payloads.append(stage.payload)
        prefix_size = problem.shrink(prefix_size, index)
    return SearchOutcome(
        ordering=tuple(ordering),
        payloads=tuple(payloads),
        cost=cost,
        strategy="exhaustive",
        orderings_considered=1,
    )


# ----------------------------------------------------------------------
# The staged optimizers' shared skeleton


class StagedOptimizer(Optimizer):
    """The staged family's one ``optimize()``.

    A staged optimizer is *stage rule × ordering × plan builder*:

    * ``stage_rule`` — a :class:`StagedEstimatorProblem` subclass whose
      stage payloads are per-source
      :class:`~repro.plans.builder.StagedChoice` tuples (Fig. 3's
      uniform rule, Fig. 4's per-source rule, or your own);
    * :meth:`_ordering` — how the condition ordering is found: a
      :func:`search_ordering` call, a fixed ordering priced by
      :func:`cost_along`, or a greedy chain;
    * ``intersect_policy`` / ``description`` — how
      :func:`~repro.plans.builder.build_staged_plan` renders the winner.
    """

    stage_rule: type[StagedEstimatorProblem]
    intersect_policy: IntersectPolicy = IntersectPolicy.ALWAYS
    description: str = ""

    @abstractmethod
    def _ordering(
        self, problem: StagedEstimatorProblem, m: int
    ) -> SearchOutcome:
        """Choose the stage order (and with it the per-stage payloads)."""

    def _plans_considered(self, outcome: SearchOutcome) -> int:
        """Complete plans costed by enumeration: one per ordering."""
        return outcome.orderings_considered

    def optimize(
        self,
        query: FusionQuery,
        source_names: Sequence[str],
        cost_model: CostModel,
        estimator: SizeEstimator,
    ) -> OptimizationResult:
        self._check_inputs(query, source_names)
        with _Stopwatch() as watch:
            problem = self.stage_rule(
                query.conditions, source_names, cost_model, estimator
            )
            outcome = self._ordering(problem, query.arity)
            plan = build_staged_plan(
                query,
                outcome.ordering,
                outcome.payloads,
                source_names,
                intersect_policy=self.intersect_policy,
                description=self.description,
            )
        return OptimizationResult(
            plan=plan,
            estimated_cost=self._finite_or_raise(
                outcome.cost, f"the {self.name} plan"
            ),
            optimizer=self.name,
            orderings_considered=outcome.orderings_considered,
            plans_considered=self._plans_considered(outcome),
            elapsed_s=watch.elapsed,
            search_strategy=outcome.strategy,
            subsets_considered=outcome.subsets_considered,
            budget_exhausted=outcome.budget_exhausted,
        )


class SearchedOptimizer(StagedOptimizer):
    """A staged optimizer whose ordering is a :func:`search_ordering`
    call (Figs. 3 and 4).  ``planning_budget`` is mutable and consulted
    per ``optimize()``: a serving tier re-arms it before each plan."""

    def __init__(
        self,
        search: str = "auto",
        beam_width: int = DEFAULT_BEAM_WIDTH,
        planning_budget: PlanningBudget | None = None,
    ):
        self.search = search
        self.beam_width = beam_width
        self.planning_budget = planning_budget

    def _ordering(
        self, problem: StagedEstimatorProblem, m: int
    ) -> SearchOutcome:
        return search_ordering(
            problem, m, self.search, self.beam_width, self.planning_budget
        )
