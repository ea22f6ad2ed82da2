"""Plan-space enumeration, counting, and sampling.

Sec. 3 sizes the spaces the optimizers search: ``O(m! * 2^(m-2))``
distinct semijoin plans and ``O(m! * 2^(n(m-2)))`` semijoin-adaptive
plans.  This module provides:

* the raw (pre-deduplication) space sizes and generators over them,
  used by the C1 benchmark and by brute-force validation of SJ/SJA;
* the *shared staged-cost accounting* — the exact arithmetic of the
  Fig. 3/4 pseudocode — so that optimizers and enumerators cost plans
  identically (an optimality check is only meaningful when both sides
  use the same ruler);
* canonical deduplication of semijoin specs equivalent under the cost
  model (the source of the paper's ``2^(m-2)`` vs the raw ``2^(m-1)``);
* a sampler of *general* simple plans — staged shapes whose semijoin
  binding sets may come from any earlier stage — used to probe the
  claim that the best semijoin-adaptive plan is optimal among simple
  plans for ``m = 2`` / independent conditions.
"""

from __future__ import annotations

import math
import random
from itertools import permutations, product
from typing import Iterator, Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.plans.builder import StagedChoice
from repro.plans.operations import (
    IntersectOp,
    Operation,
    SelectionOp,
    SemijoinOp,
    UnionOp,
)
from repro.plans.plan import Plan, StageInfo
from repro.query.fusion import FusionQuery

# ----------------------------------------------------------------------
# Space sizes


def raw_semijoin_space_size(m: int) -> int:
    """Number of (ordering, per-stage choice) semijoin specs: m! * 2^(m-1)."""
    if m < 1:
        return 0
    return math.factorial(m) * 2 ** (m - 1)


def raw_adaptive_space_size(m: int, n: int) -> int:
    """Number of (ordering, per-source choice) specs: m! * 2^(n(m-1))."""
    if m < 1 or n < 1:
        return 0
    return math.factorial(m) * 2 ** (n * (m - 1))


# ----------------------------------------------------------------------
# Spec generators


def enumerate_semijoin_specs(
    m: int,
) -> Iterator[tuple[tuple[int, ...], tuple[bool, ...]]]:
    """All (ordering, semijoin_stages) semijoin-plan specs.

    ``semijoin_stages[i]`` is True when stage ``i`` is evaluated with
    semijoin queries at every source; stage 0 is always False.
    """
    for ordering in permutations(range(m)):
        for tail in product((False, True), repeat=m - 1):
            yield ordering, (False, *tail)


def enumerate_adaptive_specs(
    m: int, n: int
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[StagedChoice, ...], ...]]]:
    """All (ordering, per-source choices) semijoin-adaptive specs.

    Exponential in ``n * (m - 1)`` — use only for tiny instances (the
    brute-force validation of SJA's optimality).
    """
    first_stage = tuple([StagedChoice.SELECTION] * n)
    options = (StagedChoice.SELECTION, StagedChoice.SEMIJOIN)
    for ordering in permutations(range(m)):
        for flat in product(options, repeat=n * (m - 1)):
            later = tuple(
                tuple(flat[stage * n : (stage + 1) * n])
                for stage in range(m - 1)
            )
            yield ordering, (first_stage, *later)


# ----------------------------------------------------------------------
# Shared staged-cost accounting (the Figs. 3/4 arithmetic)


def staged_plan_cost(
    query: FusionQuery,
    ordering: Sequence[int],
    choices: Sequence[Sequence[StagedChoice]],
    source_names: Sequence[str],
    cost_model: CostModel,
    estimator: SizeEstimator,
) -> float:
    """Estimated cost of a staged spec, exactly as Figs. 3/4 account it.

    Stage 1 pays ``sum_j sq_cost(c_{o_1}, R_j)``; stage ``i`` pays, per
    source, the chosen option's cost with binding-set size ``|X_{i-1}|``
    estimated under independence.  Local operations are free.
    """
    conditions = [query.conditions[index] for index in ordering]
    total = 0.0
    prefix_size = 0.0
    for stage_index, condition in enumerate(conditions):
        if stage_index == 0:
            total += sum(
                cost_model.sq_cost(condition, source)
                for source in source_names
            )
            prefix_size = estimator.union_selection_size(condition)
            continue
        for source_index, source in enumerate(source_names):
            if choices[stage_index][source_index] is StagedChoice.SELECTION:
                total += cost_model.sq_cost(condition, source)
            else:
                total += cost_model.sjq_cost(condition, source, prefix_size)
        prefix_size *= estimator.global_selectivity(condition)
    return total


# ----------------------------------------------------------------------
# Equivalence-aware counting


def canonical_semijoin_key(
    ordering: Sequence[int], semijoin_stages: Sequence[bool]
) -> frozenset:
    """Canonical form of a semijoin spec w.r.t. the general cost model.

    A semijoin plan's cost depends only on, for each condition, (a) how
    it is evaluated and (b) — for semijoin stages — *which set* of
    conditions precedes it (that set determines ``X_{i-1}``).  Two specs
    with equal canonical keys cost the same under every cost model in
    the paper's family; deduplicating by this key yields the smaller
    count behind the paper's ``O(m! * 2^(m-2))``.
    """
    entries = []
    for position, condition_index in enumerate(ordering):
        if semijoin_stages[position]:
            predecessors = frozenset(ordering[:position])
            entries.append((condition_index, True, predecessors))
        else:
            entries.append((condition_index, False, None))
    return frozenset(entries)


def count_distinct_semijoin_plans(m: int) -> int:
    """Count cost-distinct semijoin plans by canonical-key dedup."""
    keys = {
        canonical_semijoin_key(ordering, stages)
        for ordering, stages in enumerate_semijoin_specs(m)
    }
    return len(keys)


# ----------------------------------------------------------------------
# General simple-plan sampling


def random_simple_plan(
    query: FusionQuery,
    source_names: Sequence[str],
    rng: random.Random,
) -> Plan:
    """Sample a simple plan more general than the semijoin-adaptive shape.

    The plan is staged, but each semijoin may draw its binding set from
    *any* earlier stage register, not just ``X_{i-1}`` — a strict
    superset of the semijoin-adaptive space within simple plans.  Every
    stage ends with ``X_i := X_{i-1} ∩ (∪_j X_i_j)``, which keeps the
    answer correct regardless of the binding-set choices.
    """
    m = query.arity
    n = len(source_names)
    ordering = list(range(m))
    rng.shuffle(ordering)
    conditions = [query.conditions[index] for index in ordering]

    operations: list[Operation] = []
    stages: list[StageInfo] = []
    for stage_index, condition in enumerate(conditions, start=1):
        registers = []
        for source_index, source in enumerate(source_names, start=1):
            register = f"X{stage_index}_{source_index}"
            registers.append(register)
            if stage_index == 1 or rng.random() < 0.5:
                operations.append(SelectionOp(register, condition, source))
            else:
                binding_stage = rng.randint(1, stage_index - 1)
                operations.append(
                    SemijoinOp(register, condition, source, f"X{binding_stage}")
                )
        combined = f"X{stage_index}"
        operations.append(UnionOp(combined, tuple(registers)))
        if stage_index > 1:
            operations.append(
                IntersectOp(combined, (f"X{stage_index - 1}", combined))
            )
        stages.append(
            StageInfo(
                condition=condition,
                input_register=f"X{stage_index - 1}" if stage_index > 1 else "",
                source_registers=tuple(registers),
                stage_register=combined,
            )
        )
    return Plan(
        operations,
        result=f"X{m}",
        query=query,
        description="sampled simple plan",
        stages=stages,
    )
