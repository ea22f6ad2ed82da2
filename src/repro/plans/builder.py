"""Constructing staged plans — the shapes of Figs. 2, 3, and 4.

A *staged* plan processes conditions one at a time in some order
(Sec. 2.5).  Stage 1 always evaluates its condition with selection
queries at every source; stage ``i >= 2`` evaluates per source with
either a selection or a semijoin against ``X_{i-1}``; each stage ends by
combining the per-source registers.

The builder is shared by all optimizers: FILTER passes all-selection
choices, SJ passes per-stage-uniform choices, SJA passes per-source
choices.  The emitted operation sequence matches the paper's figures,
including the register-reassignment idiom (``X2 := X2 ∩ X1``).
"""

from __future__ import annotations

import enum
from typing import Any, Sequence

from repro.errors import PlanValidationError
from repro.plans.operations import (
    DifferenceOp,
    IntersectOp,
    ObservedOp,
    Operation,
    SelectionOp,
    SemijoinOp,
    UnionOp,
)
from repro.plans.plan import Plan, StageInfo
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Condition


class StagedChoice(enum.Enum):
    """How one (condition, source) pair is evaluated."""

    SELECTION = "sq"
    SEMIJOIN = "sjq"


class IntersectPolicy(enum.Enum):
    """When to emit the stage-end intersection with ``X_{i-1}``.

    * AUTO — only when the stage contains at least one selection (a pure
      semijoin stage already returns subsets of ``X_{i-1}``); this is
      what Figs. 2(b) and 3 do.
    * ALWAYS — unconditionally, matching the SJA pseudocode of Fig. 4.
    """

    AUTO = "auto"
    ALWAYS = "always"


def stage_register(i: int) -> str:
    """Name of the combined register after stage ``i`` (1-based)."""
    return f"X{i}"


def source_register(i: int, j: int) -> str:
    """Name of the per-source register for stage ``i``, source ``j``."""
    return f"X{i}_{j}"


def build_staged_plan(
    query: FusionQuery,
    ordering: Sequence[int],
    choices: Sequence[Sequence[StagedChoice]],
    source_names: Sequence[str],
    intersect_policy: IntersectPolicy = IntersectPolicy.AUTO,
    description: str = "",
) -> Plan:
    """Build the staged plan for a given condition ordering and choices.

    Args:
        query: The fusion query; ``ordering`` permutes its conditions.
        ordering: A permutation of ``range(query.arity)`` giving the
            stage order ``c_{o_1}, ..., c_{o_m}``.
        choices: ``choices[i][j]`` is the evaluation choice for stage
            ``i`` (0-based) at source ``j``.  Stage 0 must be all
            SELECTION (a semijoin needs a binding set, and none exists
            yet — Sec. 2.5: "the first condition in a semijoin plan is
            always evaluated by selection queries").
        source_names: Sources in federation order.
        intersect_policy: See :class:`IntersectPolicy`.
        description: Free-text label stored on the plan.

    Returns:
        A validated :class:`~repro.plans.plan.Plan` with stage
        annotations.
    """
    m = query.arity
    n = len(source_names)
    if sorted(ordering) != list(range(m)):
        raise PlanValidationError(f"ordering {ordering!r} is not a permutation")
    if len(choices) != m or any(len(stage) != n for stage in choices):
        raise PlanValidationError(
            f"choices must be {m} stages x {n} sources"
        )
    if any(choice is not StagedChoice.SELECTION for choice in choices[0]):
        raise PlanValidationError(
            "the first stage must be evaluated by selection queries"
        )

    operations: list[Operation] = []
    stages: list[StageInfo] = []
    conditions = [query.conditions[index] for index in ordering]

    for stage_index, condition in enumerate(conditions, start=1):
        previous = stage_register(stage_index - 1) if stage_index > 1 else ""
        registers: list[str] = []
        any_selection = False
        for source_index, source in enumerate(source_names, start=1):
            register = source_register(stage_index, source_index)
            registers.append(register)
            choice = choices[stage_index - 1][source_index - 1]
            if choice is StagedChoice.SELECTION:
                any_selection = True
                operations.append(SelectionOp(register, condition, source))
            else:
                operations.append(
                    SemijoinOp(register, condition, source, previous)
                )
        combined = stage_register(stage_index)
        operations.append(UnionOp(combined, tuple(registers)))
        needs_intersection = stage_index > 1 and (
            intersect_policy is IntersectPolicy.ALWAYS or any_selection
        )
        if needs_intersection:
            # The paper's reassignment idiom: X_i := X_{i-1} ∩ X_i.
            operations.append(IntersectOp(combined, (previous, combined)))
        stages.append(
            StageInfo(
                condition=condition,
                input_register=previous,
                source_registers=tuple(registers),
                stage_register=combined,
            )
        )

    return Plan(
        operations,
        result=stage_register(m),
        query=query,
        description=description,
        stages=stages,
    )


def build_stage_plan(
    condition: Condition,
    choices: Sequence[StagedChoice],
    source_names: Sequence[str],
    observed: Any = None,
) -> Plan:
    """One stage as a plan of its own: an adaptive round.

    ``observed`` is the binding set ``X`` the rounds before observed
    (``None`` opens the query: selections only, else the plan reads an
    undefined ``X`` and is refused).  Sources are visited in federation
    order, as SJA's source loop prices them.  A selection
    ``Y_j := sq(c, R_j)`` is intersected with ``X`` and unioned into the
    running confirmed set ``C_j``; a semijoin sends ``D_j := X − C_{j-1}``,
    so no item an earlier source of the stage confirmed is sent again
    (Sec. 4's difference pruning, kept by the dataflow).  The result
    register holds the stage's ``X_i``.
    """
    operations: list[Operation] = []
    if observed is not None:
        operations.append(ObservedOp("X", observed))
    confirmed = ""
    for j, (source, choice) in enumerate(zip(source_names, choices), start=1):
        answer = f"Y{j}"
        if choice is StagedChoice.SELECTION:
            operations.append(SelectionOp(answer, condition, source))
            if observed is not None:
                operations.append(IntersectOp(answer, (answer, "X")))
        else:
            sent = "X"
            if confirmed:
                sent = f"D{j}"
                operations.append(DifferenceOp(sent, "X", confirmed))
            operations.append(SemijoinOp(answer, condition, source, sent))
        if confirmed:
            operations.append(UnionOp(f"C{j}", (confirmed, answer)))
            answer = f"C{j}"
        confirmed = answer
    return Plan(operations, result=confirmed, description="adaptive stage")


def all_selection_choices(m: int, n: int) -> list[list[StagedChoice]]:
    """The choice matrix of a filter plan: selections everywhere."""
    return [[StagedChoice.SELECTION] * n for __ in range(m)]


def build_filter_plan(
    query: FusionQuery,
    source_names: Sequence[str],
    description: str = "filter plan",
) -> Plan:
    """The (unique up to ordering) best filter plan of Sec. 3.

    Pushes every condition to every source (``m * n`` selection queries)
    and combines results — Fig. 2(a).  Ordering is irrelevant to its
    cost, so the identity ordering is used.
    """
    m = query.arity
    n = len(source_names)
    return build_staged_plan(
        query,
        ordering=list(range(m)),
        choices=all_selection_choices(m, n),
        source_names=source_names,
        intersect_policy=IntersectPolicy.AUTO,
        description=description,
    )


def uniform_choices(
    m: int, n: int, semijoin_stages: Sequence[bool]
) -> list[list[StagedChoice]]:
    """Choice matrix for a *semijoin plan*: per-stage uniform decisions.

    ``semijoin_stages[i]`` selects semijoin evaluation for stage ``i``
    (must be False for stage 0).
    """
    if len(semijoin_stages) != m:
        raise PlanValidationError("semijoin_stages must have one entry per stage")
    if m > 0 and semijoin_stages[0]:
        raise PlanValidationError("stage 0 cannot be a semijoin stage")
    return [
        [
            StagedChoice.SEMIJOIN if use_semijoin else StagedChoice.SELECTION
            for __ in range(n)
        ]
        for use_semijoin in semijoin_stages
    ]
