"""The two postoptimization techniques of Sec. 4, as plan transformations.

**Difference pruning.**  Within a stage, once some source has already
confirmed items of ``X_{i-1}`` as satisfying ``c_i``, later semijoins in
the same stage need not re-send them: the binding set becomes
``X_{i-1} − (outputs so far)``.  Correctness: confirmed items are
already present in an earlier stage register, so the stage-end union
still contains them; subtracting items *outside* ``X_{i-1}`` (which
selection outputs may contain) is harmless because set difference only
removes elements of the left operand.  Under the subadditive/monotone
cost axioms this transformation never increases estimated cost.

**Source loading.**  If the total estimated cost of all queries a plan
sends to one source exceeds the cost of ``lq`` (fetching the whole
relation), replace them: load once, then evaluate each of that source's
conditions locally at the mediator.  Semijoin replacements intersect the
local selection with the original binding register to preserve exact
per-register semantics.  "This can be advantageous in fusion queries
involving extremely small source databases or large number of
conditions" (Sec. 4).

Both transformations take a *staged* plan (one carrying
:class:`~repro.plans.plan.StageInfo` annotations) and return an
*extended* plan — outside the simple-plan space, which is exactly why
the paper applies them as local postoptimizations rather than searching
the extended space up front (Sec. 4.1).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.plans.cost import PlanCostBreakdown, estimate_plan_cost
from repro.plans.operations import (
    DifferenceOp,
    IntersectOp,
    LoadOp,
    LocalSelectionOp,
    Operation,
    SelectionOp,
    SemijoinOp,
    UnionOp,
)
from repro.plans.plan import Plan


def apply_difference_pruning(plan: Plan) -> Plan:
    """Prune semijoin binding sets with already-confirmed items (Sec. 4).

    Idempotent: pruned semijoins read difference registers rather than
    the stage input, so a second application changes nothing.  Plans
    without stage annotations are returned unchanged.
    """
    if not plan.stages:
        return plan
    register_stage: dict[str, int] = {}
    for stage_index, stage in enumerate(plan.stages):
        for register in stage.source_registers:
            register_stage[register] = stage_index

    operations: list[Operation] = []
    prior_outputs: dict[int, list[str]] = {
        index: [] for index in range(len(plan.stages))
    }
    changed = False
    for op in plan.operations:
        stage_index = register_stage.get(op.target)
        is_stage_source_op = stage_index is not None and isinstance(
            op, (SelectionOp, SemijoinOp)
        )
        if (
            is_stage_source_op
            and isinstance(op, SemijoinOp)
            and op.input_register == plan.stages[stage_index].input_register
            and prior_outputs[stage_index]
        ):
            prior = prior_outputs[stage_index]
            sequence = len(prior)
            if len(prior) == 1:
                confirmed = prior[0]
            else:
                confirmed = f"U{stage_index + 1}p{sequence}"
                operations.append(UnionOp(confirmed, tuple(prior)))
            pruned = f"D{stage_index + 1}p{sequence}"
            operations.append(
                DifferenceOp(pruned, op.input_register, confirmed)
            )
            op = SemijoinOp(op.target, op.condition, op.source, pruned)
            changed = True
        operations.append(op)
        if is_stage_source_op:
            prior_outputs[stage_index].append(op.target)

    if not changed:
        return plan
    description = (plan.description + " + difference pruning").strip(" +")
    return Plan(
        operations,
        result=plan.result,
        query=plan.query,
        description=description,
        stages=plan.stages,
    )


def apply_source_loading(
    plan: Plan,
    cost_model: CostModel,
    estimator: SizeEstimator,
    only_sources: Sequence[str] | None = None,
    breakdown: PlanCostBreakdown | None = None,
) -> Plan:
    """Replace a source's queries with one ``lq`` when that is cheaper.

    Uses the generic plan coster to attribute estimated cost per source,
    compares against ``lq_cost``, and rewrites every beneficial source:
    remote selections become local selections over the loaded relation;
    remote semijoins become a local selection intersected with the
    original binding register.

    A caller that has already priced ``plan`` under the same model and
    estimator passes that ``breakdown`` in; the *same* plan object comes
    back when nothing was worth loading, so the breakdown still prices
    the result.
    """
    if breakdown is None:
        breakdown = estimate_plan_cost(plan, cost_model, estimator)
    per_source: dict[str, float] = {}
    for step in breakdown.steps:
        if isinstance(step.operation, (SelectionOp, SemijoinOp)):
            source = step.operation.source
            per_source[source] = per_source.get(source, 0.0) + step.cost

    candidates = set(per_source)
    if only_sources is not None:
        candidates &= set(only_sources)
    beneficial = {
        source
        for source in candidates
        if math.isfinite(cost_model.lq_cost(source))
        and cost_model.lq_cost(source) < per_source[source]
    }
    if not beneficial:
        return plan

    load_register = {source: f"T_{source}" for source in beneficial}
    operations: list[Operation] = [
        LoadOp(load_register[source], source) for source in sorted(beneficial)
    ]
    for op in plan.operations:
        if isinstance(op, SelectionOp) and op.source in beneficial:
            operations.append(
                LocalSelectionOp(
                    op.target, op.condition, load_register[op.source]
                )
            )
        elif isinstance(op, SemijoinOp) and op.source in beneficial:
            scratch = f"{op.target}loc"
            operations.append(
                LocalSelectionOp(
                    scratch, op.condition, load_register[op.source]
                )
            )
            operations.append(
                IntersectOp(op.target, (scratch, op.input_register))
            )
        else:
            operations.append(op)

    description = (plan.description + " + source loading").strip(" +")
    return Plan(
        operations,
        result=plan.result,
        query=plan.query,
        description=description,
        stages=plan.stages,
    )
