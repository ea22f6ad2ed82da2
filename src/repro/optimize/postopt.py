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

**One priced walk.**  SJA+ postoptimizes through :func:`postoptimize`,
the linear ``m·n`` pass of Sec. 4.1's ``O(m!·m·n + m·n)``: it prunes
each stage's semijoins and prices each operation as it is emitted, reads
the per-source totals off that pricing to choose the sources to load,
rewrites for loading and builds one plan.  The rewrite carries each
step's ``(cost, size)`` over unchanged where its inputs did not move — a
remote selection turned local selection keeps its size, which the
estimator computes from the same ``(condition, source)`` — and prices
afresh only the new loads, the semijoins rewritten to local selection ∩
binding set, and what reads a register they changed.  Its breakdown is
:func:`~repro.plans.cost.estimate_plan_cost` of the plan it returns, bit
for bit.  :func:`apply_difference_pruning` and
:func:`apply_source_loading` apply the same pruning and loading rules one
at a time (the C6 ablation and Fig. 5).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel
from repro.plans.cost import PlanCostBreakdown, StepPricer
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


def postoptimize(
    plan: Plan, cost_model: CostModel, estimator: SizeEstimator
) -> tuple[Plan, PlanCostBreakdown]:
    """Difference pruning then source loading, priced in one walk.

    Returns the plan ``apply_source_loading(apply_difference_pruning(plan),
    cost_model, estimator)`` returns — the same ``plan`` object when
    neither technique rewrites it — with its
    :func:`~repro.plans.cost.estimate_plan_cost` breakdown, and builds at
    most one :class:`Plan`.
    """
    pricer = StepPricer(cost_model, estimator).price_all(_pruned(plan))
    description = plan.description
    pruned = len(pricer.operations) > len(plan.operations)
    if pruned:
        description = _described(description, "difference pruning")
    loaded = _loaded(pricer, cost_model, estimator)
    if loaded is not None:
        pricer = loaded
        description = _described(description, "source loading")
    if pruned or loaded is not None:
        plan = _rebuilt(plan, pricer.operations, description)
    return plan, pricer.breakdown(plan.result)


def apply_difference_pruning(plan: Plan) -> Plan:
    """Prune semijoin binding sets with already-confirmed items (Sec. 4).

    Idempotent: pruned semijoins read difference registers rather than
    the stage input, so a second application changes nothing.  Plans
    without stage annotations are returned unchanged.
    """
    operations = list(_pruned(plan))
    if len(operations) == len(plan.operations):
        return plan
    return _rebuilt(
        plan, operations, _described(plan.description, "difference pruning")
    )


def apply_source_loading(
    plan: Plan, cost_model: CostModel, estimator: SizeEstimator
) -> Plan:
    """Replace a source's queries with one ``lq`` when that is cheaper.

    Prices ``plan`` with the generic plan coster to attribute estimated
    cost per source, compares against ``lq_cost``, and rewrites every
    beneficial source: remote selections become local selections over
    the loaded relation; remote semijoins become a local selection
    intersected with the original binding register.  The *same* plan
    object comes back when nothing was worth loading.
    """
    loaded = _loaded(
        StepPricer(cost_model, estimator).price_all(plan.operations),
        cost_model,
        estimator,
    )
    if loaded is None:
        return plan
    return _rebuilt(
        plan, loaded.operations, _described(plan.description, "source loading")
    )


def _pruned(plan: Plan) -> Iterator[Operation]:
    """The pruning rule: ``plan``'s operations with each stage's later
    semijoins bound to ``X_{i-1} − (outputs so far)``, emitted in plan
    order.  Each pruned semijoin comes after a new difference (and a new
    union when two or more outputs precede it), so more operations come
    out than ``plan`` holds exactly when a semijoin was pruned."""
    if not plan.stages:
        yield from plan.operations
        return
    register_stage: dict[str, int] = {}
    for stage_index, stage in enumerate(plan.stages):
        for register in stage.source_registers:
            register_stage[register] = stage_index

    prior_outputs: dict[int, list[str]] = {
        index: [] for index in range(len(plan.stages))
    }
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
                yield UnionOp(confirmed, tuple(prior))
            pruned = f"D{stage_index + 1}p{sequence}"
            yield DifferenceOp(pruned, op.input_register, confirmed)
            op = SemijoinOp(op.target, op.condition, op.source, pruned)
        yield op
        if is_stage_source_op:
            prior_outputs[stage_index].append(op.target)


def _loaded(
    priced: StepPricer, cost_model: CostModel, estimator: SizeEstimator
) -> StepPricer | None:
    """The loading rule over a priced plan: ``None`` when no source's
    queries cost more than its ``lq``, else the rewritten plan's steps,
    priced.

    A step none of whose inputs moved keeps its ``(cost, size)``; a
    remote selection turned local selection keeps its size.  The new
    loads, each rewritten semijoin's local selection and intersection,
    and every step reading a register one of those wrote are priced
    afresh, and what they write has moved.
    """
    per_source: dict[str, float] = {}
    for op, cost in zip(priced.operations, priced.costs):
        if isinstance(op, (SelectionOp, SemijoinOp)):
            per_source[op.source] = per_source.get(op.source, 0.0) + cost
    beneficial = set()
    for source, queried in per_source.items():
        lq_cost = cost_model.lq_cost(source)
        if math.isfinite(lq_cost) and lq_cost < queried:
            beneficial.add(source)
    if not beneficial:
        return None

    pricer = StepPricer(cost_model, estimator)
    load_register = {source: f"T_{source}" for source in beneficial}
    for source in sorted(beneficial):
        pricer.price(LoadOp(load_register[source], source))
    price, carry = pricer.price, pricer.carry
    moved: set[str] = set()
    for op, cost, size in zip(
        priced.operations, priced.costs, priced.output_sizes
    ):
        if isinstance(op, SemijoinOp) and op.source in beneficial:
            scratch = f"{op.target_register}loc"
            price(
                LocalSelectionOp(
                    scratch, op.condition, load_register[op.source]
                )
            )
            price(IntersectOp(op.target_register, (scratch, op.input_register)))
            moved.update((scratch, op.target_register))
        elif moved and not moved.isdisjoint(op.reads()):
            price(op)
            moved.add(op.target)
        else:
            if isinstance(op, SelectionOp) and op.source in beneficial:
                op, cost = LocalSelectionOp(
                    op.target_register, op.condition, load_register[op.source]
                ), 0.0
            carry(op, cost, size)
            moved.discard(op.target)
    return pricer


def _described(description: str, technique: str) -> str:
    return (description + " + " + technique).strip(" +")


def _rebuilt(
    plan: Plan, operations: Sequence[Operation], description: str
) -> Plan:
    """``plan``'s result, query and stages over rewritten operations."""
    return Plan(
        operations,
        result=plan.result,
        query=plan.query,
        description=description,
        stages=plan.stages,
    )
