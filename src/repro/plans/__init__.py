"""Plan representation: operations, plans, classification, costing, spaces.

Plans are first-class data — ordered sequences of operations over named
item-set registers, exactly the notation of Figs. 2 and 5:

    1) X1_1 := sq(c1, R1)
    2) X1_2 := sq(c1, R2)
    3) X1   := X1_1 ∪ X1_2
    ...

Simple-plan operations (Sec. 2.3): remote ``sq`` / ``sjq`` plus local
union and intersection.  Postoptimized plans (Sec. 4) add ``lq`` loads,
local selections over loaded relations, and set difference — these make
a plan *extended* (outside the simple-plan space).

The same representation is consumed by the optimizers (construction),
the classifier (Sec. 2.5 taxonomy), the static coster (estimated cost
under a cost model), the executor (actual evaluation), and the pretty
printer (paper-style listings).
"""

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
from repro.plans.aggregate import AggregatePlan, AggregateTask, plan_aggregate
from repro.plans.plan import Plan, PlanStep, StageInfo
from repro.plans.builder import (
    StagedChoice,
    build_filter_plan,
    build_staged_plan,
)
from repro.plans.classify import PlanClass, classify
from repro.plans.cost import PlanCostBreakdown, estimate_plan_cost
from repro.plans.serialize import (
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)
from repro.plans.viz import plan_to_dot, schedule_gantt

__all__ = [
    "Operation",
    "SelectionOp",
    "SemijoinOp",
    "LoadOp",
    "LocalSelectionOp",
    "UnionOp",
    "IntersectOp",
    "DifferenceOp",
    "Plan",
    "PlanStep",
    "StageInfo",
    "AggregatePlan",
    "AggregateTask",
    "plan_aggregate",
    "StagedChoice",
    "build_staged_plan",
    "build_filter_plan",
    "PlanClass",
    "classify",
    "estimate_plan_cost",
    "PlanCostBreakdown",
    "plan_to_dict",
    "plan_from_dict",
    "plan_to_json",
    "plan_from_json",
    "plan_to_dot",
    "schedule_gantt",
]
