"""Relational substrate: schemas, relations, conditions, and set algebra.

The paper adopts a relational framework "only for simplicity" (Sec. 2.1):
every source wrapper exports a relation over a common set of attributes
that includes the merge attribute ``M``.  This package provides that
substrate — typed schemas, in-memory relations, a condition language with
an evaluator and a parser, and the item-set algebra (union, intersection,
difference, selection, semijoin) the mediator computes locally.
"""

from repro.relational.schema import Attribute, DataType, Schema
from repro.relational.relation import Relation
from repro.relational.conditions import (
    And,
    Between,
    Comparison,
    Condition,
    FalseCondition,
    InSet,
    IsNull,
    Like,
    Not,
    Or,
    TrueCondition,
)
from repro.relational.parser import parse_aggregate_list, parse_condition
from repro.relational.columnar import (
    ColumnarTable,
    numpy_available,
    numpy_enabled,
    set_numpy_enabled,
)
from repro.relational.items import ItemSet
from repro.relational.aggregates import (
    AggregateSpec,
    GroupedAggregates,
    aggregate_rows,
    finalize_partials,
    merge_partials,
    partial_aggregate_rows,
)
from repro.relational.algebra import (
    difference,
    intersect_many,
    project_items,
    select_items,
    select_rows,
    semijoin_items,
    union_many,
)

__all__ = [
    "Attribute",
    "DataType",
    "Schema",
    "Relation",
    "Condition",
    "Comparison",
    "Between",
    "InSet",
    "IsNull",
    "Like",
    "And",
    "Or",
    "Not",
    "TrueCondition",
    "FalseCondition",
    "parse_condition",
    "parse_aggregate_list",
    "ColumnarTable",
    "numpy_available",
    "numpy_enabled",
    "set_numpy_enabled",
    "ItemSet",
    "AggregateSpec",
    "GroupedAggregates",
    "aggregate_rows",
    "partial_aggregate_rows",
    "merge_partials",
    "finalize_partials",
    "select_rows",
    "select_items",
    "semijoin_items",
    "project_items",
    "union_many",
    "intersect_many",
    "difference",
]
