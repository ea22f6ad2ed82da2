"""Unit tests for the Plan container and its validation."""

from __future__ import annotations

import pytest

from repro.errors import PlanValidationError
from repro.plans.operations import (
    IntersectOp,
    LoadOp,
    LocalSelectionOp,
    OpKind,
    SelectionOp,
    SemijoinOp,
    UnionOp,
)
from repro.plans.plan import Plan
from repro.query.fusion import FusionQuery
from repro.relational.parser import parse_condition

DUI = parse_condition("V = 'dui'")
SP = parse_condition("V = 'sp'")


def simple_plan():
    return Plan(
        [
            SelectionOp("X1_1", DUI, "R1"),
            SelectionOp("X1_2", DUI, "R2"),
            UnionOp("X1", ("X1_1", "X1_2")),
            SemijoinOp("X2_1", SP, "R1", "X1"),
            UnionOp("X2", ("X2_1",)),
        ],
        result="X2",
    )


class TestValidation:
    def test_valid_plan_constructs(self):
        plan = simple_plan()
        assert len(plan) == 5
        assert plan.remote_op_count == 3

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanValidationError):
            Plan([], result="X")

    def test_undefined_read_rejected(self):
        with pytest.raises(PlanValidationError, match="undefined"):
            Plan([UnionOp("X", ("Y",))], result="X")

    def test_undefined_result_rejected(self):
        with pytest.raises(PlanValidationError, match="never defined"):
            Plan([SelectionOp("X", DUI, "R1")], result="Z")

    def test_relation_result_rejected(self):
        with pytest.raises(PlanValidationError, match="relation"):
            Plan([LoadOp("T", "R1")], result="T")

    def test_local_selection_needs_relation_register(self):
        with pytest.raises(PlanValidationError, match="holds items"):
            Plan(
                [
                    SelectionOp("X", DUI, "R1"),
                    LocalSelectionOp("Y", SP, "X"),
                ],
                result="Y",
            )

    def test_set_op_cannot_read_relation_register(self):
        with pytest.raises(PlanValidationError, match="holds relation"):
            Plan(
                [
                    LoadOp("T", "R1"),
                    SelectionOp("X", DUI, "R1"),
                    UnionOp("Y", ("T", "X")),
                ],
                result="Y",
            )

    def test_register_reassignment_allowed(self):
        # The paper's own idiom: X2 := X2 ∩ X1.
        plan = Plan(
            [
                SelectionOp("X1", DUI, "R1"),
                SelectionOp("X2", SP, "R1"),
                IntersectOp("X2", ("X1", "X2")),
            ],
            result="X2",
        )
        assert plan.result == "X2"


#: Every malformed-plan shape with the exact message validation gives it.
#: Within one step an undefined register wins over a mistyped one, even
#: when the mistyped register is read first; across steps the first bad
#: step wins; the result is checked last.
MALFORMED = {
    "empty plan": ([], "X", "a plan requires at least one operation"),
    "undefined register": (
        [SelectionOp("X1", DUI, "R1"), SemijoinOp("X2", SP, "R2", "Y")],
        "X2",
        "step 2 (X2 := sjq(V = 'sp', R2, Y)) reads undefined register 'Y'",
    ),
    "relation read as items": (
        [LoadOp("T", "R1"), SelectionOp("X", DUI, "R1"), UnionOp("Y", ("X", "T"))],
        "Y",
        "step 3 (Y := X ∪ T) reads 'T' as items but it holds relation",
    ),
    "items read as relation": (
        [SelectionOp("X", DUI, "R1"), LocalSelectionOp("Y", SP, "X")],
        "Y",
        "step 2 (Y := sq(V = 'sp', X)) reads 'X' as relation but it holds items",
    ),
    "undefined beats mistyped": (
        [LoadOp("T", "R1"), UnionOp("Y", ("T", "Z"))],
        "Y",
        "step 2 (Y := T ∪ Z) reads undefined register 'Z'",
    ),
    "first bad step wins": (
        [LoadOp("T", "R1"), UnionOp("Y", ("T",)), UnionOp("W", ("Q",))],
        "W",
        "step 2 (Y := T) reads 'T' as items but it holds relation",
    ),
    "undefined result": (
        [SelectionOp("X", DUI, "R1")],
        "Z",
        "result register 'Z' is never defined",
    ),
    "relation result": (
        [LoadOp("T", "R1")],
        "T",
        "result register 'T' holds a relation, not items",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_validation_message_is_pinned(case):
    operations, result, message = MALFORMED[case]
    with pytest.raises(PlanValidationError) as raised:
        Plan(operations, result=result)
    assert str(raised.value) == message


class TestIntrospection:
    def test_count_by_kind(self):
        counts = simple_plan().count_by_kind()
        assert counts[OpKind.SELECTION] == 2
        assert counts[OpKind.SEMIJOIN] == 1
        assert counts[OpKind.UNION] == 2

    def test_sources_used(self):
        assert simple_plan().sources_used() == frozenset({"R1", "R2"})

    def test_equality_and_hash(self):
        assert simple_plan() == simple_plan()
        assert hash(simple_plan()) == hash(simple_plan())

    def test_iteration(self):
        assert len(list(simple_plan())) == 5

    def test_with_description(self):
        renamed = simple_plan().with_description("test plan")
        assert renamed.description == "test plan"
        assert renamed == simple_plan()  # description not part of equality


class TestPretty:
    def test_pretty_with_condition_labels(self):
        query = FusionQuery("L", (DUI, SP))
        plan = Plan(
            [
                SelectionOp("X1_1", DUI, "R1"),
                UnionOp("X1", ("X1_1",)),
                SemijoinOp("X2_1", SP, "R1", "X1"),
                UnionOp("X2", ("X2_1",)),
            ],
            result="X2",
            query=query,
        )
        text = plan.pretty()
        assert "sq(c1, R1)" in text
        assert "sjq(c2, R1, X1)" in text
        assert "result: X2" in text

    def test_pretty_without_labels(self):
        text = simple_plan().pretty()
        assert "sq(V = 'dui', R1)" in text

    def test_pretty_numbers_steps(self):
        text = simple_plan().pretty()
        assert text.splitlines()[0].startswith("1)")
