"""The Plan container: a validated sequence of operations.

A :class:`Plan` is an ordered operation list plus the name of the result
register.  Validation enforces single assignment per register being read
before redefinition is not required by the paper's notation (Fig. 2
reassigns ``X_2 := X_2 ∩ X_1``), so registers *may* be overwritten; what
must hold is def-before-use, type agreement (item-set vs relation
registers), and a defined result.

Plans built by the staged builder additionally carry :class:`StageInfo`
annotations — one per condition — that postoptimization passes use to
locate each stage's source operations without re-deriving structure.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from repro.errors import PlanValidationError
from repro.plans.operations import (
    Operation,
    OpKind,
    RegisterType,
    condition_sql,
)
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Condition


@dataclass(frozen=True)
class StageInfo:
    """Builder annotation: one condition's stage within a staged plan.

    Attributes:
        condition: The condition this stage evaluates.
        input_register: The register holding ``X_{i-1}`` (empty for the
            first stage).
        source_registers: The per-source output registers ``X_i_j`` in
            source order.
        stage_register: The register holding ``X_i`` after combination.
    """

    condition: Condition
    input_register: str
    source_registers: tuple[str, ...]
    stage_register: str


class PlanStep(NamedTuple):
    """One operation's place in its plan (see :attr:`Plan.steps`).

    ``index`` is its 0-based position, ``step`` the 1-based one.
    ``inputs`` maps each register the operation reads to the index of
    the operation that last wrote it, and ``in_degree`` counts those
    operations once each; ``dependents`` are the indices of the
    operations that read this one's value, in plan order, each once.
    ``kind``, ``target``, ``source``, ``remote`` and ``condition`` are
    how execution records name the operation: its :class:`OpKind`
    value, its register, its source (``""`` when local), whether it
    contacts a source and :func:`condition_sql`.
    """

    index: int
    step: int
    operation: Operation
    kind: str
    target: str
    source: str
    remote: bool
    condition: str
    inputs: dict[str, int]
    in_degree: int
    dependents: tuple[int, ...]


def _reject_reads(
    index: int,
    op: Operation,
    reads: tuple[str, ...],
    register_types: dict[str, RegisterType],
) -> None:
    """Raise for a step whose reads do not hold what it needs: its first
    undefined register if there is one, else its first mistyped one."""
    step = f"step {index + 1} ({op.render()})"
    for read in reads:
        if read not in register_types:
            raise PlanValidationError(f"{step} reads undefined register {read!r}")
    for position, read in enumerate(reads):
        wanted = (
            RegisterType.RELATION
            if op.kind is OpKind.LOCAL_SELECTION and position == 0
            else RegisterType.ITEMS
        )
        actual = register_types[read]
        if actual is not wanted:
            raise PlanValidationError(
                f"{step} reads {read!r} as {wanted.value} but it holds "
                f"{actual.value}"
            )


class Plan:
    """An executable fusion-query plan.

    Example:
        >>> from repro.plans.operations import SelectionOp, UnionOp
        >>> from repro.relational.parser import parse_condition
        >>> c = parse_condition("V = 'dui'")
        >>> plan = Plan(
        ...     [SelectionOp("X1", c, "R1"), SelectionOp("X2", c, "R2"),
        ...      UnionOp("X", ("X1", "X2"))],
        ...     result="X",
        ... )
        >>> plan.remote_op_count
        2
    """

    def __init__(
        self,
        operations: Sequence[Operation],
        result: str,
        query: FusionQuery | None = None,
        description: str = "",
        stages: Sequence[StageInfo] = (),
    ):
        self.operations: tuple[Operation, ...] = tuple(operations)
        self.result = result
        self.query = query
        self.description = description
        self.stages: tuple[StageInfo, ...] = tuple(stages)
        self._validate()

    # ------------------------------------------------------------------

    def _validate(self) -> None:
        """Def-before-use, register types and a defined items result, in
        one walk that asks each operation for its ``reads()`` once."""
        if not self.operations:
            raise PlanValidationError("a plan requires at least one operation")
        register_types: dict[str, RegisterType] = {}
        held = register_types.get
        items = RegisterType.ITEMS
        for index, op in enumerate(self.operations):
            reads = op.reads()
            # A local selection reads its loaded relation; every other
            # read is an item set.
            wanted = (
                RegisterType.RELATION if op.kind is OpKind.LOCAL_SELECTION else items
            )
            for read in reads:
                if held(read) is not wanted:
                    _reject_reads(index, op, reads, register_types)
                wanted = items
            register_types[op.target] = op.result_type
        result = held(self.result)
        if result is None:
            raise PlanValidationError(
                f"result register {self.result!r} is never defined"
            )
        if result is not items:
            raise PlanValidationError(
                f"result register {self.result!r} holds a relation, not items"
            )

    # ------------------------------------------------------------------
    # Introspection

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plan):
            return NotImplemented
        return (
            self.operations == other.operations and self.result == other.result
        )

    def __hash__(self) -> int:
        return hash((self.operations, self.result))

    def __repr__(self) -> str:
        return (
            f"Plan({len(self.operations)} ops, result={self.result!r}"
            f"{', ' + self.description if self.description else ''})"
        )

    @property
    def remote_operations(self) -> tuple[Operation, ...]:
        """The cost-bearing operations, in order."""
        return tuple(op for op in self.operations if op.remote)

    @property
    def remote_op_count(self) -> int:
        return len(self.remote_operations)

    @functools.cached_property
    def steps(self) -> tuple[PlanStep, ...]:
        """Every operation's :class:`PlanStep`, derived once per plan.

        The plan never changes, so its first executor derives the
        dataflow and every later run of the same plan object (a plan
        cache hit) reads it again.
        """
        writer_of: dict[str, int] = {}
        rows = []
        dependents: list[list[int]] = [[] for __ in self.operations]
        for index, op in enumerate(self.operations):
            # Def-before-use was validated at construction.
            reads = op.reads()
            inputs = dict(zip(reads, map(writer_of.__getitem__, reads)))
            producers = set(inputs.values())
            for producer in producers:
                dependents[producer].append(index)
            target = op.target
            rows.append(
                (
                    index,
                    index + 1,
                    op,
                    op.kind.value,
                    target,
                    getattr(op, "source", ""),
                    op.remote,
                    condition_sql(op),
                    inputs,
                    len(producers),
                )
            )
            writer_of[target] = index
        return tuple(
            PlanStep(*row, tuple(readers))
            for row, readers in zip(rows, dependents)
        )

    @functools.cached_property
    def result_writer(self) -> int:
        """Index of the operation whose value is the answer: the last
        writer of the result register."""
        return max(
            index
            for index, op in enumerate(self.operations)
            if op.target == self.result
        )

    def count_by_kind(self) -> dict[OpKind, int]:
        """Operation histogram, e.g. for plan-shape assertions in tests."""
        counts: dict[OpKind, int] = {}
        for op in self.operations:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def sources_used(self) -> frozenset[str]:
        """Names of sources the plan contacts."""
        return frozenset(
            op.source  # type: ignore[attr-defined]
            for op in self.operations
            if op.remote
        )

    def condition_labels(self) -> dict[Condition, str]:
        """Map conditions to ``c_i`` labels using the attached query."""
        if self.query is None:
            return {}
        return {
            condition: f"c{i + 1}"
            for i, condition in enumerate(self.query.conditions)
        }

    def pretty(self, use_labels: bool = True) -> str:
        """Numbered, paper-style listing of the plan.

        Example output (compare Fig. 2(c))::

            1) X1_1 := sq(c1, R1)
            2) X1_2 := sq(c1, R2)
            3) X1 := X1_1 ∪ X1_2
            ...
        """
        labels = self.condition_labels() if use_labels else None
        width = len(str(len(self.operations)))
        lines = []
        if self.description:
            lines.append(f"-- {self.description}")
        for index, op in enumerate(self.operations, start=1):
            lines.append(f"{str(index).rjust(width)}) {op.render(labels)}")
        lines.append(f"result: {self.result}")
        return "\n".join(lines)

    def with_description(self, description: str) -> "Plan":
        """A copy of this plan with a different description.  The
        operations are the ones already validated, so they are not
        validated again."""
        renamed = copy.copy(self)
        renamed.description = description
        return renamed
