"""The operation vocabulary of fusion-query plans.

Each operation writes one register (its ``target``) and reads zero or
more registers.  Registers hold either *item sets* (the normal case) or
*relations* (targets of ``lq`` loads).  Operations are immutable values;
plans are sequences of them.

Each operation also says what it computes, once, for every executor:
a remote operation's :meth:`~Operation.call` asks a source's wrapper
for its answer, a local operation's :meth:`~Operation.evaluate` combines
registers at the mediator.  Both read their inputs through ``fetch``, a
``register -> value`` callable, so the sequential executor (one register
dict) and the runtime engine (values on tasks) share the semantics.

Remote operations (cost-bearing, Sec. 2.3/2.4):

* :class:`SelectionOp` — ``X := sq(c, R_j)``
* :class:`SemijoinOp`  — ``X := sjq(c, R_j, Y)``
* :class:`LoadOp`      — ``T := lq(R_j)`` (Sec. 4)

Local operations (free at the mediator):

* :class:`UnionOp`, :class:`IntersectOp` — simple-plan combinators
* :class:`DifferenceOp` — SJA+'s semijoin-set pruning (Sec. 4)
* :class:`LocalSelectionOp` — ``X := sq(c, T)`` over a loaded relation
* :class:`ObservedOp` — ``X := <a set the mediator holds>``: an adaptive
  round's observed binding set (no wire, no serialized or costed form)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.relational.algebra import (
    difference,
    intersect_many,
    local_selection,
    union_many,
)
from repro.relational.conditions import Condition

#: Reads one input register's value: ``fetch(register) -> value``.
Fetch = Callable[[str], Any]


class RegisterType(enum.Enum):
    """What a register holds."""

    ITEMS = "items"
    RELATION = "relation"


class OpKind(enum.Enum):
    """Discriminator used by the classifier and the executor."""

    SELECTION = "sq"
    SEMIJOIN = "sjq"
    LOAD = "lq"
    LOCAL_SELECTION = "local-sq"
    UNION = "union"
    INTERSECT = "intersect"
    DIFFERENCE = "difference"
    OBSERVED = "observed"


class Operation:
    """Base class for plan operations (see module docstring)."""

    __slots__ = ()

    kind: OpKind
    #: True for operations that contact a source (and therefore cost).
    remote: bool = False
    #: What the target register holds afterwards.
    result_type: RegisterType = RegisterType.ITEMS

    @property
    def target(self) -> str:
        raise NotImplementedError

    def reads(self) -> tuple[str, ...]:
        """Registers this operation consumes, in order."""
        raise NotImplementedError

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        """Paper-style rendering; ``labels`` maps conditions to c_i names."""
        raise NotImplementedError

    def call(self, source: Any, fetch: Fetch) -> Any:
        """A remote operation's answer from ``source``'s wrapper.

        The call always answers: the runtime engine judges whether the
        attempt failed on the wire (:mod:`repro.runtime.faults`) and retries it.
        """
        raise NotImplementedError

    def evaluate(self, fetch: Fetch) -> Any:
        """A local operation's value, computed at the mediator."""
        raise NotImplementedError

    def _label(
        self, condition: Condition, labels: dict[Condition, str] | None
    ) -> str:
        if labels and condition in labels:
            return labels[condition]
        return condition.to_sql()


def condition_sql(operation: Operation) -> str:
    """The operation's condition as SQL (``""`` when it has none)."""
    condition = getattr(operation, "condition", None)
    return "" if condition is None else condition.sql


@dataclass(frozen=True)
class SelectionOp(Operation):
    """``target := sq(condition, R_source)`` — a remote selection query."""

    target_register: str
    condition: Condition
    source: str

    kind = OpKind.SELECTION
    remote = True

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return ()

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return (
            f"{self.target_register} := "
            f"sq({self._label(self.condition, labels)}, {self.source})"
        )

    def call(self, source: Any, fetch: Fetch) -> Any:
        return source.selection(self.condition)


@dataclass(frozen=True)
class SemijoinOp(Operation):
    """``target := sjq(condition, R_source, input)`` — a remote semijoin."""

    target_register: str
    condition: Condition
    source: str
    input_register: str

    kind = OpKind.SEMIJOIN
    remote = True

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return (self.input_register,)

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return (
            f"{self.target_register} := "
            f"sjq({self._label(self.condition, labels)}, {self.source}, "
            f"{self.input_register})"
        )

    def call(self, source: Any, fetch: Fetch) -> Any:
        return source.semijoin(self.condition, fetch(self.input_register))


@dataclass(frozen=True)
class LoadOp(Operation):
    """``target := lq(R_source)`` — load the source's entire relation."""

    target_register: str
    source: str

    kind = OpKind.LOAD
    remote = True
    result_type = RegisterType.RELATION

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return ()

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return f"{self.target_register} := lq({self.source})"

    def call(self, source: Any, fetch: Fetch) -> Any:
        return source.load()


@dataclass(frozen=True)
class LocalSelectionOp(Operation):
    """``target := sq(condition, input)`` applied locally on a loaded relation.

    The paper's footnote 7 notes the input is, strictly speaking, a set of
    tuples (condition attributes are needed), which is why the input must
    be a RELATION register produced by a :class:`LoadOp`.
    """

    target_register: str
    condition: Condition
    input_register: str

    kind = OpKind.LOCAL_SELECTION
    remote = False

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return (self.input_register,)

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return (
            f"{self.target_register} := "
            f"sq({self._label(self.condition, labels)}, {self.input_register})"
        )

    def evaluate(self, fetch: Fetch) -> Any:
        return local_selection(fetch(self.input_register), self.condition)


@dataclass(frozen=True)
class UnionOp(Operation):
    """``target := in_1 ∪ in_2 ∪ ...`` — free local combination."""

    target_register: str
    inputs: tuple[str, ...]

    kind = OpKind.UNION
    remote = False

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("union requires at least one input register")

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return self.inputs

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return f"{self.target_register} := " + " ∪ ".join(self.inputs)

    def evaluate(self, fetch: Fetch) -> Any:
        return union_many(map(fetch, self.inputs))


@dataclass(frozen=True)
class IntersectOp(Operation):
    """``target := in_1 ∩ in_2 ∩ ...`` — free local combination."""

    target_register: str
    inputs: tuple[str, ...]

    kind = OpKind.INTERSECT
    remote = False

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("intersection requires at least one input register")

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return self.inputs

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return f"{self.target_register} := " + " ∩ ".join(self.inputs)

    def evaluate(self, fetch: Fetch) -> Any:
        return intersect_many(map(fetch, self.inputs))


@dataclass(frozen=True)
class DifferenceOp(Operation):
    """``target := left − right`` — SJA+'s binding-set pruning (Sec. 4)."""

    target_register: str
    left: str
    right: str

    kind = OpKind.DIFFERENCE
    remote = False

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return (self.left, self.right)

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return f"{self.target_register} := {self.left} − {self.right}"

    def evaluate(self, fetch: Fetch) -> Any:
        return difference(fetch(self.left), fetch(self.right))


@dataclass(frozen=True)
class ObservedOp(Operation):
    """``target := items`` — a set the mediator already holds.

    An adaptive round (:meth:`repro.mediator.session.Mediator.answer_adaptive`)
    reads the ``X_{i-1}`` the rounds before it observed through one of
    these.  It reads nothing, so it is evaluated at the start of the run
    like any other local operation.  It is a value, not a recipe, so
    plan serialization and static costing refuse it.
    """

    target_register: str
    items: Any = field(repr=False)

    kind = OpKind.OBSERVED
    remote = False

    @property
    def target(self) -> str:
        return self.target_register

    def reads(self) -> tuple[str, ...]:
        return ()

    def render(self, labels: dict[Condition, str] | None = None) -> str:
        return f"{self.target_register} := observed({len(self.items)} items)"

    def evaluate(self, fetch: Fetch) -> Any:
        return self.items


#: Operations allowed in *simple* plans (Sec. 2.3).
SIMPLE_OP_KINDS = frozenset(
    {OpKind.SELECTION, OpKind.SEMIJOIN, OpKind.UNION, OpKind.INTERSECT}
)
