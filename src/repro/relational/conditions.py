"""The condition language of fusion queries.

Each fusion-query condition ``c_i`` "involves only one ``u_i`` variable
and ``U`` attributes, and is supported by the wrappers" (Sec. 2.2) — i.e.
it is a single-tuple predicate over the common schema.  This module
defines an immutable, hashable AST for such predicates, with evaluation
over rows, SQL rendering, and structural helpers the optimizer and the
statistics collector rely on (attribute sets, conjunct decomposition).

Conditions are *values*: frozen dataclasses that compare and hash
structurally, so they can key selectivity tables and cost caches.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import ConditionError

#: Comparison operators supported by :class:`Comparison`.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

_LIKE_CACHE: dict[str, re.Pattern[str]] = {}


def _like_regex(pattern: str) -> re.Pattern[str]:
    """Compile a SQL LIKE pattern (``%`` and ``_`` wildcards) to a regex."""
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("".join(parts) + r"\Z", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


def _comparable(left: Any, right: Any) -> bool:
    """True when ``left`` and ``right`` belong to the same ordered domain."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return isinstance(left, str) and isinstance(right, str)


def _sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class Condition:
    """Abstract base of all condition AST nodes.

    Subclasses implement :meth:`evaluate` (three-valued via null
    rejection: a comparison against ``None`` is simply false, matching
    SQL's behaviour for the WHERE clause) and :meth:`to_sql`.
    """

    __slots__ = ()

    def evaluate(self, row: dict[str, Any]) -> bool:
        """Return True if ``row`` (attribute-keyed) satisfies the condition."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """The set of attribute names the condition references."""
        raise NotImplementedError

    def to_sql(self, qualifier: str = "") -> str:
        """Render as SQL; ``qualifier`` prefixes attribute references."""
        raise NotImplementedError

    def __getstate__(self) -> dict[str, Any]:
        # ``str`` hashes differ between processes: a pickled or copied
        # condition computes its own hash again (see :func:`_hash_once`).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @functools.cached_property
    def sql(self) -> str:
        """:meth:`to_sql` unqualified, rendered on first use and kept:
        a condition is an immutable value, and every plan built for its
        query names it in its execution records."""
        return self.to_sql()

    # -- combinators ----------------------------------------------------

    def __and__(self, other: "Condition") -> "Condition":
        return And.of(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or.of(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)

    def conjuncts(self) -> tuple["Condition", ...]:
        """Decompose a top-level conjunction into its conjuncts."""
        return (self,)

    def __str__(self) -> str:
        return self.to_sql()


def _hash_once(cls: type) -> type:
    """Class decorator over a condition dataclass: its structural hash is
    computed on first use and kept on the instance.  Conditions key the
    statistics and cost caches and are looked up thousands of times per
    optimized query; a condition is immutable, so its hash never changes
    within a process.  :meth:`Condition.__getstate__` leaves the kept
    hash out of pickles and copies."""
    structural = cls.__hash__

    def __hash__(self: Condition) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = structural(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__  # type: ignore[method-assign]
    return cls


def _qualify(qualifier: str, attribute: str) -> str:
    return f"{qualifier}.{attribute}" if qualifier else attribute


@_hash_once
@dataclass(frozen=True)
class Comparison(Condition):
    """``attribute <op> literal`` for ``op`` in ``=, !=, <, <=, >, >=``."""

    attribute: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ConditionError(
                f"unknown comparison operator {self.op!r}; "
                f"expected one of {COMPARISON_OPS}"
            )
        if isinstance(self.value, (list, set, dict)):
            raise ConditionError(
                f"comparison literal must be scalar, got {type(self.value).__name__}"
            )

    def evaluate(self, row: dict[str, Any]) -> bool:
        if self.attribute not in row:
            raise ConditionError(f"row lacks attribute {self.attribute!r}")
        actual = row[self.attribute]
        if actual is None or self.value is None:
            return False
        if not _comparable(actual, self.value):
            return False
        if self.op == "=":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        if self.op == "<":
            return actual < self.value
        if self.op == "<=":
            return actual <= self.value
        if self.op == ">":
            return actual > self.value
        return actual >= self.value

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def to_sql(self, qualifier: str = "") -> str:
        return (
            f"{_qualify(qualifier, self.attribute)} {self.op} "
            f"{_sql_literal(self.value)}"
        )


@_hash_once
@dataclass(frozen=True)
class Between(Condition):
    """``attribute BETWEEN low AND high`` (inclusive on both ends)."""

    attribute: str
    low: Any
    high: Any

    def evaluate(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.attribute)
        if actual is None:
            return False
        if not (_comparable(actual, self.low) and _comparable(actual, self.high)):
            return False
        return self.low <= actual <= self.high

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def to_sql(self, qualifier: str = "") -> str:
        return (
            f"{_qualify(qualifier, self.attribute)} BETWEEN "
            f"{_sql_literal(self.low)} AND {_sql_literal(self.high)}"
        )


@_hash_once
@dataclass(frozen=True)
class InSet(Condition):
    """``attribute IN (v1, v2, ...)``; values stored as a frozenset."""

    attribute: str
    values: frozenset[Any]

    def __init__(self, attribute: str, values: Iterable[Any]):
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", frozenset(values))
        if not self.values:
            raise ConditionError("IN requires at least one value")

    def evaluate(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.attribute)
        if actual is None:
            return False
        return actual in self.values

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def to_sql(self, qualifier: str = "") -> str:
        rendered = ", ".join(sorted(_sql_literal(v) for v in self.values))
        return f"{_qualify(qualifier, self.attribute)} IN ({rendered})"


@_hash_once
@dataclass(frozen=True)
class Like(Condition):
    """``attribute LIKE pattern`` with ``%`` and ``_`` wildcards."""

    attribute: str
    pattern: str

    def evaluate(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.attribute)
        if not isinstance(actual, str):
            return False
        return _like_regex(self.pattern).match(actual) is not None

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def to_sql(self, qualifier: str = "") -> str:
        return (
            f"{_qualify(qualifier, self.attribute)} LIKE "
            f"{_sql_literal(self.pattern)}"
        )


@_hash_once
@dataclass(frozen=True)
class IsNull(Condition):
    """``attribute IS NULL`` (or ``IS NOT NULL`` when negated)."""

    attribute: str
    negated: bool = False

    def evaluate(self, row: dict[str, Any]) -> bool:
        is_null = row.get(self.attribute) is None
        return not is_null if self.negated else is_null

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def to_sql(self, qualifier: str = "") -> str:
        verb = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{_qualify(qualifier, self.attribute)} {verb}"


@_hash_once
@dataclass(frozen=True)
class And(Condition):
    """Conjunction of two or more conditions."""

    operands: tuple[Condition, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ConditionError("AND requires at least two operands")

    @staticmethod
    def of(*conditions: Condition) -> Condition:
        """Build a flattened conjunction, simplifying trivial cases."""
        flat: list[Condition] = []
        for cond in conditions:
            if isinstance(cond, And):
                flat.extend(cond.operands)
            elif isinstance(cond, TrueCondition):
                continue
            elif isinstance(cond, FalseCondition):
                return FalseCondition()
            else:
                flat.append(cond)
        if not flat:
            return TrueCondition()
        if len(flat) == 1:
            return flat[0]
        return And(tuple(flat))

    def evaluate(self, row: dict[str, Any]) -> bool:
        return all(op.evaluate(row) for op in self.operands)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(op.attributes() for op in self.operands))

    def conjuncts(self) -> tuple[Condition, ...]:
        return self.operands

    def to_sql(self, qualifier: str = "") -> str:
        parts = []
        for op in self.operands:
            sql = op.to_sql(qualifier)
            parts.append(f"({sql})" if isinstance(op, Or) else sql)
        return " AND ".join(parts)


@_hash_once
@dataclass(frozen=True)
class Or(Condition):
    """Disjunction of two or more conditions."""

    operands: tuple[Condition, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ConditionError("OR requires at least two operands")

    @staticmethod
    def of(*conditions: Condition) -> Condition:
        """Build a flattened disjunction, simplifying trivial cases."""
        flat: list[Condition] = []
        for cond in conditions:
            if isinstance(cond, Or):
                flat.extend(cond.operands)
            elif isinstance(cond, FalseCondition):
                continue
            elif isinstance(cond, TrueCondition):
                return TrueCondition()
            else:
                flat.append(cond)
        if not flat:
            return FalseCondition()
        if len(flat) == 1:
            return flat[0]
        return Or(tuple(flat))

    def evaluate(self, row: dict[str, Any]) -> bool:
        return any(op.evaluate(row) for op in self.operands)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(op.attributes() for op in self.operands))

    def to_sql(self, qualifier: str = "") -> str:
        return " OR ".join(op.to_sql(qualifier) for op in self.operands)


@_hash_once
@dataclass(frozen=True)
class Not(Condition):
    """Logical negation."""

    operand: Condition

    def evaluate(self, row: dict[str, Any]) -> bool:
        return not self.operand.evaluate(row)

    def attributes(self) -> frozenset[str]:
        return self.operand.attributes()

    def to_sql(self, qualifier: str = "") -> str:
        return f"NOT ({self.operand.to_sql(qualifier)})"


@_hash_once
@dataclass(frozen=True)
class TrueCondition(Condition):
    """The always-true condition (useful as a neutral element)."""

    def evaluate(self, row: dict[str, Any]) -> bool:
        return True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def to_sql(self, qualifier: str = "") -> str:
        return "TRUE"


@_hash_once
@dataclass(frozen=True)
class FalseCondition(Condition):
    """The always-false condition."""

    def evaluate(self, row: dict[str, Any]) -> bool:
        return False

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def to_sql(self, qualifier: str = "") -> str:
        return "FALSE"


def walk(condition: Condition) -> Iterator[Condition]:
    """Yield ``condition`` and every descendant node, pre-order."""
    yield condition
    if isinstance(condition, (And, Or)):
        for op in condition.operands:
            yield from walk(op)
    elif isinstance(condition, Not):
        yield from walk(condition.operand)


def validate_against(condition: Condition, attribute_names: Iterable[str]) -> None:
    """Raise :class:`ConditionError` if the condition references an
    attribute outside ``attribute_names``."""
    known = set(attribute_names)
    unknown = condition.attributes() - known
    if unknown:
        raise ConditionError(
            f"condition {condition} references unknown attributes "
            f"{sorted(unknown)}; known: {sorted(known)}"
        )
