"""The structured fusion-query model.

A :class:`FusionQuery` is the object the optimizers of Sec. 3 consume:
the merge attribute ``M`` plus an ordered tuple of single-tuple
conditions ``c_1 ... c_m``.  Ordering in the *query* carries no meaning —
optimizers explore all orderings — but a stable order makes plans and
traces reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import QueryError
from repro.relational.conditions import Condition, Or, validate_against
from repro.relational.parser import parse_condition
from repro.relational.schema import Schema


@dataclass(frozen=True)
class FusionQuery:
    """A fusion query: find items satisfying every condition somewhere.

    Attributes:
        merge_attribute: The paper's ``M`` — the entity identifier.
        conditions: The conditions ``c_1 ... c_m``; each must be
            evaluable on a single tuple of the union view.
        name: Optional label used in traces and reports.

    Example:
        >>> q = FusionQuery.from_strings("L", ["V = 'dui'", "V = 'sp'"])
        >>> q.arity
        2
    """

    merge_attribute: str
    conditions: tuple[Condition, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.merge_attribute:
            raise QueryError("a fusion query requires a merge attribute")
        if not self.conditions:
            raise QueryError("a fusion query requires at least one condition")
        if not isinstance(self.conditions, tuple):
            object.__setattr__(self, "conditions", tuple(self.conditions))

    @staticmethod
    def from_strings(
        merge_attribute: str,
        condition_strings: Sequence[str],
        name: str = "",
    ) -> "FusionQuery":
        """Build a query by parsing each condition string."""
        conditions = tuple(parse_condition(s) for s in condition_strings)
        return FusionQuery(merge_attribute, conditions, name=name)

    @property
    def arity(self) -> int:
        """The number of conditions ``m``."""
        return len(self.conditions)

    def validate_against_schema(self, schema: Schema) -> None:
        """Check M and every condition against the union-view schema."""
        if self.merge_attribute not in schema:
            raise QueryError(
                f"merge attribute {self.merge_attribute!r} not in schema {schema}"
            )
        if schema.merge_attribute != self.merge_attribute:
            raise QueryError(
                f"query merges on {self.merge_attribute!r} but the federation "
                f"schema declares {schema.merge_attribute!r} as merge attribute"
            )
        for condition in self.conditions:
            validate_against(condition, schema.names)

    def reorder(self, order: Sequence[int]) -> "FusionQuery":
        """Return the same query with conditions permuted by ``order``."""
        if sorted(order) != list(range(self.arity)):
            raise QueryError(f"invalid condition permutation: {order!r}")
        return FusionQuery(
            self.merge_attribute,
            tuple(self.conditions[i] for i in order),
            name=self.name,
        )

    def with_conditions(self, conditions: Iterable[Condition]) -> "FusionQuery":
        """A copy of this query with a different condition tuple."""
        return FusionQuery(self.merge_attribute, tuple(conditions), name=self.name)

    def to_sql(self, view_name: str = "U") -> str:
        """Render the canonical union-view SQL of Sec. 2.2.

        Example:
            >>> FusionQuery.from_strings("L", ["V = 'dui'", "V = 'sp'"]).to_sql()
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        """
        m = self.arity
        variables = [f"u{i + 1}" for i in range(m)]
        from_clause = ", ".join(f"{view_name} {v}" for v in variables)
        clauses: list[str] = []
        for previous, current in zip(variables, variables[1:]):
            clauses.append(
                f"{previous}.{self.merge_attribute} = "
                f"{current}.{self.merge_attribute}"
            )
        for variable, condition in zip(variables, self.conditions):
            clauses.append(_conjunct(condition, variable))
        where = " AND ".join(clauses) if clauses else "TRUE"
        return (
            f"SELECT {variables[0]}.{self.merge_attribute} "
            f"FROM {from_clause} WHERE {where}"
        )

    def describe(self) -> str:
        """Multi-line human-readable description used by examples."""
        lines = [f"Fusion query{f' {self.name!r}' if self.name else ''}:"]
        lines.append(f"  merge attribute: {self.merge_attribute}")
        for i, condition in enumerate(self.conditions, start=1):
            lines.append(f"  c{i}: {condition.to_sql()}")
        return "\n".join(lines)

    def __str__(self) -> str:
        conds = " AND ".join(map(_conjunct, self.conditions))
        return f"fuse[{self.merge_attribute}]({conds})"


def _conjunct(condition: Condition, qualifier: str = "") -> str:
    """``condition`` as one operand of an ``AND`` list: parenthesised
    when it is an ``OR``, which binds looser than the ``AND``."""
    sql = condition.to_sql(qualifier=qualifier)
    return f"({sql})" if isinstance(condition, Or) else sql
