"""In-memory relations — the tables autonomous sources export.

A :class:`Relation` is an immutable bag of positional rows validated
against a :class:`~repro.relational.schema.Schema`.  It is deliberately a
*bag*: two DMV offices may both record the same violation, and a single
source may hold several rows for one entity (one per violation).

A row is validated where it enters the system — ``Relation(...)`` — and
every relation *derived* from validated ones (a restriction, a filter, a
union, a fault-injected truncation) inherits that instead of checking
the same tuples again.  ``Relation.unchecked`` is the one way to hold
rows nobody checked; whatever is derived from such a relation validates
its rows like a first construction.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.columnar import ColumnarTable, mask_as_list, member_mask
from repro.relational.schema import Schema

Row = tuple[Any, ...]


class Relation:
    """An immutable, schema-validated bag of rows.

    Example:
        >>> from repro.relational.schema import dmv_schema
        >>> r1 = Relation("R1", dmv_schema(), [("J55", "dui", 1993)])
        >>> len(r1)
        1
        >>> r1.items()
        frozenset({'J55'})
    """

    __slots__ = ("name", "schema", "_rows", "_items", "_columnar", "_validated")

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()):
        self.name = name
        self.schema = schema
        validated: list[Row] = []
        for row in rows:
            row = tuple(row)
            schema.validate_row(row)
            validated.append(row)
        self._rows: tuple[Row, ...] = tuple(validated)
        self._items: frozenset[Any] | None = None
        self._columnar: Any | None = None
        self._validated = True

    @classmethod
    def _derived(
        cls,
        name: str,
        schema: Schema,
        rows: Iterable[Row],
        validated: bool,
        columnar: Any | None = None,
    ) -> "Relation":
        """The one constructor behind every derivation (library-internal).

        ``validated`` is the caller's statement that every row has
        already passed ``validate_row`` against a schema *equal* to
        ``schema`` — because it is drawn from a validated relation over
        that schema, or because the caller just checked it.  Otherwise
        the rows are validated here, exactly as a first construction.
        ``columnar`` is the rows' columnar view when the caller can
        derive it without transposing them.
        """
        if not validated:
            return cls(name, schema, rows)
        relation = object.__new__(cls)
        relation.name = name
        relation.schema = schema
        relation._rows = tuple(rows)
        relation._items = None
        relation._columnar = columnar
        relation._validated = True
        return relation

    # ------------------------------------------------------------------
    # Container protocol

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema == other.schema
            and sorted(map(repr, self._rows)) == sorted(map(repr, other._rows))
        )

    def __hash__(self) -> int:  # pragma: no cover - relations rarely hashed
        return hash((self.schema, frozenset(self._rows)))

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, rows={len(self._rows)})"

    # ------------------------------------------------------------------
    # Accessors

    @property
    def rows(self) -> tuple[Row, ...]:
        """All rows, in insertion order."""
        return self._rows

    def rows_as_dicts(self) -> list[dict[str, Any]]:
        """Rows as attribute-keyed dictionaries (handy for display/tests)."""
        return [self.schema.row_to_dict(row) for row in self._rows]

    def items(self) -> frozenset[Any]:
        """The distinct merge-attribute values present in this relation."""
        if self._items is None:
            pos = self.schema.merge_position
            self._items = frozenset(row[pos] for row in self._rows)
        return self._items

    def columnar(self):
        """The cached columnar view of this relation's rows.

        Built lazily on first use; the columns share value structure
        with the row tuples, so the rows stay the canonical storage and
        the columnar table is a derived, immutable view (see
        :mod:`repro.relational.columnar`).
        """
        if self._columnar is None:
            self._columnar = ColumnarTable(self.schema, self._rows)
        return self._columnar

    def column(self, attribute: str) -> list[Any]:
        """All values (with duplicates) of one column."""
        pos = self.schema.position(attribute)
        return [row[pos] for row in self._rows]

    def distinct(self, attribute: str) -> frozenset[Any]:
        """Distinct values of one column (excluding nulls)."""
        pos = self.schema.position(attribute)
        return frozenset(row[pos] for row in self._rows if row[pos] is not None)

    # ------------------------------------------------------------------
    # Derivation

    def derive(self, rows: Iterable[Row], name: str | None = None) -> "Relation":
        """A relation over this schema whose rows are all *drawn from this one*
        — any subset, order or multiplicity — so they need no second check."""
        return Relation._derived(name or self.name, self.schema, rows, self._validated)

    def _where(self, mask: Sequence[Any], name: str) -> "Relation":
        """The rows at the true positions of ``mask`` (a python list or a
        numpy bool array); the columnar view, when this relation has one
        cached, is sliced by the same mask."""
        rows = tuple(compress(self._rows, mask_as_list(mask)))
        table = self._columnar if self._validated else None
        columnar = table.where(mask, len(rows)) if table is not None else None
        return Relation._derived(name, self.schema, rows, self._validated, columnar)

    def filter(
        self, predicate: Callable[[dict[str, Any]], bool], name: str | None = None
    ) -> "Relation":
        """A new relation containing rows whose dict form satisfies ``predicate``."""
        row_to_dict = self.schema.row_to_dict
        mask = [predicate(row_to_dict(row)) for row in self._rows]
        return self._where(mask, name or f"{self.name}_filtered")

    def restrict_to_items(
        self, items: frozenset[Any] | set[Any], name: str | None = None
    ) -> "Relation":
        """Rows whose merge attribute is in ``items`` (a semijoin on data)."""
        name = name or f"{self.name}_semijoined"
        table = self.columnar()
        if not table.well_formed:
            # Ragged rows (only ``unchecked`` holds them) have no columns.
            pos = self.schema.merge_position
            return self.derive((row for row in self._rows if row[pos] in items), name)
        return self._where(member_mask(table, items), name)

    @staticmethod
    def union_all(name: str, relations: Iterable["Relation"]) -> "Relation":
        """Bag union of compatible relations — the paper's virtual view ``U``.

        A member is trusted only when it was validated against a schema
        *equal* to the target: ``compatible_with`` ignores ``nullable``,
        so a merely compatible member may hold a ``None`` the target
        forbids, and its rows are checked against the target here.
        """
        relations = list(relations)
        if not relations:
            raise SchemaError("union_all requires at least one relation")
        schema = relations[0].schema
        for rel in relations:
            if not rel.schema.compatible_with(schema):
                raise SchemaError(
                    f"relation {rel.name!r} schema {rel.schema} is incompatible "
                    f"with {relations[0].name!r} schema {schema}"
                )
        rows: list[Row] = []
        for rel in relations:
            if not (rel._validated and rel.schema == schema):
                rel = Relation(rel.name, schema, rel._rows)
            rows.extend(rel._rows)
        return Relation._derived(name, schema, rows, validated=True)

    @staticmethod
    def unchecked(name: str, schema: Schema, rows: Iterable[Row]) -> "Relation":
        """Build a relation *without* validating its rows.

        Exists solely so the fault injector can simulate sources that
        return schema-violating payloads; everything that constructs
        real data must go through ``__init__``.
        """
        relation = object.__new__(Relation)
        relation.name = name
        relation.schema = schema
        relation._rows = tuple(tuple(row) for row in rows)
        relation._items = None
        relation._columnar = None
        relation._validated = False
        return relation

    @staticmethod
    def from_dicts(name: str, schema: Schema, dicts: Iterable[dict[str, Any]]) -> "Relation":
        """Build a relation from attribute-keyed dictionaries."""
        return Relation(name, schema, (schema.dict_to_row(d) for d in dicts))

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering, used by examples and traces."""
        names = self.schema.names
        shown = self._rows[:limit]
        widths = [
            max(len(str(name)), *(len(str(row[i])) for row in shown), 1)
            if shown
            else len(str(name))
            for i, name in enumerate(names)
        ]
        header = " | ".join(str(n).ljust(w) for n, w in zip(names, widths))
        bar = "-+-".join("-" * w for w in widths)
        lines = [f"{self.name} ({len(self)} rows)", header, bar]
        for row in shown:
            lines.append(" | ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        if len(self._rows) > limit:
            lines.append(f"... {len(self._rows) - limit} more rows")
        return "\n".join(lines)
