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

A relation derived by a row mask (``restrict_to_items``, ``filter``, so
every second-phase ``fetch_rows`` answer) keeps its parent and the mask,
knows its length, and slices the parent's columnar view; its row tuples
are gathered the first time someone reads them.  The GROUP BY of the
second phase reads the columns only, so it never builds them.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.columnar import ColumnarTable, mask_as_list, member_mask
from repro.relational.items import ItemSet
from repro.relational.schema import Schema

Row = tuple[Any, ...]


class Relation:
    """An immutable, schema-validated bag of rows.

    A relation cut from another by a row mask holds that parent and the
    mask until its rows are read (:attr:`rows`, iteration, ``in``,
    ``==``, :meth:`items`, ...); ``len`` and the columnar view never
    need them.

    Example:
        >>> from repro.relational.schema import dmv_schema
        >>> r1 = Relation("R1", dmv_schema(), [("J55", "dui", 1993)])
        >>> len(r1)
        1
        >>> r1.items()
        frozenset({'J55'})
    """

    __slots__ = (
        "name",
        "schema",
        "_rows",
        "_length",
        "_slice",
        "_items",
        "_columnar",
        "_validated",
    )

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()):
        self.name = name
        self.schema = schema
        validated: list[Row] = []
        for row in rows:
            row = tuple(row)
            schema.validate_row(row)
            validated.append(row)
        self._rows: tuple[Row, ...] | None = tuple(validated)
        self._length = len(validated)
        self._slice: tuple[Relation, Sequence[Any]] | None = None
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
    ) -> "Relation":
        """The one constructor behind every derivation (library-internal).

        ``validated`` is the caller's statement that every row has
        already passed ``validate_row`` against a schema *equal* to
        ``schema`` — because it is drawn from a validated relation over
        that schema, or because the caller just checked it.  Otherwise
        the rows are validated here, exactly as a first construction.
        """
        if not validated:
            return cls(name, schema, rows)
        relation = object.__new__(cls)
        relation.name = name
        relation.schema = schema
        relation._rows = tuple(rows)
        relation._length = len(relation._rows)
        relation._slice = None
        relation._items = None
        relation._columnar = None
        relation._validated = True
        return relation

    # ------------------------------------------------------------------
    # Container protocol

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema == other.schema
            and sorted(map(repr, self.rows)) == sorted(map(repr, other.rows))
        )

    def __hash__(self) -> int:  # pragma: no cover - relations rarely hashed
        return hash((self.schema, frozenset(self.rows)))

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, rows={self._length})"

    def __getstate__(self):
        # A pickle carries the rows, not the parent they are cut from;
        # the columnar view is a cache and is rebuilt on first use.
        state = {slot: getattr(self, slot) for slot in Relation.__slots__}
        state.update(_rows=self.rows, _slice=None, _columnar=None)
        return None, state

    # ------------------------------------------------------------------
    # Accessors

    @property
    def rows(self) -> tuple[Row, ...]:
        """All rows, in insertion order (a sliced relation gathers them
        from its parent here, once)."""
        if self._rows is None:
            parent, mask = self._slice
            table = self._columnar
            kept = compress(parent.rows, mask) if table is None else table.gather(parent.rows)
            self._rows = tuple(kept)
        return self._rows

    def rows_as_dicts(self) -> list[dict[str, Any]]:
        """Rows as attribute-keyed dictionaries (handy for display/tests)."""
        return [self.schema.row_to_dict(row) for row in self.rows]

    def items(self) -> frozenset[Any]:
        """The distinct merge-attribute values present in this relation."""
        if self._items is None:
            pos = self.schema.merge_position
            self._items = frozenset(row[pos] for row in self.rows)
        return self._items

    def columnar(self):
        """The cached columnar view of this relation's rows.

        Built lazily on first use; the columns share value structure
        with the row tuples, so the rows stay the canonical storage and
        the columnar table is a derived, immutable view (see
        :mod:`repro.relational.columnar`).  A relation cut by a mask
        from a parent with a view has the parent's view sliced.
        """
        if self._columnar is None:
            self._columnar = ColumnarTable(self.schema, self.rows)
        return self._columnar

    def column(self, attribute: str) -> list[Any]:
        """All values (with duplicates) of one column."""
        pos = self.schema.position(attribute)
        return [row[pos] for row in self.rows]

    def distinct(self, attribute: str) -> frozenset[Any]:
        """Distinct values of one column (excluding nulls)."""
        pos = self.schema.position(attribute)
        return frozenset(row[pos] for row in self.rows if row[pos] is not None)

    # ------------------------------------------------------------------
    # Derivation

    def derive(self, rows: Iterable[Row], name: str | None = None) -> "Relation":
        """A relation over this schema whose rows are all *drawn from this one*
        — any subset, order or multiplicity — so they need no second check."""
        return Relation._derived(name or self.name, self.schema, rows, self._validated)

    def _where(self, mask: Sequence[Any], name: str) -> "Relation":
        """The rows at the true positions of ``mask`` (a python list or a
        numpy bool array).

        The result keeps this relation and the mask, and gathers its row
        tuples when they are first read; the columnar view, when this
        relation has one cached, is sliced by the same mask and the rows
        are gathered through the slice's flags.  An unvalidated parent's
        rows are gathered and checked here, as a first construction.
        """
        if not self._validated:
            return Relation(name, self.schema, compress(self.rows, mask_as_list(mask)))
        table = self._columnar
        if table is not None:
            columnar = table.where(mask)
            length = columnar.length
        else:
            columnar, mask = None, mask_as_list(mask)
            length = mask.count(True)
        relation = Relation._derived(name, self.schema, (), validated=True)
        relation._rows = None
        relation._length = length
        relation._slice = (self, mask)
        relation._columnar = columnar
        return relation

    def filter(
        self, predicate: Callable[[dict[str, Any]], bool], name: str | None = None
    ) -> "Relation":
        """A new relation containing rows whose dict form satisfies ``predicate``."""
        row_to_dict = self.schema.row_to_dict
        mask = [predicate(row_to_dict(row)) for row in self.rows]
        return self._where(mask, name or f"{self.name}_filtered")

    def restrict_to_items(
        self, items: ItemSet | frozenset[Any] | set[Any], name: str | None = None
    ) -> "Relation":
        """Rows whose merge attribute is in ``items`` (a semijoin on data).

        An :class:`~repro.relational.items.ItemSet` (the fusion answer's
        bitmap) costs one flag gather through the rows' item ids; the
        rows themselves are gathered only when read.
        """
        name = name or f"{self.name}_semijoined"
        table = self.columnar()
        if not table.well_formed:
            # Ragged rows (only ``unchecked`` holds them) have no columns.
            pos = self.schema.merge_position
            return self.derive((row for row in self.rows if row[pos] in items), name)
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
                rel = Relation(rel.name, schema, rel.rows)
            rows.extend(rel.rows)
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
        relation._length = len(relation._rows)
        relation._slice = None
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
        shown = self.rows[:limit]
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
        if self._length > limit:
            lines.append(f"... {self._length - limit} more rows")
        return "\n".join(lines)
