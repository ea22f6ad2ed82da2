"""Schemas for the relations exported by source wrappers.

All sources participating in a fusion query export relations over the
*same* attributes (Sec. 2.1), one of which is the merge attribute ``M``
that identifies the real-world entity a tuple refers to.  A
:class:`Schema` is an ordered collection of typed :class:`Attribute`
definitions; it validates rows and provides name -> position lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import NoneType
from typing import Any, Iterator

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Value domains supported by the condition language.

    ``INT`` and ``FLOAT`` are both *numeric* and compare with each other;
    ``STRING`` compares lexicographically; ``BOOL`` supports equality.
    """

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"

    @property
    def python_types(self) -> tuple[type, ...]:
        """The Python types a value of this data type may have."""
        return _PYTHON_TYPES[self]

    def accepts(self, value: Any) -> bool:
        """Return True if ``value`` is a legal non-null value of this type."""
        if isinstance(value, bool):
            # bool is a subclass of int; keep the domains disjoint.
            return self is DataType.BOOL
        return isinstance(value, self.python_types)


_PYTHON_TYPES: dict[DataType, tuple[type, ...]] = {
    DataType.STRING: (str,),
    DataType.INT: (int,),
    DataType.FLOAT: (float, int),
    DataType.BOOL: (bool,),
}


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of the common union view.

    Attributes:
        name: Column name; must be a valid identifier-like token.
        data_type: Value domain of the column.
        nullable: Whether ``None`` is allowed in this column.
    """

    name: str
    data_type: DataType = DataType.STRING
    nullable: bool = False
    #: The *exact* types a legal value may have, resolved once: a value
    #: whose ``type()`` is in here needs no further check (``type(True)``
    #: is ``bool``, so the bool-is-not-int rule holds); anything else —
    #: subclasses included — takes the full check below.
    _exact_types: frozenset[type] = field(
        default=frozenset(), init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid attribute name: {self.name!r}")
        exact = set(_PYTHON_TYPES[self.data_type])
        if self.nullable:
            exact.add(NoneType)
        object.__setattr__(self, "_exact_types", frozenset(exact))

    def validate_value(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` is illegal for this column."""
        if type(value) in self._exact_types:
            return
        if value is None:
            if not self.nullable:
                raise SchemaError(f"attribute {self.name!r} is not nullable")
            return
        if not self.data_type.accepts(value):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.data_type.value}, "
                f"got {type(value).__name__}: {value!r}"
            )

    def __str__(self) -> str:
        suffix = "?" if self.nullable else ""
        return f"{self.name}:{self.data_type.value}{suffix}"


@dataclass(frozen=True)
class Schema:
    """An ordered set of attributes shared by all sources in a federation.

    Exactly one attribute is designated the *merge attribute* — the paper's
    ``M`` — which identifies the entity each row describes.  The merge
    attribute must not be nullable: an item with no identity cannot be
    fused.

    Example:
        >>> schema = Schema(
        ...     (Attribute("L"), Attribute("V"), Attribute("D", DataType.INT)),
        ...     merge_attribute="L",
        ... )
        >>> schema.position("V")
        1
    """

    attributes: tuple[Attribute, ...]
    merge_attribute: str
    _positions: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _exact_types: tuple[frozenset[type], ...] = field(
        default=(), init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("a schema requires at least one attribute")
        names = [attr.name for attr in self.attributes]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SchemaError(f"duplicate attribute names: {sorted(duplicates)}")
        if self.merge_attribute not in names:
            raise SchemaError(
                f"merge attribute {self.merge_attribute!r} not among {names}"
            )
        if self.attribute(self.merge_attribute).nullable:
            raise SchemaError("the merge attribute must not be nullable")
        object.__setattr__(
            self, "_exact_types", tuple(attr._exact_types for attr in self.attributes)
        )

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(attr.name for attr in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: object) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``, raising if unknown."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"unknown attribute {name!r}; schema has {self.names}")

    def position(self, name: str) -> int:
        """Return the 0-based column index of ``name``."""
        cache = self._positions
        if not cache:
            cache.update({attr.name: i for i, attr in enumerate(self.attributes)})
        try:
            return cache[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {self.names}"
            ) from None

    @property
    def merge_position(self) -> int:
        """Column index of the merge attribute."""
        return self.position(self.merge_attribute)

    def validate_row(self, row: tuple[Any, ...]) -> None:
        """Raise :class:`SchemaError` unless ``row`` matches this schema."""
        if len(row) != len(self.attributes):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.attributes)} "
                f"attributes: {row!r}"
            )
        for exact, value in zip(self._exact_types, row):
            if type(value) not in exact:
                break
        else:
            return
        for attr, value in zip(self.attributes, row):
            attr.validate_value(value)

    def row_to_dict(self, row: tuple[Any, ...]) -> dict[str, Any]:
        """Map a positional row to an attribute-name keyed dict."""
        return dict(zip(self.names, row))

    def dict_to_row(self, mapping: dict[str, Any]) -> tuple[Any, ...]:
        """Build a positional row from a dict, filling absent nullables with None."""
        row = []
        for attr in self.attributes:
            if attr.name in mapping:
                row.append(mapping[attr.name])
            elif attr.nullable:
                row.append(None)
            else:
                raise SchemaError(
                    f"missing value for non-nullable attribute {attr.name!r}"
                )
        extra = set(mapping) - set(self.names)
        if extra:
            raise SchemaError(f"unknown attributes in row: {sorted(extra)}")
        return tuple(row)

    def compatible_with(self, other: "Schema") -> bool:
        """Two schemas are compatible if they agree on names, types, and M."""
        return (
            self.names == other.names
            and self.merge_attribute == other.merge_attribute
            and all(
                a.data_type is b.data_type
                for a, b in zip(self.attributes, other.attributes)
            )
        )

    def __str__(self) -> str:
        cols = ", ".join(str(attr) for attr in self.attributes)
        return f"({cols}; M={self.merge_attribute})"


def dmv_schema() -> Schema:
    """The schema of the paper's running DMV example (Fig. 1).

    License number ``L`` is the merge attribute; ``V`` is the violation
    code and ``D`` the year of the violation.
    """
    return Schema(
        (
            Attribute("L", DataType.STRING),
            Attribute("V", DataType.STRING),
            Attribute("D", DataType.INT),
        ),
        merge_attribute="L",
    )
