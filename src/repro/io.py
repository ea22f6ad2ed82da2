"""Federation serialization: JSON specs and CSV data.

Lets a downstream user describe a federation declaratively — schema,
per-source rows (inline or CSV), capability tier, link charges — and run
fusion queries against it from the CLI (``python -m repro``) without
writing Python.

Spec format::

    {
      "name": "U",
      "schema": {
        "merge": "L",
        "attributes": [
          {"name": "L", "type": "string"},
          {"name": "V", "type": "string"},
          {"name": "D", "type": "int", "nullable": false}
        ]
      },
      "sources": [
        {
          "name": "R1",
          "rows": [["J55", "dui", 1993]],      // or "csv": "r1.csv"
          "capabilities": {"semijoin": "native", "supports_load": true},
          "link": {"request_overhead": 10.0, "per_item_send": 1.0,
                   "per_item_receive": 1.0, "per_row_load": 2.0}
        }
      ],
      "replicas": [["R1", "R1b"]]              // optional mirror groups
    }

``federation_to_dict`` / ``federation_from_dict`` round-trip exactly.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.table_source import TableSource

_TYPE_NAMES = {member.value: member for member in DataType}


# ----------------------------------------------------------------------
# Schema


def schema_to_dict(schema: Schema) -> dict[str, Any]:
    return {
        "merge": schema.merge_attribute,
        "attributes": [
            {
                "name": attribute.name,
                "type": attribute.data_type.value,
                "nullable": attribute.nullable,
            }
            for attribute in schema
        ],
    }


def schema_from_dict(data: dict[str, Any]) -> Schema:
    try:
        attributes = tuple(
            Attribute(
                entry["name"],
                _TYPE_NAMES[entry.get("type", "string")],
                nullable=bool(entry.get("nullable", False)),
            )
            for entry in data["attributes"]
        )
        merge = data["merge"]
    except KeyError as exc:
        raise SchemaError(f"schema spec missing key: {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"schema spec is malformed: {exc}") from exc
    return Schema(attributes, merge_attribute=merge)


# ----------------------------------------------------------------------
# Rows


def _coerce_value(attribute: Attribute, raw: Any) -> Any:
    """Coerce a CSV string (or JSON value) into the attribute's domain."""
    if raw is None or raw == "":
        return None if attribute.nullable else raw
    if isinstance(raw, str):
        if attribute.data_type is DataType.INT:
            return int(raw)
        if attribute.data_type is DataType.FLOAT:
            return float(raw)
        if attribute.data_type is DataType.BOOL:
            return raw.strip().lower() in ("1", "true", "yes")
    if attribute.data_type is DataType.FLOAT and isinstance(raw, int):
        return raw
    return raw


def rows_from_csv(path: str, schema: Schema) -> list[tuple]:
    """Read rows from a headered CSV file, coercing types per schema."""
    rows: list[tuple] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise SchemaError(f"CSV file {path!r} has no header row")
        missing = set(schema.names) - set(reader.fieldnames)
        if missing:
            raise SchemaError(
                f"CSV file {path!r} lacks columns {sorted(missing)}"
            )
        for record in reader:
            rows.append(
                tuple(
                    _coerce_value(attribute, record[attribute.name])
                    for attribute in schema
                )
            )
    return rows


# ----------------------------------------------------------------------
# Capabilities & links


def capabilities_to_dict(capabilities: SourceCapabilities) -> dict[str, Any]:
    return {
        "semijoin": capabilities.semijoin.value,
        "supports_load": capabilities.supports_load,
        "max_semijoin_batch": capabilities.max_semijoin_batch,
        "supports_aggregates": capabilities.supports_aggregates,
    }


def capabilities_from_dict(data: dict[str, Any]) -> SourceCapabilities:
    return SourceCapabilities(
        semijoin=SemijoinSupport(data.get("semijoin", "native")),
        supports_load=bool(data.get("supports_load", True)),
        max_semijoin_batch=data.get("max_semijoin_batch"),
        supports_aggregates=bool(data.get("supports_aggregates", False)),
    )


def link_to_dict(link: LinkProfile) -> dict[str, Any]:
    return {
        "request_overhead": link.request_overhead,
        "per_item_send": link.per_item_send,
        "per_item_receive": link.per_item_receive,
        "per_row_load": link.per_row_load,
        "latency_s": link.latency_s,
        "items_per_s": link.items_per_s,
    }


def link_from_dict(data: dict[str, Any]) -> LinkProfile:
    defaults = LinkProfile()
    return LinkProfile(
        request_overhead=float(
            data.get("request_overhead", defaults.request_overhead)
        ),
        per_item_send=float(data.get("per_item_send", defaults.per_item_send)),
        per_item_receive=float(
            data.get("per_item_receive", defaults.per_item_receive)
        ),
        per_row_load=float(data.get("per_row_load", defaults.per_row_load)),
        latency_s=float(data.get("latency_s", defaults.latency_s)),
        items_per_s=float(data.get("items_per_s", defaults.items_per_s)),
    )


# ----------------------------------------------------------------------
# Federation


def federation_to_dict(federation: Federation) -> dict[str, Any]:
    """Serialize a federation (rows inline) to a JSON-able dict."""
    data = {
        "name": federation.name,
        "schema": schema_to_dict(federation.schema),
        "sources": [
            {
                "name": source.name,
                "rows": [list(row) for row in source.table.relation.rows],
                "capabilities": capabilities_to_dict(source.capabilities),
                "link": link_to_dict(source.link),
            }
            for source in federation
        ],
    }
    if federation.replica_groups:
        data["replicas"] = [list(group) for group in federation.replica_groups]
    return data


def _spec_object(value: Any, what: str) -> dict[str, Any]:
    """``value`` if it is a JSON object, else a :class:`SchemaError`."""
    if not isinstance(value, dict):
        raise SchemaError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def federation_from_dict(
    data: dict[str, Any], base_dir: str = "."
) -> Federation:
    """Build a federation from a spec dict (CSV paths resolve against
    ``base_dir``).  A spec of the wrong shape — not an object, no
    ``schema``, a source that is not an object or has no ``name`` —
    raises :class:`~repro.errors.SchemaError`."""
    _spec_object(data, "federation spec")
    if "schema" not in data:
        raise SchemaError("federation spec missing key: 'schema'")
    schema = schema_from_dict(_spec_object(data["schema"], "federation schema"))
    entries = data.get("sources", [])
    if not isinstance(entries, list):
        raise SchemaError(
            f"federation sources must be a JSON list, got {type(entries).__name__}"
        )
    sources = []
    for number, entry in enumerate(entries, 1):
        _spec_object(entry, f"federation source #{number}")
        if "name" not in entry:
            raise SchemaError(f"federation source #{number} has no 'name'")
        name = entry["name"]
        if "csv" in entry:
            rows = rows_from_csv(
                os.path.join(base_dir, entry["csv"]), schema
            )
        else:
            rows = [
                tuple(
                    _coerce_value(attribute, value)
                    for attribute, value in zip(schema, raw_row)
                )
                for raw_row in entry.get("rows", [])
            ]
        sources.append(
            RemoteSource(
                TableSource(Relation(name, schema, rows)),
                capabilities=capabilities_from_dict(
                    entry.get("capabilities", {})
                ),
                link=link_from_dict(entry.get("link", {})),
            )
        )
    if not sources:
        raise SchemaError("federation spec declares no sources")
    return Federation(
        sources,
        name=data.get("name", "U"),
        replica_groups=data.get("replicas", ()),
    )


def save_federation(federation: Federation, path: str) -> None:
    """Write a federation spec (rows inline) as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(federation_to_dict(federation), handle, indent=2)


def load_federation(path: str) -> Federation:
    """Load a federation spec from a JSON file; a file that is not JSON
    raises :class:`~repro.errors.SchemaError`."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(
                f"federation spec {path!r} is not JSON: {exc}"
            ) from exc
    return federation_from_dict(data, base_dir=os.path.dirname(path) or ".")
