"""Unit tests for decomposable aggregates and their partial states."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.relational import aggregates, columnar
from repro.relational.aggregates import (
    AggregateSpec,
    aggregate_rows,
    finalize_partials,
    merge_partials,
    partial_aggregate_rows,
    partials_to_wire,
)
from repro.relational.columnar import ColumnarTable
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema, dmv_schema
from repro.sources.generators import SyntheticConfig, build_synthetic

ROWS = [
    ("J55", "dui", 1993),
    ("T21", "sp", 1994),
    ("T80", "dui", 1991),
    ("S07", "sp", 1990),
]


@pytest.fixture
def relation():
    return Relation("R", dmv_schema(), ROWS)


class TestAggregateSpec:
    def test_label(self):
        assert AggregateSpec("count").label == "COUNT(*)"
        assert AggregateSpec("sum", "D").label == "SUM(D)"

    def test_func_is_normalized(self):
        assert AggregateSpec("AVG", "D").func == "avg"

    def test_unknown_func_rejected(self):
        from repro.errors import ConditionError

        with pytest.raises(ConditionError):
            AggregateSpec("median", "D")

    def test_count_star_is_attributeless(self):
        assert AggregateSpec("count").attribute is None

    def test_sum_requires_numeric(self):
        with pytest.raises(Exception):
            AggregateSpec("sum", "V").validate_against_schema(dmv_schema())

    def test_sum_accepts_int(self):
        AggregateSpec("sum", "D").validate_against_schema(dmv_schema())


class TestAggregateRows:
    def test_global_group(self, relation):
        result = aggregate_rows(
            relation,
            (AggregateSpec("count"), AggregateSpec("avg", "D")),
        )
        assert result.groups == (((), (4, 1992.0)),)

    def test_group_by(self, relation):
        result = aggregate_rows(
            relation,
            (AggregateSpec("count"), AggregateSpec("max", "D")),
            group_by=("V",),
        )
        assert dict(result.groups) == {
            ("dui",): (2, 1993),
            ("sp",): (2, 1994),
        }

    def test_items_filter(self, relation):
        result = aggregate_rows(
            relation,
            (AggregateSpec("count"),),
            items=frozenset({"J55", "T80"}),
        )
        assert result.groups == (((), (2,)),)

    def test_column_names_and_as_dicts(self, relation):
        result = aggregate_rows(
            relation, (AggregateSpec("count"),), group_by=("V",)
        )
        assert result.column_names == ("V", "COUNT(*)")
        assert {d["V"]: d["COUNT(*)"] for d in result.as_dicts()} == {
            "dui": 2,
            "sp": 2,
        }

    def test_pretty_renders_every_group(self, relation):
        text = aggregate_rows(
            relation, (AggregateSpec("count"),), group_by=("V",)
        ).pretty()
        assert "dui" in text and "sp" in text and "COUNT(*)" in text


class TestNullSemantics:
    @pytest.fixture
    def nullable(self):
        schema = Schema(
            (
                Attribute("L", DataType.STRING),
                Attribute("D", DataType.INT, nullable=True),
            ),
            merge_attribute="L",
        )
        return Relation("N", schema, [("a", None), ("b", None)])

    def test_sum_avg_min_max_of_all_nulls_is_null(self, nullable):
        result = aggregate_rows(
            nullable,
            (
                AggregateSpec("sum", "D"),
                AggregateSpec("avg", "D"),
                AggregateSpec("min", "D"),
                AggregateSpec("max", "D"),
            ),
        )
        assert result.groups == (((), (None, None, None, None)),)

    def test_count_star_counts_null_rows(self, nullable):
        result = aggregate_rows(nullable, (AggregateSpec("count"),))
        assert result.groups == (((), (2,)),)

    def test_count_attribute_skips_nulls(self, nullable):
        result = aggregate_rows(nullable, (AggregateSpec("count", "D"),))
        assert result.groups == (((), (0,)),)

    def test_empty_relation_has_no_groups(self):
        result = aggregate_rows(
            Relation("E", dmv_schema(), []), (AggregateSpec("count"),)
        )
        assert result.groups == ()


class TestPartials:
    def test_merge_is_decomposition(self, relation):
        specs = (AggregateSpec("count"), AggregateSpec("sum", "D"))
        left = Relation("A", relation.schema, ROWS[:2])
        right = Relation("B", relation.schema, ROWS[2:])
        merged = merge_partials(
            partial_aggregate_rows(left, specs),
            partial_aggregate_rows(right, specs),
            specs,
        )
        whole = partial_aggregate_rows(relation, specs)
        assert finalize_partials(merged, specs) == finalize_partials(
            whole, specs
        )

    def test_wire_format_is_sorted_and_plain(self, relation):
        specs = (AggregateSpec("count"),)
        partials = partial_aggregate_rows(relation, specs, group_by=("V",))
        wire = partials_to_wire(partials)
        assert wire == sorted(wire, key=lambda t: repr(t[0]))
        assert all(isinstance(entry, tuple) for entry in wire)

    def test_groups_sorted_by_key_repr(self, relation):
        result = aggregate_rows(
            relation, (AggregateSpec("count"),), group_by=("V",)
        )
        keys = [key for key, _ in result.groups]
        assert keys == sorted(keys, key=repr)


@pytest.mark.skipif(not columnar.numpy_available(), reason="numpy not available")
class TestNumpyGroupByIsWrittenOnce:
    """A second-phase fetch above the size rule is grouped by numpy
    reductions over codes and mirrors its source table built once."""

    SPECS = (
        AggregateSpec("count"),
        AggregateSpec("sum", "score"),
        AggregateSpec("avg", "score"),
        AggregateSpec("min", "score"),
        AggregateSpec("max", "score"),
    )
    GROUP_BYS = ((), ("category",), ("year",), ("category", "year"))

    @pytest.fixture
    def source(self):
        federation = build_synthetic(SyntheticConfig(n_sources=2, n_entities=300, seed=7))
        return next(iter(federation))

    def wanted(self, source, start=0):
        return frozenset(sorted(source.table.relation.items())[start::2])

    def test_a_fetched_slice_is_never_bucketed(self, source, monkeypatch):
        fetched = source.fetch_rows(self.wanted(source))
        assert len(fetched) > 100  # well above the size rule
        previous = columnar.set_numpy_enabled(False)
        try:
            expected = [repr(partial_aggregate_rows(fetched, self.SPECS, by)) for by in self.GROUP_BYS]
        finally:
            columnar.set_numpy_enabled(previous)

        def refuse(keys, values):
            raise AssertionError("a numpy-served group-by bucketed its rows")

        monkeypatch.setattr(aggregates, "_bucket", refuse)
        fetched = source.fetch_rows(self.wanted(source))
        got = [repr(partial_aggregate_rows(fetched, self.SPECS, by)) for by in self.GROUP_BYS]
        assert got == expected

    def test_five_fetches_build_one_encoding_and_one_mirror(self, source, monkeypatch):
        built = []
        for method in ("_build_encoded", "_build_np"):
            original = getattr(ColumnarTable, method)

            def spy(self, name, original=original, method=method):
                if self._slice_of is None:  # the source table, not a slice of it
                    built.append((method, name))
                return original(self, name)

            monkeypatch.setattr(ColumnarTable, method, spy)
        for start in range(5):
            fetched = source.fetch_rows(self.wanted(source, start))
            partial_aggregate_rows(fetched, self.SPECS, ("category",))
        assert {("_build_encoded", "category"), ("_build_np", "score")} <= set(built)
        assert set(Counter(built).values()) == {1}, built
