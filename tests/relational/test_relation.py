"""Unit tests for the Relation container."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema, dmv_schema

ROWS = [("J55", "dui", 1993), ("T21", "sp", 1994), ("T80", "dui", 1993)]


@pytest.fixture
def r1():
    return Relation("R1", dmv_schema(), ROWS)


class TestConstruction:
    def test_rows_validated(self):
        with pytest.raises(SchemaError):
            Relation("bad", dmv_schema(), [("J55", "dui", "not-an-int")])

    def test_empty_relation_allowed(self):
        empty = Relation("empty", dmv_schema())
        assert len(empty) == 0
        assert empty.items() == frozenset()

    def test_is_a_bag(self):
        duplicated = Relation("dup", dmv_schema(), [ROWS[0], ROWS[0]])
        assert len(duplicated) == 2
        assert duplicated.items() == frozenset({"J55"})


class TestAccessors:
    def test_items_are_merge_values(self, r1):
        assert r1.items() == frozenset({"J55", "T21", "T80"})

    def test_column(self, r1):
        assert r1.column("V") == ["dui", "sp", "dui"]

    def test_distinct_excludes_nulls(self):
        schema = Schema(
            (Attribute("L"), Attribute("V", nullable=True)),
            merge_attribute="L",
        )
        rel = Relation("r", schema, [("a", "x"), ("b", None)])
        assert rel.distinct("V") == frozenset({"x"})

    def test_rows_as_dicts(self, r1):
        dicts = r1.rows_as_dicts()
        assert dicts[0] == {"L": "J55", "V": "dui", "D": 1993}

    def test_contains_row(self, r1):
        assert ("J55", "dui", 1993) in r1
        assert ("J55", "sp", 1993) not in r1


class TestDerivation:
    def test_filter(self, r1):
        duis = r1.filter(lambda row: row["V"] == "dui")
        assert len(duis) == 2
        assert duis.items() == frozenset({"J55", "T80"})

    def test_restrict_to_items(self, r1):
        restricted = r1.restrict_to_items({"J55", "ZZZ"})
        assert restricted.items() == frozenset({"J55"})
        assert len(restricted) == 1

    def test_union_all(self, r1):
        r2 = Relation("R2", dmv_schema(), [("T11", "sp", 1993)])
        union = Relation.union_all("U", [r1, r2])
        assert len(union) == 4
        assert union.items() == frozenset({"J55", "T21", "T80", "T11"})

    def test_union_all_requires_compatible_schemas(self, r1):
        other_schema = Schema(
            (Attribute("L"), Attribute("X")), merge_attribute="L"
        )
        other = Relation("other", other_schema, [("a", "b")])
        with pytest.raises(SchemaError, match="incompatible"):
            Relation.union_all("U", [r1, other])

    def test_union_all_empty_rejected(self):
        with pytest.raises(SchemaError):
            Relation.union_all("U", [])

    def test_from_dicts(self):
        rel = Relation.from_dicts(
            "r", dmv_schema(), [{"L": "J55", "V": "dui", "D": 1993}]
        )
        assert rel.rows == (("J55", "dui", 1993),)


class TestValidatedOnce:
    """Derivations inherit a validated parent's check; rows nobody
    checked (``Relation.unchecked``) are checked when derived from,
    exactly as a first construction would."""

    BAD = ("T21", "sp", "not-an-int")
    SHORT = ("T80",)

    @pytest.fixture
    def unchecked(self):
        return Relation.unchecked("raw", dmv_schema(), [ROWS[0], self.BAD, self.SHORT])

    def test_derivations_of_a_validated_relation_check_nothing(self, r1, validated_rows):
        r2 = Relation("R2", dmv_schema(), [("T11", "sp", 1993)])
        del validated_rows[:]
        kept = r1.restrict_to_items({"J55", "T80"})
        duis = kept.filter(lambda row: row["V"] == "dui")
        union = Relation.union_all("U", [duis, r2, r1.derive(r1.rows[:1] * 2)])
        assert validated_rows == []
        assert union.rows == (ROWS[0], ROWS[2], ("T11", "sp", 1993), ROWS[0], ROWS[0])
        assert duis.name == "R1_semijoined_filtered" and kept.schema is r1.schema

    def test_restrict_of_unchecked_validates_what_it_keeps(self, unchecked, validated_rows):
        with pytest.raises(SchemaError, match="expects int"):
            unchecked.restrict_to_items({"J55", "T21"})
        with pytest.raises(SchemaError, match="row has 1 values"):
            unchecked.restrict_to_items({"T80"})
        del validated_rows[:]
        clean = unchecked.restrict_to_items({"J55"})
        assert clean.rows == (ROWS[0],) and validated_rows == [ROWS[0]]
        # What it kept is validated now: deriving again validated_rows nothing.
        assert clean.restrict_to_items({"J55"}).rows == (ROWS[0],)
        assert validated_rows == [ROWS[0]]

    def test_filter_of_unchecked_validates_what_it_keeps(self, validated_rows):
        raw = Relation.unchecked("raw", dmv_schema(), [ROWS[0], self.BAD])
        with pytest.raises(SchemaError, match="expects int"):
            raw.filter(lambda row: True)
        del validated_rows[:]
        assert raw.filter(lambda row: row["V"] == "dui").rows == (ROWS[0],)
        assert validated_rows == [ROWS[0]]

    def test_derive_of_unchecked_validates(self, unchecked):
        with pytest.raises(SchemaError, match="expects int"):
            unchecked.derive(unchecked.rows[:2])
        assert unchecked.derive(unchecked.rows[:1]).rows == (ROWS[0],)

    def test_union_all_validates_unchecked_members(self, r1, unchecked, validated_rows):
        with pytest.raises(SchemaError, match="expects int"):
            Relation.union_all("U", [r1, unchecked])
        del validated_rows[:]
        clean = Relation.unchecked("raw", dmv_schema(), ROWS[:2])
        assert len(Relation.union_all("U", [r1, clean])) == 5
        assert validated_rows == list(ROWS[:2])

    def test_union_all_trusts_only_an_equal_schema(self, validated_rows):
        strict = Schema((Attribute("L"), Attribute("V")), merge_attribute="L")
        loose = Schema((Attribute("L"), Attribute("V", nullable=True)), merge_attribute="L")
        assert loose.compatible_with(strict) and loose != strict
        target = Relation("strict", strict, [("a", "x")])
        member = Relation("loose", loose, [("b", "y"), ("c", None)])
        with pytest.raises(SchemaError, match="not nullable"):
            Relation.union_all("U", [target, member])
        fine = Relation("loose", loose, [("b", "y")])
        del validated_rows[:]
        union = Relation.union_all("U", [target, fine])
        assert union.rows == (("a", "x"), ("b", "y")) and union.schema is strict
        assert validated_rows == [("b", "y")]

    def test_incompatible_member_is_reported_before_any_bad_row(self, unchecked):
        other = Relation("other", Schema((Attribute("L"),), merge_attribute="L"), [("a",)])
        with pytest.raises(SchemaError, match="incompatible"):
            Relation.union_all("U", [unchecked, other])


class TestEquality:
    def test_order_insensitive_equality(self, r1):
        shuffled = Relation("other", dmv_schema(), list(reversed(ROWS)))
        assert r1 == shuffled

    def test_inequality_on_rows(self, r1):
        fewer = Relation("other", dmv_schema(), ROWS[:2])
        assert r1 != fewer


class TestPretty:
    def test_pretty_includes_name_and_rows(self, r1):
        text = r1.pretty()
        assert "R1 (3 rows)" in text
        assert "J55" in text

    def test_pretty_truncates(self, r1):
        text = r1.pretty(limit=1)
        assert "2 more rows" in text
