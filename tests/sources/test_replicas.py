"""Unit tests for replica groups and substitutability."""

from __future__ import annotations

import pytest

from repro.errors import QueryError, SchemaError, UnknownSourceError
from repro.io import federation_from_dict, federation_to_dict
from repro.relational.relation import Relation
from repro.sources.generators import dmv_fig1, replicate_federation
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.table_source import TableSource


@pytest.fixture
def dmv():
    federation, __ = dmv_fig1()
    return federation


def mirror_of(federation: Federation, name: str, mirror_name: str) -> RemoteSource:
    original = federation.source(name)
    return RemoteSource(
        TableSource(
            Relation(
                mirror_name,
                original.schema,
                list(original.table.relation.rows),
            )
        ),
        capabilities=original.capabilities,
        link=original.link,
    )


class TestReplicaGroups:
    def test_declare_and_query_groups(self, dmv):
        federation = Federation(
            list(dmv) + [mirror_of(dmv, "R1", "R1b")], name=dmv.name
        )
        federation.declare_replicas("R1", "R1b")
        assert federation.replica_groups == (("R1", "R1b"),)
        assert federation.replicas_of("R1") == ("R1b",)
        assert federation.replicas_of("R1b") == ("R1",)
        assert federation.replicas_of("R2") == ()

    def test_representatives_are_one_per_group(self, dmv):
        replicated = replicate_federation(dmv, 3)
        assert replicated.representative_names == ("R1", "R2", "R3")
        assert len(replicated) == 9

    def test_no_groups_means_all_representatives(self, dmv):
        assert dmv.representative_names == dmv.source_names

    def test_group_of_includes_self_and_singletons(self, dmv):
        replicated = replicate_federation(dmv, 2)
        assert replicated.group_of("R1") == ("R1", "R1~1")
        assert replicated.group_of("R1~1") == ("R1", "R1~1")
        assert dmv.group_of("R2") == ("R2",)
        with pytest.raises(UnknownSourceError):
            dmv.group_of("nope")

    def test_invalid_declarations_rejected(self, dmv):
        with pytest.raises(SchemaError):
            dmv.declare_replicas("R1")  # needs at least two members
        with pytest.raises(SchemaError):
            dmv.declare_replicas("R1", "R1")  # repeats
        with pytest.raises(UnknownSourceError):
            dmv.declare_replicas("R1", "nope")  # unknown source

    def test_double_membership_rejected(self, dmv):
        federation = Federation(
            list(dmv)
            + [mirror_of(dmv, "R1", "R1b"), mirror_of(dmv, "R1", "R1c")],
            name=dmv.name,
        )
        federation.declare_replicas("R1", "R1b")
        with pytest.raises(SchemaError):
            federation.declare_replicas("R1", "R1c")

    def test_describe_mentions_groups(self, dmv):
        replicated = replicate_federation(dmv, 2)
        assert "R1~1" in replicated.describe()


class TestSubstitutability:
    def test_declared_replicas_substitute_both_ways(self, dmv):
        replicated = replicate_federation(dmv, 2)
        substitutes = replicated.substitutability()
        assert substitutes["R1"] == ("R1~1",)
        assert substitutes["R1~1"] == ("R1",)

    def test_containment_derives_substitutes(self, dmv):
        # A superset source can stand in for a subset source, not vice
        # versa (unless rows are identical).
        r1 = dmv.source("R1")
        superset = RemoteSource(
            TableSource(
                Relation(
                    "BIG",
                    r1.schema,
                    list(r1.table.relation.rows)
                    + [("Z99", "dui", 2001)],
                )
            ),
            capabilities=r1.capabilities,
            link=r1.link,
        )
        federation = Federation([r1, superset], name="U")
        assert federation.substitutability()["R1"] == ("BIG",)
        assert federation.substitutability()["BIG"] == ()

    def test_min_containment_relaxes_the_bar(self, dmv):
        # PARTIAL shares one of R1's three rows — containment 1/3.
        r1 = dmv.source("R1")
        partial = RemoteSource(
            TableSource(
                Relation(
                    "PARTIAL",
                    r1.schema,
                    [list(r1.table.relation.rows)[0], ("Z99", "dui", 2001)],
                )
            ),
            capabilities=r1.capabilities,
            link=r1.link,
        )
        federation = Federation([r1, partial], name="U")
        assert federation.substitutability()["R1"] == ()  # strict containment
        assert federation.substitutability(min_containment=0.3)["R1"] == (
            "PARTIAL",
        )

    def test_min_containment_must_be_in_unit_interval(self, dmv):
        with pytest.raises(SchemaError):
            dmv.substitutability(min_containment=0.0)
        with pytest.raises(SchemaError):
            dmv.substitutability(min_containment=1.5)


class TestReplicateFederation:
    def test_copies_one_is_identity_shape(self, dmv):
        same = replicate_federation(dmv, 1)
        assert same.source_names == dmv.source_names
        assert same.replica_groups == ()

    def test_invalid_copies_rejected(self, dmv):
        with pytest.raises(QueryError):
            replicate_federation(dmv, 0)

    def test_mirrors_serve_identical_rows_independently(self, dmv):
        replicated = replicate_federation(dmv, 2)
        original = replicated.source("R1")
        mirror = replicated.source("R1~1")
        assert (
            original.table.relation.rows == mirror.table.relation.rows
        )
        assert original.traffic is not mirror.traffic


class TestReplicaSerialization:
    def test_round_trip_preserves_groups(self, dmv):
        replicated = replicate_federation(dmv, 2)
        data = federation_to_dict(replicated)
        assert data["replicas"] == [
            ["R1", "R1~1"], ["R2", "R2~1"], ["R3", "R3~1"]
        ]
        restored = federation_from_dict(data)
        assert restored.replica_groups == replicated.replica_groups
        assert restored.representative_names == ("R1", "R2", "R3")

    def test_spec_without_replicas_loads_clean(self, dmv):
        data = federation_to_dict(dmv)
        assert "replicas" not in data
        assert federation_from_dict(data).replica_groups == ()
