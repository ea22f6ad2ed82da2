"""End-to-end tests for aggregation fusion queries (PR 10).

The fusion part fixes the qualifying entity set exactly as before; the
aggregate node then summarizes the matching union-view rows, either by
fetching raw tuples or by partial-aggregate pushdown at sources that
declare the capability.  Both paths — and the reference oracle — must
agree bit-for-bit, including float averages.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import CostModelError, ExecutionError, QueryError
from repro.mediator.reference import reference_aggregate
from repro.mediator.session import AggregateAnswer, Mediator
from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.query.sqlparse import is_aggregate_query, parse_query
from repro.relational import columnar
from repro.relational.aggregates import AggregateSpec, merge_partials, partial_aggregate_rows
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema
from repro.runtime.engine import Resilience
from repro.sources.capabilities import SourceCapabilities
from repro.sources.generators import dmv_fig1
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.table_source import TableSource

AGG_SQL = (
    "SELECT u1.V, COUNT(*), AVG(u1.D) FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' "
    "GROUP BY u1.V"
)

#: Hand-checked over Fig. 1: qualifying items {J55, T21}; their rows are
#: R1:(J55,dui,1993),(T21,sp,1994); R2:(T21,dui,1996),(J55,sp,1996);
#: R3:(T21,sp,1993).
EXPECTED_GROUPS = {
    ("dui",): (2, 1994.5),
    ("sp",): (3, (1994 + 1996 + 1993) / 3),
}


@pytest.fixture
def analytic_federation():
    federation, __ = dmv_fig1(capabilities=SourceCapabilities.analytic())
    return federation


class TestParsing:
    def test_detects_aggregate_sql(self):
        assert is_aggregate_query(AGG_SQL)
        assert not is_aggregate_query(
            "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'"
        )

    def test_parse_query_returns_aggregate(self):
        query = parse_query(AGG_SQL)
        assert isinstance(query, AggregateQuery)
        assert query.group_by == ("V",)
        assert [spec.label for spec in query.specs] == ["COUNT(*)", "AVG(D)"]
        assert query.merge_attribute == "L"

    def test_fusion_part_matches_plain_query(self):
        query = parse_query(AGG_SQL)
        assert [str(c) for c in query.fusion.conditions] == [
            "V = 'dui'",
            "V = 'sp'",
        ]

    def test_bare_select_attribute_must_be_grouped(self):
        bad = (
            "SELECT u1.V, COUNT(*) FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        )
        with pytest.raises(Exception):
            parse_query(bad)

    def test_to_sql_round_trips(self):
        query = parse_query(AGG_SQL)
        again = parse_query(query.to_sql("U"))
        assert isinstance(again, AggregateQuery)
        assert again.specs == query.specs
        assert again.group_by == query.group_by


class TestFetchPath:
    def test_matches_reference(self, dmv_federation):
        mediator = Mediator(dmv_federation, verify=True)
        answer = mediator.answer_aggregate(AGG_SQL)
        assert isinstance(answer, AggregateAnswer)
        assert answer.verified is True
        assert dict(answer.result.groups) == EXPECTED_GROUPS

    def test_no_pushdown_without_capability(self, dmv_federation):
        mediator = Mediator(dmv_federation, verify=False)
        answer = mediator.answer_aggregate(AGG_SQL, pushdown="force")
        assert answer.aggregate_plan.pushdown_sources == ()
        assert len(answer.aggregate_plan.fetch_sources) == 3

    def test_global_aggregate(self, dmv_federation):
        mediator = Mediator(dmv_federation, verify=True)
        answer = mediator.answer_aggregate(
            "SELECT COUNT(*) FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        )
        assert answer.result.groups == (((), (5,)),)

    def test_summary_mentions_aggregate_phase(self, dmv_federation):
        mediator = Mediator(dmv_federation, verify=True)
        answer = mediator.answer_aggregate(AGG_SQL)
        assert "aggregate phase" in answer.summary()
        assert answer.items == answer.fusion.items


class TestPushdownPath:
    def test_forced_pushdown_matches_fetch_exactly(self, analytic_federation):
        pushed = Mediator(analytic_federation, verify=False).answer_aggregate(
            AGG_SQL, pushdown="force"
        )
        fetched = Mediator(analytic_federation, verify=False).answer_aggregate(
            AGG_SQL, pushdown=False
        )
        assert len(pushed.aggregate_plan.pushdown_sources) == 3
        assert pushed.aggregate_plan.fetch_sources == ()
        # Bit-identical, not approximately equal: both paths merge
        # partials in sorted source order.
        assert pushed.result == fetched.result
        assert pushed.result.groups == fetched.result.groups
        assert dict(pushed.result.groups) == EXPECTED_GROUPS

    def test_pushdown_matches_reference(self, analytic_federation):
        query = parse_query(AGG_SQL)
        answer = Mediator(analytic_federation, verify=False).answer_aggregate(
            query, pushdown="force"
        )
        expected = reference_aggregate(analytic_federation, query)
        assert answer.result == expected

    def test_pushdown_charges_aq_traffic(self, analytic_federation):
        mediator = Mediator(analytic_federation, verify=False)
        answer = mediator.answer_aggregate(AGG_SQL, pushdown="force")
        for source in analytic_federation:
            assert source.table.counters.aggregates == 1
        assert answer.aggregate_plan.estimated_cost > 0

    def test_vote_mode_forces_fetch(self, analytic_federation):
        mediator = Mediator(
            analytic_federation,
            resilience=Resilience(verify="vote"),
        )
        answer = mediator.answer_aggregate(AGG_SQL, pushdown="force")
        assert answer.aggregate_plan.pushdown_sources == ()
        assert dict(answer.result.groups) == EXPECTED_GROUPS

    def test_cost_based_choice_is_result_invariant(self, analytic_federation):
        # Whatever mix of fetch and pushdown the per-source costing
        # picks, the merged result is the same.
        mediator = Mediator(analytic_federation, verify=False)
        answer = mediator.answer_aggregate(AGG_SQL, pushdown=True)
        assert len(answer.aggregate_plan.tasks) == 3
        assert all(t.estimated_cost > 0 for t in answer.aggregate_plan.tasks)
        assert dict(answer.result.groups) == EXPECTED_GROUPS

    @pytest.mark.parametrize("pushdown", ["off", "no", "False", "auto", 0, 1, None])
    def test_only_true_false_and_force_are_settings(self, analytic_federation, pushdown):
        # A truthy spelling of "off" used to push down at every capable
        # source, exactly as True does.
        mediator = Mediator(analytic_federation, verify=False)
        with pytest.raises(CostModelError, match="pushdown"):
            mediator.answer_aggregate(AGG_SQL, pushdown=pushdown)
        fetched = mediator.answer_aggregate(AGG_SQL, pushdown=False)
        assert fetched.aggregate_plan.pushdown_sources == ()
        forced = mediator.answer_aggregate(AGG_SQL, pushdown="force")
        assert forced.aggregate_plan.pushdown_sources == ("R1", "R2", "R3")


class TestValidatedOnce:
    """An aggregate query is checked against the schema exactly once."""

    @pytest.fixture
    def validations(self, monkeypatch):
        count = [0]
        validate = FusionQuery.validate_against_schema

        def counted(self, schema):
            count[0] += 1
            return validate(self, schema)

        monkeypatch.setattr(FusionQuery, "validate_against_schema", counted)
        return count

    @pytest.mark.parametrize("backend", ["sequential", "runtime"])
    def test_sql_text_is_validated_once(self, dmv_federation, validations, backend):
        Mediator(dmv_federation, backend=backend).answer_aggregate(AGG_SQL)
        assert validations[0] == 1

    def test_a_built_query_is_validated_once(self, dmv_federation, validations):
        query = parse_query(AGG_SQL)
        Mediator(dmv_federation).answer_aggregate(query)
        assert validations[0] == 1

    def test_a_built_query_is_still_validated(self, dmv_federation):
        parsed = parse_query(AGG_SQL)
        query = AggregateQuery(parsed.fusion, parsed.specs, group_by=("Q",))
        with pytest.raises(QueryError, match="GROUP BY attribute 'Q'"):
            Mediator(dmv_federation).answer_aggregate(query)


class TestVerification:
    def test_verify_catches_mismatch(self, dmv_federation, monkeypatch):
        mediator = Mediator(dmv_federation, verify=True)
        from repro.mediator import session as session_module

        def wrong_reference(federation, query):
            result = reference_aggregate(federation, query)
            return type(result)(
                group_by=result.group_by, specs=result.specs, groups=()
            )

        monkeypatch.setattr(
            session_module, "reference_aggregate", wrong_reference
        )
        with pytest.raises(ExecutionError):
            mediator.answer_aggregate(AGG_SQL)

    def test_rejects_plain_fusion_sql(self, dmv_federation):
        mediator = Mediator(dmv_federation, verify=True)
        with pytest.raises(Exception):
            mediator.answer_aggregate(
                "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'"
            )


class TestFloatFoldOrder:
    """SUM/AVG are a left fold in row order per source, merged in sorted
    source order — on every path and every interpreter.  The data makes
    the order visible: ``1e16 + 1.0`` absorbs the ``1.0``, so the left
    fold of g1 reads 1.0 where a compensated ``sum`` (python 3.12), an
    exact ``math.fsum`` or a pairwise numpy sum would not."""

    SQL = (
        "SELECT u1.G, COUNT(*), SUM(u1.X), AVG(u1.X), MIN(u1.X), MAX(u1.X) "
        "FROM U u1, U u2 WHERE u1.K = u2.K AND u1.F = 1 AND u2.F >= 1 GROUP BY u1.G"
    )
    #: (K, G, X, F) per source; both groups interleave inside every source.
    ROWS = {
        "A": [
            ("k1", "g1", 1e16, 1),
            ("k2", "g2", 0.1, 1),
            ("k3", "g1", 1.0, 1),
            ("k4", "g2", 0.2, 1),
        ],
        "B": [("k1", "g2", 0.3, 1), ("k5", "g1", -1e16, 1), ("k2", "g2", 1e16, 1)],
        "C": [
            ("k3", "g1", 1.0, 1),
            ("k4", "g2", -1e16, 1),
            ("k5", "g2", 0.1, 1),
            ("k1", "g2", 1, 1),
        ],
    }

    @pytest.fixture
    def federation(self):
        schema = Schema(
            (
                Attribute("K"),
                Attribute("G"),
                Attribute("X", DataType.FLOAT),
                Attribute("F", DataType.INT),
            ),
            merge_attribute="K",
        )
        return Federation(
            [
                RemoteSource(
                    TableSource(Relation(name, schema, rows)),
                    SourceCapabilities.analytic(),
                    LinkProfile(),
                )
                for name, rows in self.ROWS.items()
            ],
            name="U",
        )

    @classmethod
    def by_hand(cls):
        """Sequential ``total = total + value``, nothing cleverer."""
        groups: dict = {}
        for source in sorted(cls.ROWS):
            totals: dict = {}
            for __, group, value, __ in cls.ROWS[source]:
                total, count = totals.get(group, (0, 0))
                totals[group] = (total + value, count + 1)
            for group, (total, count) in totals.items():
                merged_total, merged_count = groups.get(group, (0, 0))
                groups[group] = (merged_total + total, merged_count + count)
        return groups

    @staticmethod
    def bits(result):
        """Every value of every group, floats to the bit."""
        return [
            (key, [v.hex() if isinstance(v, float) else repr(v) for v in values])
            for key, values in result.groups
        ]

    def test_the_data_tells_the_orders_apart(self):
        g1 = [x for rows in self.ROWS.values() for __, g, x, __ in rows if g == "g1"]
        assert g1 == [1e16, 1.0, -1e16, 1.0]
        assert self.by_hand()["g1"] == (1.0, 4)
        assert math.fsum(g1) == 2.0

    def test_every_path_is_the_left_fold(self, federation):
        query = parse_query(self.SQL)
        hand = self.by_hand()
        expected = {
            (group,): (count, total.hex(), (total / count).hex())
            for group, (total, count) in hand.items()
        }
        results = [reference_aggregate(federation, query)]
        modes = [False, True] if columnar.numpy_available() else [False]
        for use_numpy in modes:
            previous = columnar.set_numpy_enabled(use_numpy)
            try:
                for pushdown in (False, "force", True):
                    mediator = Mediator(federation, verify=False)
                    answer = mediator.answer_aggregate(query, pushdown=pushdown)
                    if pushdown == "force":
                        assert len(answer.aggregate_plan.pushdown_sources) == 3
                    if pushdown is False:
                        assert len(answer.aggregate_plan.fetch_sources) == 3
                    results.append(answer.result)
            finally:
                columnar.set_numpy_enabled(previous)
        for result in results:
            got = {
                key: (count, total.hex(), mean.hex())
                for key, (count, total, mean, __, __) in result.groups
            }
            assert got == expected
            assert self.bits(result) == self.bits(results[0])

    def test_min_max_ties_keep_the_first_value_met(self, federation):
        # 1 == 1.0: which object comes back shows which one was kept,
        # inside one source and across two.
        schema = federation.schema
        specs = (AggregateSpec("min", "X"), AggregateSpec("max", "X"))
        first = Relation("A", schema, [("k1", "g", 1, 1), ("k2", "g", 1.0, 1)])
        second = Relation("B", schema, [("k1", "g", 1.0, 1), ("k2", "g", 1, 1)])
        left = partial_aggregate_rows(first, specs, ("G",))
        right = partial_aggregate_rows(second, specs, ("G",))
        assert [type(v) for v in left[("g",)]] == [int, int]
        assert [type(v) for v in right[("g",)]] == [float, float]
        merged = merge_partials(merge_partials({}, left, specs), right, specs)
        assert [type(v) for v in merged[("g",)]] == [int, int]
