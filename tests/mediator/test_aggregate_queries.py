"""End-to-end tests for aggregation fusion queries (PR 10).

The fusion part fixes the qualifying entity set exactly as before; the
aggregate node then summarizes the matching union-view rows, either by
fetching raw tuples or by partial-aggregate pushdown at sources that
declare the capability.  Both paths — and the reference oracle — must
agree bit-for-bit, including float averages.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.mediator.reference import reference_aggregate
from repro.mediator.session import AggregateAnswer, Mediator
from repro.query.aggregate import AggregateQuery
from repro.query.sqlparse import is_aggregate_query, parse_query
from repro.runtime.engine import Resilience
from repro.sources.capabilities import SourceCapabilities
from repro.sources.generators import dmv_fig1

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
