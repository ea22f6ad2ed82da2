"""Unit tests for fusion-query SQL parsing and pattern detection."""

from __future__ import annotations

import pytest

from repro.errors import NotAFusionQueryError
from repro.query.fusion import FusionQuery
from repro.query.sqlparse import is_fusion_query, parse_fusion_query
from repro.relational.conditions import And, Comparison

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


class TestParseHappyPath:
    def test_dmv_query(self):
        query = parse_fusion_query(DMV_SQL)
        assert query.merge_attribute == "L"
        assert query.conditions == (
            Comparison("V", "=", "dui"),
            Comparison("V", "=", "sp"),
        )

    def test_roundtrip_with_to_sql(self):
        query = FusionQuery.from_strings(
            "L", ["V = 'dui'", "V = 'sp'", "D >= 1994"]
        )
        assert parse_fusion_query(query.to_sql()) == query

    def test_three_variables_chained_equalities(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2, U u3 WHERE "
            "u1.L = u2.L AND u2.L = u3.L AND "
            "u1.V = 'a' AND u2.V = 'b' AND u3.V = 'c'"
        )
        assert parse_fusion_query(sql).arity == 3

    def test_equalities_connect_via_star_pattern(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2, U u3 WHERE "
            "u1.L = u2.L AND u1.L = u3.L AND "
            "u1.V = 'a' AND u2.V = 'b' AND u3.V = 'c'"
        )
        assert is_fusion_query(sql)

    def test_multiple_conjuncts_per_variable_are_anded(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND "
            "u1.V = 'dui' AND u1.D >= 1994 AND u2.V = 'sp'"
        )
        query = parse_fusion_query(sql)
        assert isinstance(query.conditions[0], And)
        assert query.conditions[1] == Comparison("V", "=", "sp")

    def test_single_variable_unqualified_condition(self):
        query = parse_fusion_query("SELECT u1.L FROM U u1 WHERE V = 'dui'")
        assert query.arity == 1

    def test_case_insensitive_keywords(self):
        sql = DMV_SQL.replace("SELECT", "select").replace("WHERE", "where")
        assert is_fusion_query(sql)

    def test_trailing_semicolon(self):
        assert is_fusion_query(DMV_SQL + ";")

    def test_custom_view_name(self):
        sql = (
            "SELECT a.doc FROM LIB a, LIB b WHERE a.doc = b.doc "
            "AND a.kw = 'x' AND b.kw = 'y'"
        )
        query = parse_fusion_query(sql, view_name="LIB")
        assert query.merge_attribute == "doc"

    def test_between_and_not_split(self):
        """Regression (found by hypothesis): the AND inside BETWEEN must
        not be treated as a conjunct separator."""
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND "
            "u1.D BETWEEN 1993 AND 1995 AND u2.V = 'sp'"
        )
        query = parse_fusion_query(sql)
        assert query.arity == 2
        from repro.relational.conditions import Between

        assert query.conditions[0] == Between("D", 1993, 1995)

    def test_and_inside_string_literal_not_split(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND "
            "u1.V = 'salt AND pepper' AND u2.V = 'sp'"
        )
        query = parse_fusion_query(sql)
        assert query.conditions[0] == Comparison("V", "=", "salt AND pepper")

    def test_between_inside_parentheses(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND "
            "(u1.D BETWEEN 1993 AND 1995 OR u1.V = 'dui') AND u2.V = 'sp'"
        )
        query = parse_fusion_query(sql)
        assert query.arity == 2

    def test_two_betweens_in_one_query(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND "
            "u1.D BETWEEN 1990 AND 1992 AND u2.D BETWEEN 1995 AND 1997"
        )
        query = parse_fusion_query(sql)
        assert query.arity == 2
        from repro.relational.conditions import Between

        assert all(isinstance(c, Between) for c in query.conditions)

    def test_parenthesized_or_condition(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND "
            "(u1.V = 'dui' OR u1.V = 'reckless') AND u2.V = 'sp'"
        )
        query = parse_fusion_query(sql)
        assert query.arity == 2


class TestRejections:
    def test_not_select_from_where(self):
        assert not is_fusion_query("DELETE FROM U")

    def test_multiple_projected_attributes(self):
        sql = DMV_SQL.replace("SELECT u1.L", "SELECT u1.L, u1.V")
        with pytest.raises(NotAFusionQueryError, match="exactly one"):
            parse_fusion_query(sql)

    def test_unqualified_select(self):
        sql = DMV_SQL.replace("SELECT u1.L", "SELECT L")
        with pytest.raises(NotAFusionQueryError, match="qualified"):
            parse_fusion_query(sql)

    def test_foreign_table_in_from(self):
        sql = DMV_SQL.replace("U u2", "OTHER u2")
        with pytest.raises(NotAFusionQueryError, match="union view"):
            parse_fusion_query(sql)

    def test_duplicate_aliases(self):
        sql = "SELECT u1.L FROM U u1, U u1 WHERE u1.V = 'x'"
        with pytest.raises(NotAFusionQueryError, match="duplicate"):
            parse_fusion_query(sql)

    def test_select_variable_not_declared(self):
        sql = "SELECT u9.L FROM U u1 WHERE u1.V = 'x'"
        with pytest.raises(NotAFusionQueryError, match="not declared"):
            parse_fusion_query(sql)

    def test_equality_not_on_merge_attribute(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.V = u2.V "
            "AND u1.V = 'dui' AND u2.V = 'sp'"
        )
        with pytest.raises(NotAFusionQueryError, match="merge"):
            parse_fusion_query(sql)

    def test_disconnected_variables(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2, U u3 WHERE u1.L = u2.L "
            "AND u1.V = 'a' AND u2.V = 'b' AND u3.V = 'c'"
        )
        with pytest.raises(NotAFusionQueryError, match="connect"):
            parse_fusion_query(sql)

    def test_condition_spanning_two_variables(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L "
            "AND u1.D = 1 AND u2.D = 2 AND u1.V = u2.X"
        )
        with pytest.raises(NotAFusionQueryError):
            parse_fusion_query(sql)

    def test_variable_without_condition(self):
        sql = "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'x'"
        with pytest.raises(NotAFusionQueryError, match="no condition"):
            parse_fusion_query(sql)

    def test_unqualified_condition_with_multiple_variables(self):
        sql = (
            "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L "
            "AND V = 'dui' AND u2.V = 'sp'"
        )
        with pytest.raises(NotAFusionQueryError, match="no tuple variable"):
            parse_fusion_query(sql)

    def test_is_fusion_query_is_boolean(self):
        assert is_fusion_query(DMV_SQL) is True
        assert is_fusion_query("SELECT 1") is False


AGG_SQL = (
    "SELECT u1.V, COUNT(*), AVG(u1.D) FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' "
    "GROUP BY u1.V"
)


class TestAggregateDetection:
    def test_group_by_is_aggregate(self):
        from repro.query.sqlparse import is_aggregate_query

        assert is_aggregate_query(AGG_SQL)

    def test_global_aggregate_without_group_by(self):
        from repro.query.sqlparse import is_aggregate_query

        sql = (
            "SELECT COUNT(*) FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        )
        assert is_aggregate_query(sql)

    def test_plain_fusion_is_not_aggregate(self):
        from repro.query.sqlparse import is_aggregate_query

        assert not is_aggregate_query(DMV_SQL)


class TestParseAggregateQuery:
    def test_merge_attribute_inferred_from_join(self):
        from repro.query.sqlparse import parse_aggregate_query

        query = parse_aggregate_query(AGG_SQL)
        assert query.merge_attribute == "L"
        assert query.group_by == ("V",)

    def test_single_variable_needs_explicit_merge(self):
        from repro.query.sqlparse import parse_aggregate_query

        sql = "SELECT COUNT(*) FROM U u1 WHERE u1.V = 'dui'"
        query = parse_aggregate_query(sql, merge_attribute="L")
        assert query.merge_attribute == "L"
        with pytest.raises(NotAFusionQueryError):
            parse_aggregate_query(sql)

    def test_requires_at_least_one_aggregate(self):
        from repro.query.sqlparse import parse_aggregate_query

        sql = (
            "SELECT u1.V FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' "
            "GROUP BY u1.V"
        )
        with pytest.raises(NotAFusionQueryError):
            parse_aggregate_query(sql)

    def test_parse_query_dispatches(self):
        from repro.query.aggregate import AggregateQuery
        from repro.query.sqlparse import parse_query

        assert isinstance(parse_query(AGG_SQL), AggregateQuery)
        assert isinstance(parse_query(DMV_SQL), FusionQuery)

    def test_count_star_only_for_count(self):
        from repro.query.sqlparse import parse_aggregate_query

        sql = (
            "SELECT SUM(*) FROM U u1, U u2 "
            "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        )
        with pytest.raises(Exception):
            parse_aggregate_query(sql)


LITERAL_GROUP_BY_SQL = (
    "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L "
    "AND u1.V = 'x GROUP BY y' AND u2.V = 'sp'"
)


class TestClauseWordsByPosition:
    """Clause words count only where the statement's skeleton expects them."""

    def test_group_by_inside_a_literal_is_a_fusion_query(self):
        from repro.query.sqlparse import parse_query

        query = parse_query(LITERAL_GROUP_BY_SQL)
        assert isinstance(query, FusionQuery)
        assert query.conditions == (
            Comparison("V", "=", "x GROUP BY y"),
            Comparison("V", "=", "sp"),
        )

    def test_group_by_inside_a_literal_is_not_detected_as_aggregate(self):
        from repro.query.sqlparse import is_aggregate_query

        assert is_aggregate_query(LITERAL_GROUP_BY_SQL) is False
        assert is_fusion_query(LITERAL_GROUP_BY_SQL) is True

    def test_mediator_parse_any_accepts_it(self, dmv_mediator):
        query = dmv_mediator.parse_any(LITERAL_GROUP_BY_SQL)
        assert isinstance(query, FusionQuery)
        assert query == parse_fusion_query(LITERAL_GROUP_BY_SQL)

    @pytest.mark.parametrize("word", ["select", "from", "where", "group", "by", "as"])
    def test_clause_words_are_attribute_names_in_conditions(self, word):
        sql = f"SELECT u1.L FROM U u1 WHERE u1.{word} = 1 AND {word} = 2"
        query = parse_fusion_query(sql)
        assert query.conditions == (
            And.of(Comparison(word, "=", 1), Comparison(word, "=", 2)),
        )
