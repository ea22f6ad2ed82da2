"""A query text is tokenized once per call, whichever entry point reads it."""

from __future__ import annotations

import pytest

import repro.query.sqlparse as sqlparse
import repro.relational.parser as parser

FIG1_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)
# Two texts as the agg_groupby workload writes them.
AGG_SQLS = [
    "SELECT u1.category, COUNT(*), SUM(u1.score), AVG(u1.score), "
    "MIN(u1.score), MAX(u1.score) FROM U u1, U u2 WHERE u1.id = u2.id "
    "AND u1.region IN ('north', 'east') AND u2.year BETWEEN 1995 AND 1997 "
    "GROUP BY u1.category",
    "SELECT u1.year, COUNT(*), SUM(u1.score), AVG(u1.score), MIN(u1.score), "
    "MAX(u1.score) FROM U u1, U u2 WHERE u1.id = u2.id AND u1.score >= 298 "
    "AND u2.score < 403 GROUP BY u1.year",
]
ENTRY_POINTS = [
    "parse_query",
    "parse_fusion_query",
    "parse_aggregate_query",
    "is_fusion_query",
    "is_aggregate_query",
]


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Count every call of the tokenizer, under any name it is imported by."""
    calls = []
    original = parser.tokenize

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(parser, "tokenize", counted)
    if hasattr(sqlparse, "tokenize"):
        monkeypatch.setattr(sqlparse, "tokenize", counted)
    return calls


@pytest.mark.parametrize("sql", [FIG1_SQL, *AGG_SQLS], ids=["fig1", "agg1", "agg2"])
@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_each_call_tokenizes_the_text_once(tokenize_calls, entry_point, sql):
    parse = getattr(sqlparse, entry_point)
    try:
        parse(sql)
    except sqlparse.NotAFusionQueryError:
        pass  # a fusion-only entry point rejecting an aggregate text
    assert tokenize_calls == [sql]


@pytest.mark.parametrize("sql", [FIG1_SQL, *AGG_SQLS], ids=["fig1", "agg1", "agg2"])
def test_parsing_twice_gives_equal_not_identical_queries(sql):
    first = sqlparse.parse_query(sql, merge_attribute="id")
    second = sqlparse.parse_query(sql, merge_attribute="id")
    assert first == second
    assert first is not second
