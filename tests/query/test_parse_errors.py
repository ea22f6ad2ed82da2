"""Every parse failure pinned elsewhere in the suite, with its full message.

One row per failure case of ``tests/query/test_sqlparse.py``,
``tests/relational/test_parser.py`` and ``tests/test_errors.py``: the
exception type and the complete message, offset and quoted text
included.  A parser rewrite that keeps what parses but changes how a
rejection reads fails here.
"""

from __future__ import annotations

import pytest

from repro.errors import NotAFusionQueryError, ParseError
from repro.query.sqlparse import (
    is_fusion_query,
    parse_aggregate_query,
    parse_fusion_query,
)
from repro.relational.parser import parse_condition, tokenize

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)
AGG_WHERE = (
    "FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)
NOT_OF_FORM = "statement is not of the form SELECT ... FROM ... WHERE ..."


def constructed(args):
    raise ParseError(*args)


FUSION_FAILURES = [
    ("DELETE FROM U", NOT_OF_FORM),
    ("SELECT 1", NOT_OF_FORM),
    (
        DMV_SQL.replace("SELECT u1.L", "SELECT u1.L, u1.V"),
        "fusion queries project exactly one attribute (the merge attribute); "
        "got 'u1.L, u1.V'",
    ),
    (
        DMV_SQL.replace("SELECT u1.L", "SELECT L"),
        "SELECT list must be a qualified attribute like u1.M; got 'L'",
    ),
    (
        DMV_SQL.replace("U u2", "OTHER u2"),
        "FROM must range only over the union view 'U'; got table 'OTHER'",
    ),
    (
        "SELECT u1.L FROM U u1, U u1 WHERE u1.V = 'x'",
        "duplicate tuple variables: ['u1', 'u1']",
    ),
    (
        "SELECT u9.L FROM U u1 WHERE u1.V = 'x'",
        "SELECT variable 'u9' is not declared in FROM",
    ),
    (
        "SELECT u1.L FROM U u1, U u2 WHERE u1.V = u2.V "
        "AND u1.V = 'dui' AND u2.V = 'sp'",
        "join equality 'u1.V = u2.V' is not on the merge attribute 'L'",
    ),
    (
        "SELECT u1.L FROM U u1, U u2, U u3 WHERE u1.L = u2.L "
        "AND u1.V = 'a' AND u2.V = 'b' AND u3.V = 'c'",
        "merge-attribute equalities do not connect all tuple variables; "
        "disconnected groups remain: 2",
    ),
    (
        "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L "
        "AND u1.D = 1 AND u2.D = 2 AND u1.V = u2.X",
        "join equality 'u1.V = u2.X' is not on the merge attribute 'L'",
    ),
    (
        "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'x'",
        "tuple variable 'u2' has no condition; the pattern requires one "
        "condition per variable",
    ),
    (
        "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L "
        "AND V = 'dui' AND u2.V = 'sp'",
        "conjunct \"V = 'dui'\" references no tuple variable",
    ),
]

FAILURES = [
    *((parse_fusion_query, sql, NotAFusionQueryError, m) for sql, m in FUSION_FAILURES),
    (
        parse_aggregate_query,
        "SELECT COUNT(*) FROM U u1 WHERE u1.V = 'dui'",
        NotAFusionQueryError,
        "cannot infer the merge attribute: the query has no join equalities; "
        "pass merge_attribute explicitly",
    ),
    (
        parse_aggregate_query,
        f"SELECT u1.V {AGG_WHERE} GROUP BY u1.V",
        NotAFusionQueryError,
        "an aggregation fusion query needs at least one aggregate "
        "(COUNT/SUM/AVG/MIN/MAX) in the SELECT list",
    ),
    (
        parse_aggregate_query,
        f"SELECT SUM(*) {AGG_WHERE}",
        ParseError,
        "SUM(*) is not defined; only COUNT(*) (at offset 0 in 'SUM(*)')",
    ),
    (
        tokenize,
        "'abc",
        ParseError,
        "unterminated string literal (at offset 0 in \"'abc\")",
    ),
    (
        tokenize,
        "a = #",
        ParseError,
        "unexpected character '#' (at offset 4 in 'a = #')",
    ),
    (parse_condition, "   ", ParseError, "empty condition (at offset 0 in '   ')"),
    (
        parse_condition,
        "a = 1 b = 2",
        ParseError,
        "trailing input starting at 'b' (at offset 6 in 'a = 1 b = 2')",
    ),
    (
        parse_condition,
        "a = ",
        ParseError,
        "expected a literal, found '' (at offset 4 in 'a = ')",
    ),
    (
        parse_condition,
        "(a = 1",
        ParseError,
        "expected ')', found '' (at offset 6 in '(a = 1')",
    ),
    (
        parse_condition,
        "a NOT = 1",
        ParseError,
        "NOT must be followed by IN or LIKE here (at offset 6 in 'a NOT = 1')",
    ),
    (
        parse_condition,
        "a = $",
        ParseError,
        "unexpected character '$' (at offset 4 in 'a = $')",
    ),
    (
        constructed,
        ("bad token", "a = $", 4),
        ParseError,
        "bad token (at offset 4 in 'a = $')",
    ),
    (constructed, ("generic",), ParseError, "generic"),
]


@pytest.mark.parametrize(
    "parse, text, error, message",
    FAILURES,
    ids=[f"{i:02d}-{row[0].__name__}" for i, row in enumerate(FAILURES)],
)
def test_failure_type_and_full_message(parse, text, error, message):
    with pytest.raises(error) as excinfo:
        parse(text)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


@pytest.mark.parametrize("sql", [sql for sql, _ in FUSION_FAILURES])
def test_detection_says_no_to_every_rejected_statement(sql):
    assert is_fusion_query(sql) is False
