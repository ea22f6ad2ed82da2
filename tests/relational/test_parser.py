"""Unit tests for the condition parser."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.relational.conditions import (
    And,
    Between,
    Comparison,
    FalseCondition,
    InSet,
    IsNull,
    Like,
    Not,
    Or,
    TrueCondition,
)
from repro.relational.parser import parse_condition, tokenize


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("V = 'dui' AND D >= 1994")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "ident", "op", "string", "keyword", "ident", "op", "number", "eof",
        ]

    def test_string_escaping(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_numbers(self):
        assert tokenize("3")[0].value == 3
        assert tokenize("3.5")[0].value == 3.5
        assert tokenize("-2")[0].value == -2

    def test_diamond_operator_canonicalized(self):
        assert tokenize("a <> 1")[1].text == "!="

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            tokenize("'abc")

    def test_garbage_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("a = #")


class TestParsePrimary:
    def test_comparison(self):
        assert parse_condition("V = 'dui'") == Comparison("V", "=", "dui")
        assert parse_condition("D >= 1994") == Comparison("D", ">=", 1994)
        assert parse_condition("D <> 3") == Comparison("D", "!=", 3)

    def test_qualified_attribute_stripped(self):
        assert parse_condition("u1.V = 'dui'") == Comparison("V", "=", "dui")

    def test_between(self):
        assert parse_condition("D BETWEEN 1990 AND 1995") == Between(
            "D", 1990, 1995
        )

    def test_in(self):
        assert parse_condition("V IN ('dui', 'sp')") == InSet(
            "V", ["dui", "sp"]
        )

    def test_not_in(self):
        assert parse_condition("V NOT IN ('dui')") == Not(InSet("V", ["dui"]))

    def test_like(self):
        assert parse_condition("V LIKE 'd%'") == Like("V", "d%")

    def test_not_like(self):
        assert parse_condition("V NOT LIKE 'd%'") == Not(Like("V", "d%"))

    def test_is_null(self):
        assert parse_condition("V IS NULL") == IsNull("V")
        assert parse_condition("V IS NOT NULL") == IsNull("V", negated=True)

    def test_boolean_literals(self):
        assert parse_condition("TRUE") == TrueCondition()
        assert parse_condition("false") == FalseCondition()

    def test_boolean_value_literal(self):
        assert parse_condition("flag = TRUE") == Comparison("flag", "=", True)


class TestPrecedence:
    def test_and_binds_tighter_than_or(self):
        cond = parse_condition("a = 1 OR b = 2 AND c = 3")
        assert isinstance(cond, Or)
        assert isinstance(cond.operands[1], And)

    def test_parentheses_override(self):
        cond = parse_condition("(a = 1 OR b = 2) AND c = 3")
        assert isinstance(cond, And)
        assert isinstance(cond.operands[0], Or)

    def test_not_precedence(self):
        cond = parse_condition("NOT a = 1 AND b = 2")
        assert isinstance(cond, And)
        assert isinstance(cond.operands[0], Not)

    def test_nested_not(self):
        cond = parse_condition("NOT NOT a = 1")
        assert cond == Not(Not(Comparison("a", "=", 1)))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "V = 'dui'",
            "D >= 1994",
            "V = 'dui' AND D >= 1994",
            "V = 'dui' OR V = 'sp'",
            "NOT (V = 'dui')",
            "D BETWEEN 1990 AND 1995",
            "V LIKE 'd%'",
            "V IS NULL",
            "V IS NOT NULL",
        ],
    )
    def test_parse_sql_roundtrip(self, text):
        condition = parse_condition(text)
        assert parse_condition(condition.to_sql()) == condition


class TestErrors:
    def test_empty_condition(self):
        with pytest.raises(ParseError, match="empty"):
            parse_condition("   ")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_condition("a = 1 b = 2")

    def test_missing_literal(self):
        with pytest.raises(ParseError, match="literal"):
            parse_condition("a = ")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_condition("(a = 1")

    def test_dangling_not(self):
        with pytest.raises(ParseError, match="NOT must be followed"):
            parse_condition("a NOT = 1")

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_condition("a = $")
        assert excinfo.value.position == 4


class TestTokenizerRejectsJunk:
    """Every malformed text is a :class:`ParseError` with an offset."""

    @pytest.mark.parametrize("text, position", [("D = ²", 4), ("D = 1²", 5)])
    def test_non_decimal_digits_are_unexpected_characters(self, text, position):
        with pytest.raises(ParseError, match="unexpected character '²'") as excinfo:
            parse_condition(text)
        assert excinfo.value.position == position

    def test_unicode_decimal_digits_are_numbers(self):
        assert parse_condition("D = ١٢") == Comparison("D", "=", 12)

    def test_trailing_dot_in_identifier(self):
        with pytest.raises(ParseError, match="unexpected character '.'") as excinfo:
            parse_condition("u1.V. = 'x'")
        assert excinfo.value.position == 4

    @pytest.mark.parametrize("word", ["group", "from", "by", "as", "select", "where"])
    def test_clause_words_are_not_reserved(self, word):
        assert parse_condition(f"{word} = 1") == Comparison(word, "=", 1)
