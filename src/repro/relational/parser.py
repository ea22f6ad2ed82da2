"""Tokenizer and recursive-descent condition grammar.

Grammar (standard SQL-ish precedence, lowest first)::

    condition   := or_expr
    or_expr     := and_expr ( OR and_expr )*
    and_expr    := not_expr ( AND not_expr )*
    conjunct    := not_expr ( OR not_expr )*      (one operand of a WHERE's AND)
    not_expr    := NOT not_expr | primary
    primary     := '(' condition ')'
                 | TRUE | FALSE
                 | ident IS [NOT] NULL
                 | ident BETWEEN literal AND literal
                 | ident [NOT] IN '(' literal (',' literal)* ')'
                 | ident [NOT] LIKE string
                 | ident compare_op literal
    literal     := string | number | TRUE | FALSE | NULL
    aggregate   := FUNC '(' ( '*' | ident ) ')'

Identifiers may be qualified (``u1.V``); the qualifier is stripped since
fusion-query conditions range over a single tuple variable.  A text is
tokenized once: :mod:`repro.query.sqlparse` runs this grammar at its
cursor over the token list of a whole statement.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from repro.errors import ParseError
from repro.relational.aggregates import AGGREGATE_FUNCS, AggregateSpec
from repro.relational.conditions import (
    Between,
    Comparison,
    Condition,
    FalseCondition,
    InSet,
    IsNull,
    Like,
    Not,
    Or,
    And,
    TrueCondition,
)

_KEYWORDS = {
    "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "IS", "NULL", "TRUE", "FALSE",
}

# One alternation: the commonest token first, the longest operator first
# (no two of the first five start on the same character; junk is the
# rest).  ``\d`` is exactly the digits ``int`` accepts; ``[^\W\d]`` is a
# letter or ``_`` in ASCII but also admits numerics such as ``²``, so a
# word starting outside ASCII must start with a letter.  The leading
# group is the whitespace before the token, which keeps the offsets.
_TOKEN = re.compile(
    r"(\s*)(?:"
    r"(?P<word>[^\W\d]\w*(?:\.\w+)*)"
    r"|(?P<punct>[(),*;])"
    r"|(?P<op><=|>=|!=|<>|=|<|>)"
    r"|(?P<string>'[^']*(?:''[^']*)*')"
    r"|(?P<number>[+-]?\d+(?:\.\d*)?)"
    r"|(?P<junk>\S)"
    r")"
)


class Token(NamedTuple):
    """A lexical token with its source offset (for error messages)."""

    kind: str  # 'ident' | 'number' | 'string' | 'op' | 'punct' | 'keyword' | 'eof'
    text: str
    position: int
    value: Any = None


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on garbage."""
    tokens: list[Token] = []
    append, new, position = tokens.append, tuple.__new__, 0
    for space, word, punct, op, string, number, junk in _TOKEN.findall(text):
        position += len(space)
        if word:
            upper = word if "." in word else word.upper()
            if upper in _KEYWORDS:
                append(new(Token, ("keyword", upper, position, None)))
            elif word[0] < "\x80" or word[0].isalpha():
                append(new(Token, ("ident", word, position, None)))
            else:
                raise ParseError(f"unexpected character {word[0]!r}", text, position)
            position += len(word)
        elif punct:
            append(new(Token, ("punct", punct, position, None)))
            position += 1
        elif op:
            append(new(Token, ("op", "!=" if op == "<>" else op, position, None)))
            position += len(op)
        elif string:
            value = string[1:-1].replace("''", "'")
            append(new(Token, ("string", string, position, value)))
            position += len(string)
        elif number:
            value = float(number) if "." in number else int(number)
            append(new(Token, ("number", number, position, value)))
            position += len(number)
        elif junk == "'":
            raise ParseError("unterminated string literal", text, position)
        else:
            raise ParseError(f"unexpected character {junk!r}", text, position)
    append(new(Token, ("eof", "", len(text), None)))
    return tokens


class _Parser:
    """Stateful cursor over a token list.  Errors quote ``text``, whose
    first character is at offset ``base`` of the tokens' positions."""

    def __init__(self, text: str, tokens: list[Token] | None = None, base: int = 0):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.index = 0
        self.base = base

    # -- cursor helpers --------------------------------------------------

    def fail(self, message: str, token: Token) -> ParseError:
        return ParseError(message, self.text, token.position - self.base)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self.tokens[self.index]
        if token.kind == kind and (text is None or token.text == text):
            self.index += 1
            return token
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.tokens[self.index]
        if token.kind == kind and (text is None or token.text == text):
            self.index += 1
            return token
        raise self.fail(f"expected {text or kind!r}, found {token.text!r}", token)

    def end(self) -> None:
        """Require that the input is used up."""
        token = self.tokens[self.index]
        if token.kind != "eof":
            raise self.fail(f"trailing input starting at {token.text!r}", token)

    # -- grammar ----------------------------------------------------------

    def _chain(self, word: str, node: type, operand) -> Condition:
        operands = [operand()]
        tokens = self.tokens
        while tokens[self.index].text == word and tokens[self.index].kind == "keyword":
            self.index += 1
            operands.append(operand())
        return operands[0] if len(operands) == 1 else node.of(*operands)

    def or_expr(self) -> Condition:
        return self._chain("OR", Or, self.and_expr)

    def and_expr(self) -> Condition:
        return self._chain("AND", And, self.not_expr)

    def conjunct(self) -> Condition:
        return self._chain("OR", Or, self.not_expr)

    def not_expr(self) -> Condition:
        token = self.tokens[self.index]
        if token.text == "NOT" and token.kind == "keyword":
            self.index += 1
            return Not(self.not_expr())
        return self.primary()

    def primary(self) -> Condition:
        token = self.tokens[self.index]
        if token.kind == "ident":
            self.index += 1
            # strip the tuple-variable qualifier
            return self.predicate_tail(token.text.rpartition(".")[2])
        if self.accept("punct", "("):
            inner = self.or_expr()
            self.expect("punct", ")")
            return inner
        if self.accept("keyword", "TRUE"):
            return TrueCondition()
        if self.accept("keyword", "FALSE"):
            return FalseCondition()
        raise self.fail(f"expected 'ident', found {token.text!r}", token)

    def predicate_tail(self, attribute: str) -> Condition:
        token = self.tokens[self.index]
        if token.kind == "op":
            self.index += 1
            return Comparison(attribute, token.text, self.literal())
        if self.accept("keyword", "IS"):
            negated = self.accept("keyword", "NOT") is not None
            self.expect("keyword", "NULL")
            return IsNull(attribute, negated=negated)
        if self.accept("keyword", "BETWEEN"):
            low = self.literal()
            self.expect("keyword", "AND")
            high = self.literal()
            return Between(attribute, low, high)
        negated = self.accept("keyword", "NOT") is not None
        if self.accept("keyword", "IN"):
            self.expect("punct", "(")
            values = [self.literal()]
            while self.accept("punct", ","):
                values.append(self.literal())
            self.expect("punct", ")")
            in_set = InSet(attribute, values)
            return Not(in_set) if negated else in_set
        if self.accept("keyword", "LIKE"):
            pattern = self.expect("string")
            like = Like(attribute, pattern.value)
            return Not(like) if negated else like
        if negated:
            raise self.fail("NOT must be followed by IN or LIKE here", self.tokens[self.index])
        raise self.fail(f"expected 'op', found {token.text!r}", token)

    def literal(self) -> Any:
        token = self.tokens[self.index]
        if token.kind in ("string", "number"):
            self.index += 1
            return token.value
        if token.kind == "keyword" and token.text in ("TRUE", "FALSE", "NULL"):
            self.index += 1
            return None if token.text == "NULL" else token.text == "TRUE"
        raise self.fail(f"expected a literal, found {token.text!r}", token)

    def aggregate(self) -> AggregateSpec:
        ident = self.expect("ident")
        func = ident.text.lower()
        if func not in AGGREGATE_FUNCS:
            raise self.fail(
                f"unknown aggregate function {ident.text!r}; "
                f"expected one of {tuple(f.upper() for f in AGGREGATE_FUNCS)}",
                ident,
            )
        self.expect("punct", "(")
        attribute = None
        if self.accept("punct", "*"):
            if func != "count":
                raise self.fail(f"{func.upper()}(*) is not defined; only COUNT(*)", ident)
        else:
            attribute = self.expect("ident").text.rpartition(".")[2]
        self.expect("punct", ")")
        return AggregateSpec(func, attribute)


def parse_aggregate_list(text: str) -> tuple[AggregateSpec, ...]:
    """Parse ``aggregate ( ',' aggregate )*`` into :class:`AggregateSpec`\\ s.

    ``FUNC`` is one of COUNT/SUM/AVG/MIN/MAX (case-insensitive) and the
    ident may be tuple-variable qualified (``u1.D``).

    Example:
        >>> [str(s) for s in parse_aggregate_list("COUNT(*), avg(u1.D)")]
        ['COUNT(*)', 'AVG(D)']
    """
    if not text or not text.strip():
        raise ParseError("empty aggregate list", text, 0)
    parser = _Parser(text)
    specs = [parser.aggregate()]
    while parser.accept("punct", ","):
        specs.append(parser.aggregate())
    parser.end()
    return tuple(specs)


def parse_condition(text: str) -> Condition:
    """Parse a condition string into a :class:`Condition` AST.

    Example:
        >>> parse_condition("V = 'dui' AND D >= 1994").to_sql()
        "V = 'dui' AND D >= 1994"
    """
    if not text or not text.strip():
        raise ParseError("empty condition", text, 0)
    parser = _Parser(text)
    condition = parser.or_expr()
    parser.end()
    return condition
