"""Recognizing the fusion-query SQL pattern.

Sec. 5 observes that existing optimizers could be retrofitted with "a
module that checks if a query is a fusion query (by looking for the
distinctive pattern of fusion queries) and invokes the algorithm of
Section 3".  This module is that checker: it parses SQL of the form

::

    SELECT u1.M FROM U u1, U u2, ... WHERE
        u1.M = u2.M AND ... AND <per-variable conditions>

into a :class:`~repro.query.fusion.FusionQuery` (an
:class:`~repro.query.aggregate.AggregateQuery` when the SELECT list has
aggregate calls or a GROUP BY follows), or raises
:class:`~repro.errors.NotAFusionQueryError` saying which part of the
pattern failed.  The text is tokenized once and one descent over the
tokens finds the clauses: SELECT / FROM / WHERE / GROUP BY are
recognised where the skeleton expects them, not reserved, and each
WHERE conjunct is parsed by the condition grammar at the cursor.  The
checks implemented:

* the SELECT list is a single qualified attribute (the merge attribute),
  or GROUP BY columns and COUNT/SUM/AVG/MIN/MAX calls;
* the FROM clause ranges only over the union view, once per variable,
  and declares the SELECT variable;
* the WHERE clause is a conjunction whose variable=variable conjuncts
  are merge-attribute equalities connecting *all* tuple variables; and
* every other conjunct references exactly one tuple variable, and every
  variable has one (several are folded into one condition with AND).
"""

from __future__ import annotations

from repro.errors import NotAFusionQueryError, ParseError
from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.relational.aggregates import AGGREGATE_FUNCS, AggregateSpec
from repro.relational.conditions import And, Condition
from repro.relational.parser import Token, _Parser

_NOT_OF_FORM = "statement is not of the form SELECT ... FROM ... WHERE ..."


def _is_word(token: Token, word: str) -> bool:
    """``token`` is the clause word ``word``; clause words are identifiers."""
    return token.kind == "ident" and token.text.upper() == word


def _qualified(token: Token) -> tuple[str, str] | None:
    """``(variable, attribute)`` of an identifier like ``u1.M``."""
    if token.kind == "ident":
        variable, dot, attribute = token.text.partition(".")
        if dot and "." not in attribute:
            return variable, attribute
    return None


def _column(entry: list[Token]) -> str | None:
    """The attribute a one-identifier SELECT / GROUP BY entry names."""
    if len(entry) == 1 and entry[0].kind == "ident" and entry[0].text.count(".") < 2:
        return entry[0].text.rpartition(".")[2]
    return None


class _Statement:
    """One query text and what a single descent over its tokens found."""

    def __init__(self, sql: str, fusion: bool = False):
        self.sql = sql
        self.fusion_only = fusion  # check the SELECT list before FROM and WHERE
        self.selected: tuple[str, str] | None = None
        self.aggregate = False  # an aggregate call in SELECT, or GROUP BY
        self.group_by: list[str] | None = None

    def descend(self) -> _Statement:
        """Tokenize once, then walk SELECT, FROM, WHERE and GROUP BY."""
        try:
            self.parser = parser = _Parser(self.sql)
        except ParseError as exc:
            raise NotAFusionQueryError(f"cannot tokenize statement: {exc}") from exc
        tokens = self.tokens = parser.tokens
        if not _is_word(tokens[0], "SELECT"):
            raise NotAFusionQueryError(_NOT_OF_FORM)
        self.select = self._entries(1, "FROM")
        from_entries = self._entries(parser.index + 1, "WHERE")
        if tokens[parser.index + 1].kind == "eof":
            raise NotAFusionQueryError(_NOT_OF_FORM)
        self.calls = [
            hi - lo > 1
            and tokens[lo].kind == "ident"
            and tokens[lo].text.lower() in AGGREGATE_FUNCS
            and tokens[lo + 1].text == "("
            for lo, hi in self.select
        ]
        self.aggregate = any(self.calls)
        if self.fusion_only:
            self.selected = self._selected()
        self.tables, self.variables = zip(*[self._variable(lo, hi) for lo, hi in from_entries])
        parser.index += 1
        self._where(set(self.variables))
        if _is_word(tokens[parser.index], "GROUP") and _is_word(tokens[parser.index + 1], "BY"):
            self.aggregate = True
            self.group_by = []
            for lo, hi in self._entries(parser.index + 2):
                if (attribute := _column(tokens[lo:hi])) is None:
                    raise NotAFusionQueryError(
                        f"cannot parse GROUP BY entry {self._text(lo, hi)!r}"
                    )
                self.group_by.append(attribute)
        parser.accept("punct", ";")
        parser.end()
        return self

    def _entries(self, start: int, word: str | None = None) -> list[tuple[int, int]]:
        """Comma-separated token ranges from ``start`` up to the clause
        word ``word`` (or to ``;`` / the end); the cursor stops there."""
        tokens = self.tokens
        entries, lo = [], start
        for i, token in enumerate(tokens[start:], start):
            if token.kind == "ident":
                if word and len(token.text) == len(word) and token.text.upper() == word:
                    break
            elif token.text == ",":
                entries.append((lo, i))
                lo = i + 1
            elif token.kind == "eof" or token.text == ";":
                if word:  # the clause word never came
                    raise NotAFusionQueryError(_NOT_OF_FORM)
                break
        if word and i == start:
            raise NotAFusionQueryError(_NOT_OF_FORM)
        entries.append((lo, i))
        self.parser.index = i
        return entries

    def _variable(self, lo: int, hi: int) -> tuple[str, str]:
        """``(table, variable)`` of a FROM entry ``U u1`` / ``U AS u1`` / ``U``."""
        words = self.tokens[lo:hi]
        if len(words) == 3 and _is_word(words[1], "AS"):
            del words[1]
        if 0 < len(words) < 3:
            table, variable = words[0], words[-1]
            if table.kind == variable.kind == "ident" and "." not in table.text + variable.text:
                return table.text, variable.text
        raise NotAFusionQueryError(f"cannot parse FROM entry {self._text(lo, hi)!r}")

    def _where(self, declared: set[str]) -> None:
        """``conjunct ( AND conjunct )*``: a conjunct is a join equality
        between two tuple variables or a condition on one of them."""
        parser, tokens = self.parser, self.tokens
        # (first token, left variable, its attribute, right variable, its attribute)
        self.joins: list[tuple[int, str, str, str, str]] = []
        self.conditions: list[tuple[int, int, Condition, set[str]]] = []
        while True:
            lo = parser.index
            left = right = None
            if lo + 2 < len(tokens) and tokens[lo + 2].kind == "ident":
                left, right = _qualified(tokens[lo]), _qualified(tokens[lo + 2])
            if left and right and tokens[lo + 1].text == "=" and {left[0], right[0]} <= declared:
                self.joins.append((lo, *left, *right))
                parser.index += 3
            else:
                condition = parser.conjunct()
                used = {
                    t.text.split(".", 1)[0]
                    for t in tokens[lo : parser.index]
                    if t.kind == "ident" and "." in t.text
                }
                self.conditions.append((lo, parser.index, condition, used & declared))
            token = tokens[parser.index]
            if token.text != "AND" or token.kind != "keyword":
                return
            parser.index += 1

    def _text(self, lo: int, hi: int) -> str:
        """The source text of tokens ``lo .. hi - 1``."""
        if hi <= lo:
            return ""
        last = self.tokens[hi - 1]
        return self.sql[self.tokens[lo].position : last.position + len(last.text)]

    def fusion(self, view_name: str, merge_attribute: str, name: str) -> FusionQuery:
        """The fusion part: FROM, join and per-variable condition checks."""
        view = view_name.upper()
        for table in self.tables:
            if table != view_name and table.upper() != view:
                raise NotAFusionQueryError(
                    f"FROM must range only over the union view {view_name!r}; "
                    f"got table {table!r}"
                )
        variables = list(self.variables)
        if len(set(variables)) != len(variables):
            raise NotAFusionQueryError(f"duplicate tuple variables: {variables}")

        by_variable: dict[str, list[Condition]] = {v: [] for v in variables}
        for lo, hi, condition, used in self.conditions:
            if len(used) > 1:
                raise NotAFusionQueryError(
                    f"conjunct {self._text(lo, hi)!r} references multiple tuple "
                    f"variables {sorted(used)}; fusion conditions are single-variable"
                )
            if not used:
                if len(variables) > 1:
                    raise NotAFusionQueryError(
                        f"conjunct {self._text(lo, hi)!r} references no tuple variable"
                    )
                used = variables  # unqualified is unambiguous with one var
            (variable,) = used
            by_variable[variable].append(condition)

        group = {v: {v} for v in variables}  # the variables joined to each
        for lo, left, lattr, right, rattr in self.joins:
            if lattr != merge_attribute or rattr != merge_attribute:
                raise NotAFusionQueryError(
                    f"join equality {self._text(lo, lo + 3)!r} is not on the merge "
                    f"attribute {merge_attribute!r}"
                )
            joined, other = group[left], group[right]
            if joined is not other:
                joined |= other
                for v in other:
                    group[v] = joined
        if (groups := len({id(g) for g in group.values()})) > 1:
            raise NotAFusionQueryError(
                "merge-attribute equalities do not connect all tuple variables; "
                f"disconnected groups remain: {groups}"
            )

        conditions: list[Condition] = []
        for variable in variables:
            if not (parsed := by_variable[variable]):
                raise NotAFusionQueryError(
                    f"tuple variable {variable!r} has no condition; the pattern "
                    "requires one condition per variable"
                )
            conditions.append(parsed[0] if len(parsed) == 1 else And.of(*parsed))
        return FusionQuery(merge_attribute, tuple(conditions), name=name)

    def _selected(self) -> tuple[str, str]:
        """``(variable, merge attribute)`` of a fusion query's SELECT list."""
        lo, hi = self.select[0][0], self.select[-1][1]
        if len(self.select) > 1:
            raise NotAFusionQueryError(
                "fusion queries project exactly one attribute (the merge attribute); "
                f"got {self._text(lo, hi)!r}"
            )
        if hi - lo != 1 or not (selected := _qualified(self.tokens[lo])):
            raise NotAFusionQueryError(
                "SELECT list must be a qualified attribute like u1.M; "
                f"got {self._text(lo, hi)!r}"
            )
        return selected

    def fusion_query(self, view_name: str, name: str) -> FusionQuery:
        select_var, merge_attribute = self.selected or self._selected()
        if self.group_by is not None:
            raise NotAFusionQueryError(
                "a fusion query has no GROUP BY clause; this is an aggregation query"
            )
        if select_var not in self.variables:
            raise NotAFusionQueryError(
                f"SELECT variable {select_var!r} is not declared in FROM"
            )
        return self.fusion(view_name, merge_attribute, name)

    def aggregate_query(
        self, view_name: str, merge_attribute: str | None, name: str
    ) -> AggregateQuery:
        group_by = self.group_by or []
        specs, columns = [], []
        for (lo, hi), call in zip(self.select, self.calls):
            if call:
                specs.append(self._aggregate(lo, hi))
            elif (column := _column(self.tokens[lo:hi])) is None:
                raise NotAFusionQueryError(
                    f"cannot parse SELECT entry {self._text(lo, hi)!r}: neither an "
                    "attribute nor an aggregate call"
                )
            else:
                columns.append(column)
        if not specs:
            raise NotAFusionQueryError(
                "an aggregation fusion query needs at least one aggregate "
                "(COUNT/SUM/AVG/MIN/MAX) in the SELECT list"
            )
        if unknown := [c for c in columns if c not in group_by]:
            raise NotAFusionQueryError(
                f"non-aggregated SELECT columns {unknown} must appear in GROUP BY"
            )
        if merge_attribute is None:
            merge_attribute = next((la for _, _, la, _, ra in self.joins if la == ra), None)
        if merge_attribute is None:
            raise NotAFusionQueryError(
                "cannot infer the merge attribute: the query has no join "
                "equalities; pass merge_attribute explicitly"
            )
        fusion = self.fusion(view_name, merge_attribute, name)
        return AggregateQuery(fusion, tuple(specs), tuple(group_by), name=name)

    def _aggregate(self, lo: int, hi: int) -> AggregateSpec:
        """The aggregate call of one SELECT entry, parsed at the cursor.  A
        malformed one is parsed again over the entry's own tokens, so that
        the error quotes the entry and its offset in it."""
        parser = self.parser
        parser.index = lo
        try:
            spec = parser.aggregate()
        except ParseError:
            spec = None
        if spec is None or parser.index != hi:
            text, start = self._text(lo, hi), self.tokens[lo].position
            eof = Token("eof", "", start + len(text))
            entry = _Parser(text, [*self.tokens[lo:hi], eof], base=start)
            spec = entry.aggregate()
            entry.end()
        return spec


def parse_fusion_query(
    sql: str, view_name: str = "U", name: str = ""
) -> FusionQuery:
    """Parse fusion-query SQL into a :class:`FusionQuery`.

    Raises:
        NotAFusionQueryError: if the statement does not match the pattern.
        ParseError: if a condition is not valid condition syntax.

    Example:
        >>> q = parse_fusion_query(
        ...     "SELECT u1.L FROM U u1, U u2 "
        ...     "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        ... )
        >>> q.merge_attribute, q.arity
        ('L', 2)
    """
    return _Statement(sql, fusion=True).descend().fusion_query(view_name, name)


def is_aggregate_query(sql: str) -> bool:
    """True iff the SELECT list contains an aggregate or GROUP BY appears."""
    statement = _Statement(sql)
    try:
        statement.descend()
    except (NotAFusionQueryError, ParseError):
        pass
    return statement.aggregate


def parse_aggregate_query(
    sql: str,
    view_name: str = "U",
    merge_attribute: str | None = None,
    name: str = "",
) -> AggregateQuery:
    """Parse aggregation-fusion SQL into an :class:`AggregateQuery`.

    The FROM/WHERE clauses must match the fusion pattern exactly; the
    SELECT list mixes GROUP BY attributes and aggregate calls.  The merge
    attribute is inferred from the join equalities when the query ranges
    over more than one tuple variable; single-variable aggregates need it
    passed explicitly (the mediator supplies the federation's).

    Example:
        >>> q = parse_aggregate_query(
        ...     "SELECT u1.V, COUNT(*) FROM U u1, U u2 "
        ...     "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' "
        ...     "GROUP BY u1.V"
        ... )
        >>> q.group_by, [str(s) for s in q.specs]
        (('V',), ['COUNT(*)'])
    """
    return _Statement(sql).descend().aggregate_query(view_name, merge_attribute, name)


def parse_query(
    sql: str,
    view_name: str = "U",
    merge_attribute: str | None = None,
    name: str = "",
) -> FusionQuery | AggregateQuery:
    """Parse SQL into whichever query kind it is.

    Dispatches on what the descent found: aggregate calls in the SELECT
    list (or a GROUP BY clause) produce an :class:`AggregateQuery`;
    otherwise the classic fusion pattern is required.
    """
    statement = _Statement(sql).descend()
    if statement.aggregate:
        return statement.aggregate_query(view_name, merge_attribute, name)
    return statement.fusion_query(view_name, name)


def is_fusion_query(sql: str, view_name: str = "U") -> bool:
    """True iff ``sql`` matches the fusion-query pattern of Sec. 2.2."""
    try:
        parse_fusion_query(sql, view_name=view_name)
    except (NotAFusionQueryError, ParseError):
        return False
    return True
