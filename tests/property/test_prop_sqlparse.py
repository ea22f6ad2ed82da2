"""Property-based tests for the query-text parser."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FusionError
from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.query.sqlparse import (
    is_aggregate_query,
    is_fusion_query,
    parse_aggregate_query,
    parse_fusion_query,
    parse_query,
)
from repro.relational.aggregates import AGGREGATE_FUNCS, AggregateSpec
from repro.relational.parser import parse_condition, tokenize

from tests.property.strategies import dmv_conditions

# Conditions are taken in the form the condition grammar gives them
# (nested ANDs flattened), which the WHERE clause must reproduce.
conjunct_conditions = dmv_conditions.map(lambda c: parse_condition(c.to_sql()))

fusion_queries = st.builds(
    lambda conditions: FusionQuery("L", tuple(conditions)),
    st.lists(conjunct_conditions, min_size=1, max_size=4),
)


@st.composite
def aggregate_queries(draw):
    fusion = draw(fusion_queries)
    group_by = draw(st.lists(st.sampled_from(["V", "D", "L"]), unique=True, max_size=2))
    specs = draw(
        st.lists(
            st.one_of(
                st.just(AggregateSpec("count", None)),
                st.builds(
                    AggregateSpec,
                    st.sampled_from(AGGREGATE_FUNCS),
                    st.sampled_from(["V", "D", "L"]),
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return AggregateQuery(fusion=fusion, specs=tuple(specs), group_by=tuple(group_by))


@settings(max_examples=150, deadline=None)
@given(fusion_queries)
def test_fusion_sql_parses_back_to_the_query(query):
    sql = query.to_sql()
    assert parse_fusion_query(sql) == query
    assert parse_query(sql) == query
    assert is_fusion_query(sql) is True
    assert is_aggregate_query(sql) is False


@settings(max_examples=150, deadline=None)
@given(aggregate_queries())
def test_aggregate_sql_parses_back_to_the_query(query):
    sql = query.to_sql()
    # One tuple variable has no join equality to infer the merge attribute from.
    merge = "L" if query.fusion.arity == 1 else None
    assert parse_query(sql, merge_attribute=merge) == query
    assert parse_aggregate_query(sql, merge_attribute=merge) == query
    assert is_aggregate_query(sql) is True
    assert is_fusion_query(sql) is False


VOCABULARY = [
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND", "OR", "NOT", "IN",
    "BETWEEN", "LIKE", "IS", "NULL", "COUNT(*)", "SUM(", "u1.", "u2.L", "U", ",",
    "(", ")", "=", "<>", "'", "''", ";", "1.5", "-3", "²", "١", ".", "#", " ",
]


@st.composite
def mangled_texts(draw):
    """A valid fusion or aggregate text with a few edits at random offsets."""
    query = draw(st.one_of(fusion_queries, aggregate_queries()))
    text = query.to_sql()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        text = text[:at] + draw(st.sampled_from(VOCABULARY)) + text[at + cut :]
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), mangled_texts()))
def test_any_text_parses_or_raises_a_library_error(text):
    for parse in (
        tokenize,
        parse_condition,
        parse_query,
        parse_fusion_query,
        lambda t: parse_aggregate_query(t, merge_attribute="L"),
    ):
        try:
            parse(text)
        except FusionError:
            pass
    assert is_fusion_query(text) in (True, False)
    assert is_aggregate_query(text) in (True, False)

