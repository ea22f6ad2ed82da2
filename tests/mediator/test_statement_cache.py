"""The plan cache's statement map: a repeated SQL text is parsed once.

With a plan cache, :meth:`Mediator.parse` and :meth:`Mediator.parse_any`
keep each text's parsed query beside the plans, so a served workload of
a few repeated texts tokenises and parses each text once.  The schema
check still runs on every call, a text that fails to parse is never
stored, and the plan counters read as if no statement were cached.
"""

from __future__ import annotations

import pytest

import repro.mediator.session as session
from repro.errors import ConditionError, NotAFusionQueryError, ParseError
from repro.mediator.plan_cache import PlanCache
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator
from repro.query.fusion import FusionQuery
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema
from repro.serve.service import MediatorService
from repro.serve.tenants import TenantSpec
from repro.serve.workload import WorkloadSpec, generate_arrivals
from repro.sources.generators import dmv_fig1
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.table_source import TableSource

#: Four Fig. 1 texts shaped like the serving benchmark's: two to three
#: conditions over ``V`` and ``D``, every plan a cache hit once warm.
TEXTS = (
    "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'",
    "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'sp' AND u2.D >= 1994",
    "SELECT u1.L FROM U u1, U u2, U u3 WHERE u1.L = u2.L AND u2.L = u3.L"
    " AND u1.V = 'dui' AND u2.V = 'sp' AND u3.D <= 1996",
    "SELECT u1.L FROM U u1, U u2, U u3 WHERE u1.L = u2.L AND u2.L = u3.L"
    " AND u1.V = 'dui' AND u2.D BETWEEN 1993 AND 1994 AND u3.D >= 1993",
)
TENANTS = (TenantSpec("a", 1), TenantSpec("b", 3))
AGGREGATE = (
    "SELECT u1.V, COUNT(*) FROM U u1, U u2 WHERE u1.L = u2.L"
    " AND u1.V = 'dui' AND u2.V = 'sp' GROUP BY u1.V"
)


@pytest.fixture
def parses(monkeypatch):
    """Every call the mediator makes to its two SQL entry points."""
    calls: list[tuple[str, str]] = []
    for name in ("parse_fusion_query", "parse_query"):
        entry = getattr(session, name)

        def counted(sql, *args, _entry=entry, _name=name, **kwargs):
            calls.append((_name, sql))
            return _entry(sql, *args, **kwargs)

        monkeypatch.setattr(session, name, counted)
    return calls


def _served(federation, count, seed=16):
    """``count`` Poisson arrivals of ``TEXTS`` at 4 q/s, as the serving
    benchmark submits them; returns the arrivals and their tickets."""
    service = MediatorService(
        federation, mode="deterministic", tenants=TENANTS, pool_slots=2, queue_limit=64, seed=seed
    )
    spec = WorkloadSpec(queries=TEXTS, tenants=TENANTS, count=count, rate_qps=4.0, seed=seed)
    arrivals = generate_arrivals(spec)
    tickets = [service.submit(a.sql, tenant=a.tenant, at_s=a.at_s) for a in arrivals]
    service.run_until_idle()
    return arrivals, tickets


def _expected(federation):
    mediator = Mediator(federation)
    return {sql: reference_answer(federation, mediator.parse(sql)) for sql in TEXTS}


def test_served_arrivals_parse_each_distinct_text_once(parses):
    federation, _ = dmv_fig1()
    expected = _expected(federation)
    parses.clear()
    arrivals, tickets = _served(federation, 1000)
    assert len(tickets) == 1000
    assert {a.sql for a in arrivals} == set(TEXTS)
    assert sorted(sql for _, sql in parses) == sorted(TEXTS)
    for arrival, ticket in zip(arrivals, tickets):
        assert ticket.status == "done"
        assert ticket.items == expected[arrival.sql]


def test_a_deadlined_query_is_parsed_once_for_admission_and_dispatch(parses):
    # The deadline-shedding prediction plans each query at admission;
    # dispatch plans it again.  Both read the one parsed statement.
    federation, _ = dmv_fig1()
    service = MediatorService(federation, mode="deterministic", seed=3)
    tickets = [
        service.submit(sql, at_s=float(i), deadline_s=60.0) for i in range(3) for sql in TEXTS
    ]
    service.run_until_idle()
    assert all(ticket.status == "done" for ticket in tickets)
    assert sorted(sql for _, sql in parses) == sorted(TEXTS)


def test_without_a_plan_cache_every_call_parses(parses):
    mediator = Mediator(dmv_fig1()[0])
    for _ in range(3):
        mediator.answer(TEXTS[0])
    assert len(parses) == 3


def test_both_entries_keep_their_own_statement(parses):
    mediator = Mediator(dmv_fig1()[0], plan_cache=True)
    for _ in range(3):
        fusion = mediator.parse(TEXTS[0])
        either = mediator.parse_any(TEXTS[0])
        aggregate = mediator.parse_any(AGGREGATE)
    assert fusion == either and isinstance(fusion, FusionQuery)
    assert aggregate.group_by == ("V",)
    assert parses == [
        ("parse_fusion_query", TEXTS[0]),
        ("parse_query", TEXTS[0]),
        ("parse_query", AGGREGATE),
    ]
    assert mediator.answer_aggregate(AGGREGATE).result.groups
    assert len(parses) == 3


@pytest.mark.parametrize(
    "sql, error",
    [
        ("SELECT u1.L FROM U u1, V u2 WHERE u1.L = u2.L AND u1.V = 'dui'", NotAFusionQueryError),
        ("SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = AND u2.V = 'sp'", ParseError),
    ],
)
def test_a_text_that_fails_to_parse_raises_alike_and_is_never_stored(parses, sql, error):
    mediator = Mediator(dmv_fig1()[0], plan_cache=True)
    for entry in (mediator.parse, mediator.parse_any, mediator.answer, mediator.plan):
        messages = set()
        for _ in range(3):
            with pytest.raises(error) as raised:
                entry(sql)
            messages.add(str(raised.value))
        assert len(messages) == 1
    # Nothing was stored: each of the twelve calls parsed the text again.
    assert len(parses) == 12
    assert len(mediator.plan_cache) == 0


def _no_dates_federation() -> Federation:
    """Fig. 1's violations without the ``D`` column, also named ``U``."""
    schema = Schema(
        (Attribute("L", DataType.STRING), Attribute("V", DataType.STRING)),
        merge_attribute="L",
    )
    rows = {"S1": [("J55", "dui"), ("T21", "sp")], "S2": [("T21", "dui"), ("J55", "sp")]}
    sources = [
        RemoteSource(TableSource(Relation(name, schema, table)))
        for name, table in rows.items()
    ]
    return Federation(sources, name="U")


def test_a_shared_cache_still_checks_each_federations_schema(parses):
    cache = PlanCache()
    with_dates = Mediator(dmv_fig1()[0], plan_cache=cache)
    without_dates = Mediator(_no_dates_federation(), plan_cache=cache)
    dated = TEXTS[1]
    assert with_dates.answer(dated).items
    with pytest.raises(ConditionError) as cached:
        without_dates.answer(dated)
    with pytest.raises(ConditionError) as uncached:
        Mediator(_no_dates_federation()).answer(dated)
    assert str(cached.value) == str(uncached.value)
    assert sorted(without_dates.answer(TEXTS[0]).items) == ["J55", "T21"]
    assert sorted(with_dates.answer(TEXTS[0]).items) == ["J55", "T21"]
    # The dated text parsed once for the shared cache, once uncached;
    # the undated text once for both federations.
    assert [sql for _, sql in parses] == [dated, dated, TEXTS[0]]


def test_statements_leave_the_plan_counters_alone():
    mediator = Mediator(dmv_fig1()[0], plan_cache=8)
    for _ in range(5):
        for sql in TEXTS[:2]:
            mediator.answer(sql)
            mediator.plan(sql)
    cache = mediator.plan_cache
    assert (cache.hits, cache.misses, len(cache)) == (18, 2, 2)
    assert cache.summary() == "plan cache: 2/8 entries, 18 hits / 2 misses (hit rate 90%)"


def test_clear_drops_statements_with_plans(parses):
    mediator = Mediator(dmv_fig1()[0], plan_cache=True)
    mediator.answer(TEXTS[0])
    mediator.clear_plan_cache()
    assert (len(mediator.plan_cache), mediator.plan_cache.hits) == (0, 0)
    mediator.answer(TEXTS[0])
    assert len(parses) == 2


def test_statements_are_evicted_least_recently_used_first(parses):
    mediator = Mediator(dmv_fig1()[0], plan_cache=2)
    for sql in (TEXTS[0], TEXTS[1], TEXTS[0], TEXTS[2], TEXTS[0], TEXTS[1]):
        mediator.parse(sql)
    # TEXTS[1] was the least recently used when TEXTS[2] came in.
    assert [sql for _, sql in parses] == [TEXTS[0], TEXTS[1], TEXTS[2], TEXTS[1]]


def test_a_threaded_service_sharing_the_cache_answers_every_ticket():
    federation, _ = dmv_fig1()
    expected = _expected(federation)
    service = MediatorService(federation, mode="threads", workers=4, queue_limit=64)
    try:
        submitted = [(sql, service.submit(sql)) for _ in range(10) for sql in TEXTS]
        service.drain(timeout_s=60.0)
    finally:
        service.close()
    for sql, ticket in submitted:
        assert ticket.status == "done", ticket.error
        assert ticket.items == expected[sql]
