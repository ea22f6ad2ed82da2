"""The second phase reads the fusion answer's bitmap and builds no rows.

The fusion run ends holding its answer as an ``ItemSet``; an aggregate
query's fetch and pushdown and a two-phase record fetch hand that
bitmap to every source, so each source's membership mask is one flag
gather.  The relations a fetch returns keep their parent and mask and
gather their row tuples only when someone reads them: the GROUP BY
reads columns, so an aggregate query builds none.
"""

from __future__ import annotations

import pytest

from repro.mediator.phases import PhaseStrategy, answer_with_records
from repro.mediator.reference import reference_aggregate, reference_answer
from repro.mediator.session import Mediator
from repro.relational import columnar, relation
from repro.relational.items import ItemSet
from repro.runtime.engine import Resilience
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.sources.capabilities import SourceCapabilities
from repro.sources.generators import SyntheticConfig, build_synthetic, synthetic_query
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource

AGG_SQL = (
    "SELECT u1.category, COUNT(*), SUM(u1.score), AVG(u1.score), MIN(u1.score) "
    "FROM U u1, U u2 WHERE u1.id = u2.id AND u1.score >= 200 AND u2.year >= 1992 "
    "GROUP BY u1.category"
)

CONFIG = SyntheticConfig(n_sources=4, n_entities=400, coverage=(0.4, 0.8), seed=23)

BACKENDS = {
    "sequential": {},
    "runtime": {"backend": "runtime"},
    "replan": {"backend": "runtime", "replan": 1},
}


@pytest.fixture(params=[None, False] + ([True] if columnar.numpy_available() else []))
def override(request):
    previous = columnar.set_numpy_enabled(request.param)
    yield
    columnar.set_numpy_enabled(previous)


@pytest.fixture
def federation():
    """The synthetic federation with two sources answering ``aq``."""
    synthetic = build_synthetic(CONFIG)
    return Federation(
        [
            RemoteSource(
                source.table,
                SourceCapabilities.analytic() if j % 2 == 0 else source.capabilities,
                source.link,
            )
            for j, source in enumerate(synthetic)
        ],
        name="U",
    )


@pytest.fixture
def second_phase(monkeypatch):
    """The binding sets ``member_mask`` receives inside ``fetch_rows`` and
    ``aggregate``, and the relations ``fetch_rows`` returns."""
    seen = {"wanted": [], "fetched": []}
    inside = [False]
    member_mask = columnar.member_mask

    def recorded_mask(table, wanted):
        if inside[0]:
            seen["wanted"].append(wanted)
        return member_mask(table, wanted)

    def phase(method, fetched):
        def wrapper(self, *args):
            inside[0] = True
            try:
                result = method(self, *args)
            finally:
                inside[0] = False
            if fetched:
                seen["fetched"].append((self.name, result))
            return result

        return wrapper

    monkeypatch.setattr(columnar, "member_mask", recorded_mask)
    monkeypatch.setattr(relation, "member_mask", recorded_mask)
    monkeypatch.setattr(RemoteSource, "fetch_rows", phase(RemoteSource.fetch_rows, True))
    monkeypatch.setattr(RemoteSource, "aggregate", phase(RemoteSource.aggregate, False))
    return seen


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pushdown", [False, "force"])
def test_aggregate_sends_the_bitmap_and_builds_no_rows(
    federation, override, second_phase, backend, pushdown
):
    mediator = Mediator(federation, **BACKENDS[backend])
    answer = mediator.answer_aggregate(AGG_SQL, pushdown=pushdown)
    assert answer.result == reference_aggregate(federation, answer.query)
    assert type(answer.items) is frozenset
    assert type(answer.fusion.execution.item_set) is ItemSet
    assert answer.fusion.execution.item_set == answer.items
    # One mask per fetched or pushed-down source, each over the bitmap.
    assert len(second_phase["wanted"]) == len(federation.source_names)
    assert all(type(wanted) is ItemSet for wanted in second_phase["wanted"])
    fetched = second_phase["fetched"]
    assert len(fetched) == len(answer.aggregate_plan.fetch_sources) > 0
    assert all(rel._rows is None for __, rel in fetched)
    for name, rel in fetched:
        assert len(rel) > 0 and rel._rows is None
        merge = rel.schema.merge_position
        source_rows = federation.source(name).table.relation.rows
        assert rel.rows == tuple(row for row in source_rows if row[merge] in answer.items)


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_phase_records_send_the_bitmap(federation, override, second_phase, backend):
    mediator = Mediator(federation, **BACKENDS[backend])
    query = synthetic_query(CONFIG, m=2, seed=5)
    result = answer_with_records(mediator, query, PhaseStrategy.TWO_PHASE)
    assert result.items == reference_answer(federation, query)
    assert len(second_phase["wanted"]) == len(federation.source_names)
    assert all(type(wanted) is ItemSet for wanted in second_phase["wanted"])
    assert result.records.items() == result.items


def test_replanned_answer_is_the_union_of_the_rounds_bitmaps(federation, second_phase):
    mediator = Mediator(
        federation,
        backend="runtime",
        replan=1,
        faults=FaultInjector(FaultProfile.flaky(0.3), seed=1),
        resilience=Resilience(policy=RetryPolicy(max_retries=0)),
    )
    answer = mediator.answer_aggregate(AGG_SQL, pushdown=False)
    execution = answer.fusion.execution
    assert execution.replans == 1
    item_set = execution.item_set
    assert type(item_set) is ItemSet and item_set == execution.items == answer.items
    assert all(type(wanted) is ItemSet for wanted in second_phase["wanted"])
