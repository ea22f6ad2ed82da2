"""A row is validated where it enters the system, and nowhere after.

``Relation(...)`` checks every tuple against the schema when a source's
table is built.  Everything the mediator derives from those tables —
second-phase fetches, one-phase row selections, the records union,
fault-injected truncations and duplications — draws its rows from
relations that already passed, so answering a query must not call
``Schema.validate_row`` at all.
"""

from __future__ import annotations

import pytest

from repro.mediator.phases import PhaseStrategy, answer_with_records
from repro.mediator.reference import reference_aggregate, reference_answer
from repro.mediator.session import Mediator
from repro.plans.operations import IntersectOp, LoadOp, LocalSelectionOp
from repro.plans.plan import Plan
from repro.runtime.engine import RuntimeEngine
from repro.runtime.faults import DataFaultProfile, FaultInjector, FaultProfile
from repro.sources.generators import SyntheticConfig, build_synthetic, synthetic_query

AGG_SQL = (
    "SELECT u1.category, COUNT(*), SUM(u1.score), AVG(u1.score), MIN(u1.score) "
    "FROM U u1, U u2 WHERE u1.id = u2.id AND u1.score >= 200 AND u2.year >= 1992 "
    "GROUP BY u1.category"
)

CONFIG = SyntheticConfig(n_sources=4, n_entities=120, coverage=(0.4, 0.8), seed=23)


@pytest.fixture
def federation():
    return build_synthetic(CONFIG)


def test_construction_is_where_rows_are_validated(validated_rows):
    federation = build_synthetic(CONFIG)
    assert len(validated_rows) == sum(len(source.table) for source in federation)


def test_aggregate_answer_validates_nothing(federation, validated_rows):
    mediator = Mediator(federation)
    for pushdown in (True, False, "force"):
        answer = mediator.answer_aggregate(AGG_SQL, pushdown=pushdown)
        assert answer.result.groups
    assert validated_rows == []
    assert answer.result == reference_aggregate(federation, answer.query)


def test_fetch_records_validates_nothing(federation, validated_rows):
    mediator = Mediator(federation)
    items = mediator.answer(synthetic_query(CONFIG, m=2, seed=5)).items
    records = mediator.fetch_records(items)
    assert len(records) > 0 and records.items() == items
    assert validated_rows == []


def test_one_phase_records_validate_nothing(federation, validated_rows):
    mediator = Mediator(federation)
    query = synthetic_query(CONFIG, m=2, seed=5)
    result = answer_with_records(mediator, query, PhaseStrategy.ONE_PHASE)
    assert result.items == reference_answer(federation, query)
    assert result.records.items() == result.items
    assert validated_rows == []
    two_phase = answer_with_records(mediator, query, PhaseStrategy.TWO_PHASE)
    assert two_phase.records.items() == result.items
    assert validated_rows == []


@pytest.mark.parametrize(
    "fate, data",
    [
        ("truncated", DataFaultProfile(truncated_rate=1.0, truncated_fraction=0.5)),
        ("duplicate", DataFaultProfile(duplicate_rate=1.0, duplicate_fraction=0.5)),
    ],
)
def test_data_fault_run_validates_nothing(federation, validated_rows, fate, data):
    query = synthetic_query(CONFIG, m=2, seed=5)
    first, second = query.conditions
    source = federation.source_names[0]
    plan = Plan(
        [
            LoadOp("T", source),
            LocalSelectionOp("A", first, "T"),
            LocalSelectionOp("B", second, "T"),
            IntersectOp("X", ("A", "B")),
        ],
        result="X",
    )
    injector = FaultInjector({source: FaultProfile(data=data)}, seed=3)
    result = RuntimeEngine(federation, faults=injector).run(plan)
    assert injector.injected[fate] == 1
    loaded = result.trace.spans[0].output_size
    assert loaded > 0 and loaded != len(federation.source(source).table)
    assert validated_rows == []
