"""A plan's item sets stay bitmaps from the sources to the answer.

On a federation whose merge values are all strings every ``sq`` /
``sjq`` answer and every local ``∪`` / ``∩`` / ``−`` is an ``ItemSet``,
and the answer is decoded exactly once — by whichever executor ran the
plan, inside its own call.  An adaptive answer is one engine run per
stage: the stages hand each other the bitmap undecoded, and only the
last stage's answer is decoded.
"""

from __future__ import annotations

import pytest

from repro.mediator.session import Mediator
from repro.optimize import SJAOptimizer, SJOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans import operations
from repro.relational.columnar import numpy_available, set_numpy_enabled
from repro.relational.items import ItemSet
from repro.sources.generators import SyntheticConfig, build_synthetic, dmv_fig1, synthetic_query
from repro.sources.remote import RemoteSource
from repro.optimize.planning import Planning

CONFIG = SyntheticConfig(n_sources=4, n_entities=400, seed=25)


def _federations():
    federation, query = dmv_fig1()
    yield "fig1", federation, [query]
    synthetic = build_synthetic(CONFIG)
    yield "synthetic", synthetic, [synthetic_query(CONFIG, m=3, seed=s) for s in (1, 2, 3)]


@pytest.fixture(params=[None, False] + ([True] if numpy_available() else []))
def override(request):
    previous = set_numpy_enabled(request.param)
    yield
    set_numpy_enabled(previous)


@pytest.fixture
def decodes(monkeypatch):
    count = [0]
    decode = ItemSet._decode

    def counted(self):
        count[0] += 1
        return decode(self)

    monkeypatch.setattr(ItemSet, "_decode", counted)
    return count


@pytest.fixture
def bitmaps_only(monkeypatch):
    """Fail on any source answer or local merge that is not a bitmap."""
    seen = []

    def checked(function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            assert type(result) is ItemSet, (function.__name__, type(result))
            seen.append(function.__name__)
            return result

        return wrapper

    for name in ("selection", "semijoin"):
        monkeypatch.setattr(RemoteSource, name, checked(getattr(RemoteSource, name)))
    # Both executors evaluate local operations through ``plans.operations``.
    for name in ("union_many", "intersect_many", "difference"):
        monkeypatch.setattr(operations, name, checked(getattr(operations, name)))
    return seen


OPTIMIZERS = [SJAPlusOptimizer, SJAOptimizer, SJOptimizer]


@pytest.mark.parametrize("backend", ["sequential", "runtime"])
@pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=lambda o: o.__name__)
def test_one_decode_per_answer(backend, optimizer, override, decodes, bitmaps_only):
    for name, federation, queries in _federations():
        mediator = Mediator(federation, backend=backend, planning=Planning(optimizer=optimizer()))
        for query in queries:
            before = decodes[0]
            answer = mediator.answer(query)
            assert decodes[0] - before == 1, (name, backend, str(query))
            assert type(answer.items) is frozenset
            assert type(answer.execution.items) is frozenset
    assert {"selection", "semijoin", "union_many", "intersect_many"} <= set(bitmaps_only)


def test_one_decode_per_adaptive_execution(override, decodes, bitmaps_only):
    for name, federation, queries in _federations():
        mediator = Mediator(federation)
        for query in queries:
            before = decodes[0]
            result = mediator.answer_adaptive(query)
            assert len(result.execution.traces) == len(result.stages) >= 1
            assert decodes[0] - before == 1, (name, str(query))
            # Every round read the bitmap the round before it left.
            for trace in result.execution.traces[1:]:
                assert type(trace.spans[0].operation.items) is ItemSet
            assert type(result.execution.item_set) is ItemSet
            assert type(result.items) is frozenset
            assert result.items is result.execution.items
            assert result.items == Mediator(federation).answer(query).items
    assert {"selection", "semijoin", "intersect_many", "difference"} <= set(bitmaps_only)
