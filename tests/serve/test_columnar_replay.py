"""The columnar substrate must be invisible to traces and replays.

PR 10 rewired the data plane under the mediator; nothing downstream —
executed plans, recorded traces, serving-tier span trees — may change.
The kernels have one remaining axis, numpy on/off: the same work under
both must produce byte-identical artifacts.
"""

from __future__ import annotations

import pytest

from repro.mediator.session import Mediator
from repro.relational import columnar
from repro.serve import MediatorService, WorkloadSpec, generate_arrivals, run_workload
from repro.sources.generators import DMV_FIG1_ANSWER, dmv_fig1

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


def _single_query_artifacts() -> tuple:
    federation, query = dmv_fig1()
    mediator = Mediator(federation, verify=False)
    answer = mediator.answer(query)
    return (
        answer.items,
        answer.plan.pretty(),
        repr(answer.execution.steps),
        answer.summary(),
    )


def _serving_artifacts(seed: int = 77) -> tuple:
    federation, __ = dmv_fig1()
    service = MediatorService(federation, mode="deterministic", seed=seed)
    spec = WorkloadSpec(queries=(DMV_SQL,), count=8, rate_qps=5.0, seed=seed)
    report = run_workload(service, generate_arrivals(spec))
    return (
        report.completed,
        service.spans.to_chrome_json(),
        tuple(sorted(service.metrics.to_json().items())),
    )


def test_same_seed_serving_replay_is_byte_identical():
    first = _serving_artifacts()
    assert first[0] == 8
    for use_numpy in (False, True):  # True is a no-op without numpy
        prev = columnar.set_numpy_enabled(use_numpy)
        try:
            assert _serving_artifacts() == first
        finally:
            columnar.set_numpy_enabled(prev)


def test_numpy_toggle_is_also_invisible():
    if not columnar.numpy_available():
        pytest.skip("numpy not available")
    prev = columnar.set_numpy_enabled(False)
    try:
        without = _single_query_artifacts()
    finally:
        columnar.set_numpy_enabled(prev)
    prev = columnar.set_numpy_enabled(True)
    try:
        with_np = _single_query_artifacts()
    finally:
        columnar.set_numpy_enabled(prev)
    assert with_np == without
    assert with_np[0] == DMV_FIG1_ANSWER


def test_snapshot_reports_substrate():
    federation, __ = dmv_fig1()
    service = MediatorService(federation, mode="deterministic", seed=1)
    assert "columnar substrate" in service.snapshot()["substrate"]
