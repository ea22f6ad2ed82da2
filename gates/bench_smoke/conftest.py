"""The BENCH_*.json rows the bench-smoke gates read.

CI's bench-smoke job reruns R9, R11 and R12 with ``bench_json=True``
over the committed row files, then aggregates the trajectory from that
mix.  These fixtures do the same in a temporary directory, so the
checkout's committed rows stay as they are.
"""

from __future__ import annotations

import json
import shutil

import pytest

from gates.support import ROOT, time_limit
from repro.bench.columnar import run_columnar
from repro.bench.deadlines import run_deadlines
from repro.bench.tracing import run_tracing


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory):
    """A copy of the committed ``BENCH_R*.json`` files."""
    path = tmp_path_factory.mktemp("bench")
    for committed in ROOT.glob("BENCH_R*.json"):
        shutil.copy(committed, path)
    return path


def rerun(bench_dir, bench, experiment, **options):
    """Run ``experiment`` in ``bench_dir`` under CI's 300 s limit; its
    report and its fresh rows keyed by scenario."""
    with pytest.MonkeyPatch.context() as patch, time_limit(300):
        patch.chdir(bench_dir)
        report = experiment(bench_json=True, **options)
    rows = json.loads((bench_dir / f"BENCH_{bench}.json").read_text(encoding="utf-8"))
    return report, {row["scenario"]: row for row in rows}


@pytest.fixture(scope="session")
def deadline_rows(bench_dir):
    return rerun(bench_dir, "R9", run_deadlines, count=16)


@pytest.fixture(scope="session")
def tracing_rows(bench_dir):
    return rerun(bench_dir, "R11", run_tracing, count=24)


@pytest.fixture(scope="session")
def columnar_rows(bench_dir):
    # The reduced sweep still enforces the >= 3x gate at 1e5 rows and
    # asserts row/columnar/numpy result equality per kernel.
    return rerun(bench_dir, "R12", run_columnar, sizes=(1_000, 100_000), reps=2)
