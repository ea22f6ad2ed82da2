"""R12 — columnar substrate: row vs columnar vs columnar+numpy."""

from __future__ import annotations

import pytest

from repro.bench.columnar import leaf_paths, run_columnar
from repro.relational import columnar
from repro.relational.algebra import select_items, semijoin_items
from repro.relational.parser import parse_condition
from repro.relational.relation import Relation
from repro.relational.schema import dmv_schema


def _relation(n: int = 20_000) -> Relation:
    import random

    rng = random.Random(12)
    rows = [
        (
            f"L{rng.randrange(n // 5):06d}",
            rng.choice(("dui", "sp", "park", "redlight")),
            rng.randint(1980, 2010),
        )
        for _ in range(n)
    ]
    return Relation("R", dmv_schema(), rows)


def test_filter_columnar_python(benchmark):
    # The sq(c, R) hot loop under pure-python mask kernels.
    relation = _relation()
    condition = parse_condition("V = 'dui' AND D >= 1995")
    prev = columnar.set_numpy_enabled(False)
    try:
        result = benchmark(select_items, relation, condition)
    finally:
        columnar.set_numpy_enabled(prev)
    assert result


def test_filter_columnar_numpy(benchmark):
    # The same filter under the numpy fast path (skipped if absent).
    if not columnar.numpy_available():
        pytest.skip("numpy not available")
    relation = _relation()
    condition = parse_condition("V = 'dui' AND D >= 1995")
    prev = columnar.set_numpy_enabled(True)
    try:
        result = benchmark(select_items, relation, condition)
    finally:
        columnar.set_numpy_enabled(prev)
    assert result


def test_semijoin_columnar(benchmark):
    relation = _relation()
    condition = parse_condition("D >= 1990")
    wanted = frozenset(sorted(relation.items())[:500])
    result = benchmark(semijoin_items, relation, condition, wanted)
    assert result


@pytest.mark.parametrize("rows", [100, 1_000, 10_000, 100_000])
@pytest.mark.parametrize("path", ["mask", "slice", "bitmap"])
def test_leaf_by_access_path(benchmark, path, rows):
    # One sq leaf, V = 'dui', through the row masks and the value index's
    # two forms: the per-call cost each size rule weighs.
    if not columnar.numpy_available():
        pytest.skip("numpy not available")
    table = _relation(rows).columnar()
    condition = parse_condition("V = 'dui'")
    prev = columnar.set_numpy_enabled(True)
    try:
        paths = leaf_paths(table, condition)
        result = benchmark(paths[path])
        assert result == paths["mask"]()
    finally:
        columnar.set_numpy_enabled(prev)
    assert result


def test_r12_report(benchmark, report_runner):
    report = report_runner(benchmark, "R12")
    assert "columnar substrate" in report
    assert "acceptance" in report


def test_r12_smoke_params():
    # The CI smoke job runs the sweep at reduced sizes; keep that entry
    # point working without touching BENCH_R12.json.
    report = run_columnar(
        sizes=(1_000,), reps=1, bench_json=False, check_speedup=False
    )
    assert "columnar substrate sweep" in report
