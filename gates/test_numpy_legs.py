"""The tests job's gates, one per numpy leg of its matrix."""

from __future__ import annotations

import pytest

from gates.support import ROOT
from repro.bench.harness import make_kit
from repro.bench.registry import run_experiment
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.relational import columnar
from repro.relational.columnar import set_numpy_enabled
from repro.sources.generators import SyntheticConfig


@pytest.mark.numpy_leg("off")
def test_the_numpy_off_legs_really_have_no_numpy():
    """The numpy-off legs really have no numpy"""
    assert not columnar.numpy_available()


def search_columns(text):
    lines = text.split(chr(10))
    start = next(
        i for i, line in enumerate(lines) if line.startswith("m ") and "| states" in line
    )
    header = [cell.strip() for cell in lines[start].split("|")]
    rows = []
    for line in lines[start + 2 :]:
        if "|" not in line:
            break
        cells = dict(zip(header, (cell.strip() for cell in line.split("|"))))
        rows.append((cells["m"], cells["strategy"], cells["states"], cells["estimated cost"]))
    return rows


@pytest.mark.numpy_leg("on")
def test_planner_rows_agree_with_the_scalar_stage_rule(tmp_path, monkeypatch):
    """Planner rows agree with the scalar stage rule

    The subset DP prices a whole query through the numpy price table;
    B&B prices stage by stage.  For SJA+ and SJ: same plans and cost
    bits with the table forced to numpy and to lists, the same cost bits
    from both searches, and R7's search columns as committed.
    """
    for seed in range(16, 26):
        kit = make_kit(
            SyntheticConfig(
                n_sources=16, n_entities=300, coverage=(0.2, 0.6), native_fraction=0.5,
                emulated_fraction=0.25, seed=seed,
            ),
            m=7,
        )
        for optimizer in (SJAPlusOptimizer, SJOptimizer):
            found = {}
            for numpy_on in (True, False):
                set_numpy_enabled(numpy_on)
                for search in ("dp", "bnb"):
                    result = optimizer(search=search).optimize(
                        kit.query, kit.source_names, kit.cost_model, kit.estimator
                    )
                    found[numpy_on, search] = (
                        result.plan.operations,
                        result.estimated_cost.hex(),
                    )
            set_numpy_enabled(None)
            # Tied orderings may differ across strategies; costs may not.
            for search in ("dp", "bnb"):
                assert found[True, search] == found[False, search], (seed, optimizer.name, search)
            assert found[True, "dp"][1] == found[True, "bnb"][1], (seed, optimizer.name, found)

    committed = search_columns((ROOT / "results" / "R7.txt").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)  # R7 writes its BENCH rows to the working directory
    fresh = search_columns(run_experiment("R7", save=False))
    assert committed and fresh == committed, (fresh, committed)
