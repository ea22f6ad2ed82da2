"""SJA+ plans at ``plan_fresh`` scale, pinned bit for bit.

Sixteen sources (half native, a quarter emulated, a quarter
unsupported) and a seven-condition query, shaped like the ``plan_fresh``
benchmark workload.  The seeds cover every postoptimization outcome:
none (16), difference pruning (17), source loading (18) and both (21,
25).  For each seed the pin holds the plan's ``pretty()`` listing, its
``estimated_cost`` and ``subsets_considered``, and every step of its
:func:`~repro.plans.cost.estimate_plan_cost` breakdown as
``(cost.hex(), output_size.hex())`` — so a change to how a plan is
searched, built, postoptimized or priced that moves any bit fails here,
with numpy's price tables and without them.

Regenerate ``golden/fresh_plans_m7.json`` only for a change that means
to move a plan: ``PYTHONPATH=src python tests/optimize/test_fresh_plan_pins.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.harness import make_kit
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.cost import estimate_plan_cost
from repro.relational.columnar import numpy_available, set_numpy_enabled
from repro.sources.generators import SyntheticConfig

GOLDEN = Path(__file__).parent / "golden" / "fresh_plans_m7.json"
SEEDS = (16, 17, 18, 21, 25)
NUMPY_LEGS = (True, False) if numpy_available() else (False,)


def fresh_kit(seed: int):
    """One seed's ``plan_fresh``-shaped planning kit."""
    return make_kit(
        SyntheticConfig(
            n_sources=16,
            n_entities=300,
            coverage=(0.2, 0.6),
            native_fraction=0.5,
            emulated_fraction=0.25,
            seed=seed,
        ),
        m=7,
    )


def fresh_plan_pin(seed: int) -> dict:
    """The pinned facts of one seed's SJA+ plan, from a fresh kit."""
    kit = fresh_kit(seed)
    result = SJAPlusOptimizer().optimize(
        kit.query, kit.source_names, kit.cost_model, kit.estimator
    )
    breakdown = estimate_plan_cost(result.plan, kit.cost_model, kit.estimator)
    return {
        "pretty": result.plan.pretty(),
        "estimated_cost": result.estimated_cost.hex(),
        "subsets_considered": result.subsets_considered,
        "steps": [
            [step.cost.hex(), step.output_size.hex()] for step in breakdown.steps
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("numpy_on", NUMPY_LEGS, ids=lambda on: f"numpy-{'on' if on else 'off'}")
@pytest.mark.parametrize("seed", SEEDS)
def test_the_plan_is_pinned(golden, seed, numpy_on):
    previous = set_numpy_enabled(numpy_on)
    try:
        pin = fresh_plan_pin(seed)
    finally:
        set_numpy_enabled(previous)
    expected = golden[str(seed)]
    assert pin["pretty"] == expected["pretty"]
    assert pin["estimated_cost"] == expected["estimated_cost"]
    assert pin["subsets_considered"] == expected["subsets_considered"] == 127
    assert pin["steps"] == expected["steps"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({str(seed): fresh_plan_pin(seed) for seed in SEEDS}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
