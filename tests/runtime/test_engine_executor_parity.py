"""A zero-fault engine run is the sequential executor's run, step for step.

The engine replaces the sequential :class:`~repro.mediator.executor.Executor`
only if, with nothing failing, it computes the same thing: per plan step
the same items out, the same cost to the bit, the same message count and
no retries, and the same answer.  This pins that on the paper's figures
(FILTER / SJ / SJA / SJA+ plans of Figs. 1 and 3–5) and on federations
shaped like the ``plan_fresh`` benchmark (m = 7, n = 16, seeds 16–25),
with the numpy kernels forced on and off.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import kit_for_federation, make_kit
from repro.mediator.executor import Executor
from repro.optimize.filter import FilterOptimizer
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.relational.columnar import set_numpy_enabled
from repro.runtime.engine import RuntimeEngine
from repro.sources.generators import SyntheticConfig, dmv_fig1
from repro.sources.network import LinkProfile

OPTIMIZERS = (FilterOptimizer, SJOptimizer, SJAOptimizer, SJAPlusOptimizer)


def _figure_kits():
    yield "fig1", kit_for_federation(*dmv_fig1())
    yield "fig3", make_kit(
        SyntheticConfig(
            n_sources=6,
            n_entities=300,
            coverage=(0.3, 0.6),
            overhead_range=(5.0, 30.0),
            receive_range=(1.0, 3.0),
            seed=333,
        ),
        m=3,
    )
    yield "fig4", make_kit(
        SyntheticConfig(
            n_sources=8,
            n_entities=300,
            coverage=(0.3, 0.6),
            native_fraction=0.5,
            emulated_fraction=0.5,
            overhead_range=(5.0, 15.0),
            send_range=(0.2, 0.5),
            receive_range=(4.0, 8.0),
            seed=57,
        ),
        m=3,
    )
    yield "fig5", kit_for_federation(
        *dmv_fig1(
            link=LinkProfile(
                request_overhead=1.0,
                per_item_send=5.0,
                per_item_receive=50.0,
                per_row_load=40.0,
            )
        )
    )


def _plan_fresh_kits():
    for seed in range(16, 26):
        config = SyntheticConfig(
            n_sources=16,
            n_entities=300,
            coverage=(0.2, 0.6),
            native_fraction=0.5,
            emulated_fraction=0.25,
            seed=seed,
        )
        yield f"m7-seed{seed}", make_kit(config, m=7)


def _bits(cost) -> str:
    """A cost exactly: float bits, or an ``int`` (a local step's ``0``)."""
    return cost.hex() if isinstance(cost, float) else repr(cost)


def _steps(execution):
    return [
        (
            step.step,
            step.operation,
            step.output_size,
            _bits(step.actual_cost),
            step.messages,
            step.retries,
        )
        for step in execution.steps
    ]


def _check_kit(kit) -> int:
    """Every optimizer's plan, both numpy modes; returns plans checked."""
    plans = [
        optimizer().optimize(
            kit.query, kit.source_names, kit.cost_model, kit.estimator
        ).plan
        for optimizer in OPTIMIZERS
    ]
    executor = Executor(kit.federation)
    engine = RuntimeEngine(kit.federation)
    previous = set_numpy_enabled(None)
    try:
        for numpy_on in (True, False):
            set_numpy_enabled(numpy_on)
            for plan in plans:
                expected = executor.execute(plan)
                got = engine.run(plan)
                assert got.items == expected.items, (plan.description, numpy_on)
                assert _steps(got) == _steps(expected), (
                    plan.description,
                    numpy_on,
                )
                assert _bits(got.total_cost) == _bits(expected.total_cost)
    finally:
        set_numpy_enabled(previous)
    return len(plans)


class TestZeroFaultEngineIsTheExecutor:
    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig4", "fig5"])
    def test_figure_plans(self, name):
        kit = dict(_figure_kits())[name]
        assert _check_kit(kit) == len(OPTIMIZERS)

    def test_plan_fresh_shaped_federations(self):
        checked = sum(_check_kit(kit) for __, kit in _plan_fresh_kits())
        assert checked == 10 * len(OPTIMIZERS)
