"""Run the library's embedded doctests.

Docstring examples are part of the public documentation; this test
keeps them executable so they can never rot.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro",
    "repro.bench.report",
    "repro.costs.charge",
    "repro.costs.correlation",
    "repro.costs.estimates",
    "repro.mediator.adaptive",
    "repro.mediator.phases",
    "repro.mediator.reference",
    "repro.mediator.schedule",
    "repro.mediator.session",
    "repro.obs.fold",
    "repro.optimize.filter",
    "repro.optimize.response_time",
    "repro.optimize.sj",
    "repro.optimize.sja",
    "repro.optimize.sja_plus",
    "repro.plans.classify",
    "repro.plans.cost",
    "repro.plans.plan",
    "repro.plans.viz",
    "repro.query.fusion",
    "repro.query.sqlparse",
    "repro.relational.parser",
    "repro.runtime.engine",
    "repro.runtime.faults",
    "repro.runtime.policy",
    "repro.relational.relation",
    "repro.relational.schema",
    "repro.serve.tenants",
    "repro.sources.registry",
    "repro.sources.remote",
    "repro.sources.statistics",
    "repro.sources.table_source",
]

# importlib (not attribute access): package __init__ files re-export
# functions whose names shadow submodule attributes (e.g. classify).
MODULES = [importlib.import_module(name) for name in MODULE_NAMES]


@pytest.mark.parametrize("module", MODULES, ids=MODULE_NAMES)
def test_module_doctests(module):
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    )
    assert results.failed == 0, f"{results.failed} doctest failures"


def test_doctests_exist_somewhere():
    """At least a meaningful number of modules carry runnable examples."""
    attempted = sum(
        doctest.testmod(module, verbose=False).attempted for module in MODULES
    )
    assert attempted >= 15
