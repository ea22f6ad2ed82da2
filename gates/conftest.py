"""The slow CI gates, runnable as one package: ``python -m pytest gates``.

Each test is one former inline CI step; its name is the step's name up
to the step's dash, and its docstring is the step's full name.
``REPRO_NUMPY_LEG`` names the numpy leg CI runs a gate on (``on`` or
``off``); unset, the leg is whether numpy imports here.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from gates.support import ROOT

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "numpy_leg(leg): runs only on the numpy-on or the numpy-off CI leg"
    )


def pytest_runtest_setup(item):
    marker = item.get_closest_marker("numpy_leg")
    if marker is None:
        return
    leg = os.environ.get("REPRO_NUMPY_LEG") or (
        "on" if importlib.util.find_spec("numpy") else "off"
    )
    if marker.args[0] != leg:
        pytest.skip(f"a numpy-{marker.args[0]} leg gate; this is the numpy-{leg} leg")
