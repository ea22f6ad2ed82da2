"""Example scripts, pinned byte for byte.

``examples/response_time_tradeoff.py`` and
``examples/fault_tolerant_mediation.py`` print virtual-clock schedules,
costs and timelines only, so their stdout is deterministic under any
hash seed; ``golden/`` holds it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name", ["response_time_tradeoff", "fault_tolerant_mediation"]
)
def test_example_stdout(capsys, name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "examples" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    expected = (GOLDEN / f"{name}.out").read_text()
    assert capsys.readouterr().out == expected
