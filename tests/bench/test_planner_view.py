"""The planner's view is built one way.

An experiment takes the oracle estimator and the declared-charge model
of its federation from ``bench.harness`` (``make_kit`` /
``kit_for_federation``), and the calibrated cost model is the charge
model over fitted charges: it converts them and prices nothing itself.
R6's log-mined toolkit and C7's two estimators are built by hand because
they are those experiments' subject; neither is an oracle estimator
over ``ExactStatistics(...)`` nor a ``for_federation`` model.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.bench
import repro.costs.calibrated
from repro.costs.calibrated import CalibratedCostModel
from repro.costs.charge import ChargeCostModel

BENCH = Path(repro.bench.__file__).parent
COST_METHODS = {"sq_cost", "sjq_cost", "sjq_pricer", "sjq_price_table", "lq_cost"}


def _called(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _builds_the_oracle_view(call: ast.Call) -> bool:
    """``<model>.for_federation(...)`` or ``SizeEstimator(ExactStatistics(...), ...)``."""
    name = _called(call)
    if name == "for_federation":
        return True
    if name != "SizeEstimator":
        return False
    arguments = [*call.args, *(keyword.value for keyword in call.keywords)]
    return any(
        isinstance(argument, ast.Call) and _called(argument) == "ExactStatistics"
        for argument in arguments
    )


def test_only_the_harness_builds_the_oracle_planners_view():
    builders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(BENCH.glob("*.py"))
        if path.name != "harness.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _builds_the_oracle_view(node)
    ]
    assert builders == []


def test_the_check_sees_multi_line_calls():
    source = (
        "ChargeCostModel.for_federation(\n    federation, estimator\n)\n"
        "SizeEstimator(\n    ExactStatistics(federation),\n    names,\n)\n"
        "SizeEstimator(statistics=ExactStatistics(federation), source_names=names)\n"
        "SizeEstimator(stats, names)\n"
    )
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    assert [call.lineno for call in calls if _builds_the_oracle_view(call)] == [1, 4, 8]


def test_the_calibrated_model_is_the_charge_model_over_fitted_charges():
    assert issubclass(CalibratedCostModel, ChargeCostModel)
    tree = ast.parse(Path(repro.costs.calibrated.__file__).read_text())
    (body,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CalibratedCostModel"
    ]
    defined = {node.name for node in body.body if isinstance(node, ast.FunctionDef)}
    assert not defined & COST_METHODS
