"""Every setting has a caller.

A field or keyword of a configuration class that only tests set is a
setting with one value in use: it belongs in a constant.  For the
runtime and planner classes below, every settable name must be set by
product code — ``src/``, ``examples/`` or ``benchmarks/`` — in a call
to the class itself (by keyword, by position, or through ``**`` of a
``dict(...)`` built in the same module), or inside one of its presets
that product code calls.  A preset keyword that forwards a preset
parameter counts only where a product call passes that parameter.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.optimize.response_time import ResponseTimeSJAOptimizer
from repro.optimize.robust import RobustOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.runtime.faults import FaultProfile
from repro.runtime.health import BreakerConfig
from repro.runtime.policy import RetryPolicy

ROOT = Path(__file__).resolve().parents[1]
PRODUCT = ("src", "examples", "benchmarks")

CLASSES = (
    RetryPolicy,
    BreakerConfig,
    FaultProfile,
    SJAPlusOptimizer,
    RobustOptimizer,
    ResponseTimeSJAOptimizer,
    SJAOptimizer,
)

#: Collaborators a class works over, not settings of how it works.
COLLABORATORS = {"federation"}

#: Settings kept on purpose although no product path sets them.
KEPT = {
    # OnExhaust.FAIL is the only way to drive the raised-run paths the
    # span tests pin; removing it is a semantics decision of its own.
    (RetryPolicy, "on_exhaust"),
    # FaultInjector.judge draws u_slow for every attempt, which keeps
    # every source's fault stream aligned; deleting the slowdown fault
    # and its draw would change R3-R5's bytes.
    (FaultProfile, "slowdown_rate"),
    (FaultProfile, "slowdown_factor"),
}


def parameters(cls) -> list[str]:
    """What a call to ``cls`` takes, in order (fields or ``__init__``)."""
    if dataclasses.is_dataclass(cls):
        return [field.name for field in dataclasses.fields(cls)]
    return list(inspect.signature(cls.__init__).parameters)[1:]


def settable(cls) -> list[str]:
    """The names a caller may set: every parameter but collaborators."""
    return [name for name in parameters(cls) if name not in COLLABORATORS]


def _names(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def presets(cls) -> dict[str, tuple[list[str], list[tuple[str, str | None]]]]:
    """Per static/class-method preset that builds ``cls``: its
    parameters, and each keyword it sets with the preset parameter the
    value forwards (None for anything else)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    found = {}
    for method in tree.body[0].body:
        if not isinstance(method, ast.FunctionDef) or not any(
            _names(decorator) in ("staticmethod", "classmethod")
            for decorator in method.decorator_list
        ):
            continue
        names = [argument.arg for argument in method.args.args]
        keywords = [
            (
                keyword.arg,
                keyword.value.id
                if isinstance(keyword.value, ast.Name) and keyword.value.id in names
                else None,
            )
            for node in ast.walk(method)
            if isinstance(node, ast.Call) and _names(node.func) == cls.__name__
            for keyword in node.keywords
            if keyword.arg is not None
        ]
        found[method.name] = (names, keywords)
    return found


def _product_modules():
    for top in PRODUCT:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield ast.parse(path.read_text())


def _passed(call: ast.Call, names: list[str], dicts) -> set[str]:
    """Parameter names a call sets: keywords, positions, ``**dict(...)``."""
    passed = set(names[: len(call.args)])
    for keyword in call.keywords:
        if keyword.arg is not None:
            passed.add(keyword.arg)
        elif isinstance(keyword.value, ast.Name):
            passed |= dicts.get(keyword.value.id, set())
    return passed


def product_setters(cls, modules) -> set[str]:
    """Every settable name of ``cls`` that product code sets."""
    cls_presets = presets(cls)
    found: set[str] = set()
    for tree in modules:
        dicts = {
            node.targets[0].id: {k.arg for k in node.value.keywords if k.arg}
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and _names(node.value.func) == "dict"
        }
        # The class's own presets count through their product callers.
        own = {
            id(node)
            for definition in ast.walk(tree)
            if isinstance(definition, ast.ClassDef) and definition.name == cls.__name__
            for node in ast.walk(definition)
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in own:
                continue
            name = _names(call.func)
            if name == cls.__name__:
                found |= _passed(call, parameters(cls), dicts)
            elif (
                name in cls_presets
                and isinstance(call.func, ast.Attribute)
                and _names(call.func.value) == cls.__name__
            ):
                preset_parameters, keywords = cls_presets[name]
                passed = _passed(call, preset_parameters, dicts)
                found |= {
                    keyword
                    for keyword, forwarded in keywords
                    if forwarded is None or forwarded in passed
                }
    return found & set(settable(cls))


@pytest.fixture(scope="module")
def modules():
    return list(_product_modules())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_setting_has_a_product_caller(cls, modules):
    unset = set(settable(cls)) - product_setters(cls, modules)
    kept = {name for owner, name in KEPT if owner is cls}
    assert unset == kept, f"{cls.__name__}: only tests set {sorted(unset - kept)}"


def test_the_settings_table():
    # 45 settable values over eight classes before constants replaced
    # the ones only tests set (QuarantineConfig went entirely).
    counts = {cls.__name__: len(settable(cls)) for cls in CLASSES}
    assert counts == {
        "RetryPolicy": 4,
        "BreakerConfig": 3,
        "FaultProfile": 6,
        "SJAPlusOptimizer": 3,
        "RobustOptimizer": 6,
        "ResponseTimeSJAOptimizer": 0,
        "SJAOptimizer": 3,
    }


def test_the_scan_sees_presets_forwarded_parameters_and_dicts():
    source = textwrap.dedent(
        """
        settings = dict(search="dp")
        RobustOptimizer(federation, availability=None, **settings)
        FaultProfile.flaky(0.1)
        RetryPolicy.no_retry()
        """
    )
    tree = [ast.parse(source)]
    assert product_setters(RobustOptimizer, tree) == {"availability", "search"}
    assert product_setters(FaultProfile, tree) == {"transient_rate"}
    # no_retry forwards on_exhaust, which this call does not pass.
    assert product_setters(RetryPolicy, tree) == {"max_retries"}
