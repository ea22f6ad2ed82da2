"""A run's records are folded in few, named places.

``RuntimeTrace.from_events`` folds a run's ``attempt`` / ``op`` records
into its trace; the query profile and the mined statistics read that
trace.  Besides the trace fold, only the span fold (one span per event,
including the types the trace does not keep), the metric catalogue and
the event schema itself look at those record types.
"""

from __future__ import annotations

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent
RECORD_TYPES = frozenset({"attempt", "op", "sendset", "run_end"})
ALLOWED = {"runtime/trace.py", "obs/spans.py", "obs/fold.py", "obs/events.py"}


def _is_type_read(node: ast.AST) -> bool:
    """``<x>.type`` or ``<x>["type"]``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "type"
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "type"
    )


def _names_record_type(node: ast.AST) -> bool:
    """A string constant naming a record type, or a collection of them."""
    if isinstance(node, ast.Constant):
        return node.value in RECORD_TYPES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_record_type(element) for element in node.elts)
    return False


def record_type_comparisons(tree: ast.AST) -> list[int]:
    """Lines comparing an event's type with a run-record type, read
    directly or through a name bound to it (``kind = event.type``)."""
    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_type_read(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        reads_type = any(
            _is_type_read(operand)
            or (isinstance(operand, ast.Name) and operand.id in bound)
            for operand in operands
        )
        if reads_type and any(map(_names_record_type, operands)):
            lines.append(node.lineno)
    return lines


def test_only_the_named_folds_compare_record_types():
    offenders = {}
    for path in sorted(ROOT.rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        if name in ALLOWED:
            continue
        lines = record_type_comparisons(ast.parse(path.read_text()))
        if lines:
            offenders[name] = lines
    assert offenders == {}


def test_the_check_sees_each_spelling():
    tree = ast.parse(
        "a = event.type == 'attempt'\n"
        "b = record['type'] != 'op'\n"
        "kind = event.type\n"
        "c = kind in ('sendset', 'hedge')\n"
        "d = 'run_end' == event.type\n"
        "e = event.type == 'serve'\n"
        "f = span.kind == 'op'\n"
    )
    assert record_type_comparisons(tree) == [1, 2, 4, 5]


def test_the_exemptions_name_real_modules():
    for name in ALLOWED:
        assert (ROOT / name).is_file(), name
