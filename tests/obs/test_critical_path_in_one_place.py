"""The critical path is written in one place.

``repro.obs.spans.critical_path`` is the one core that tiles a trace's
latency into phase slices.  The serving tier feeds it at completion from
the spans it built (the serve skeleton, and the op spans rendered from
the run's trace); ``analyze_trace`` feeds it from persisted spans.  So only
``obs/spans.py`` builds a ``PhaseSlice``, the service never reads a
trace back out of its span log, and on random span sets both entries
give the same path.
"""

from __future__ import annotations

import ast
import pathlib
import random

import pytest

import repro
from repro.obs.events import EVENT_SCHEMA, EventLog
from repro.obs.spans import analyze_trace, critical_path, serve_spans
from tests.obs.test_span_fold import fold_then_render

ROOT = pathlib.Path(repro.__file__).parent


def _names_phase_slice(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "PhaseSlice") or (
        isinstance(node, ast.Attribute) and node.attr == "PhaseSlice"
    )


def phase_slice_builds(tree: ast.AST) -> list[int]:
    """Lines calling ``PhaseSlice`` (or one of its attributes, e.g.
    ``_make``), or passing the class to a call (``tuple.__new__``)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if _names_phase_slice(func) or (
            isinstance(func, ast.Attribute) and _names_phase_slice(func.value)
        ):
            lines.append(node.lineno)
        elif any(_names_phase_slice(arg) for arg in node.args):
            lines.append(node.lineno)
    return lines


def test_only_spans_builds_phase_slices():
    offenders = {}
    for path in sorted(ROOT.rglob("*.py")):
        name = path.relative_to(ROOT).as_posix()
        if name == "obs/spans.py":
            continue
        lines = phase_slice_builds(ast.parse(path.read_text()))
        if lines:
            offenders[name] = lines
    assert offenders == {}


def test_the_check_sees_each_spelling():
    tree = ast.parse(
        "PhaseSlice('queue', 0.0, 1.0)\n"
        "spans.PhaseSlice('queue', 0.0, 1.0)\n"
        "PhaseSlice._make(('queue', 0.0, 1.0, ''))\n"
        "tuple.__new__(PhaseSlice, ('queue', 0.0, 1.0, ''))\n"
        "isinstance(x, tuple)\n"
    )
    assert phase_slice_builds(tree) == [1, 2, 3, 4]
    # The core itself does build them.
    assert phase_slice_builds(ast.parse((ROOT / "obs" / "spans.py").read_text()))


def test_the_service_never_reads_a_trace_back():
    tree = ast.parse((ROOT / "serve" / "service.py").read_text())
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "for_trace"
    ]
    assert reads == []


# ----------------------------------------------------------------------
# Random span sets: both entries into the core agree

_PLACEHOLDER = {"int": 0, "float": 0.0, "str": "", "bool": False, "list[str]": []}
#: A coarse grid, so op ends and starts collide and chains form.
_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def _emit(log: EventLog, ts: float, event_type: str, **fields) -> None:
    schema = EVENT_SCHEMA[event_type]
    full = {name: _PLACEHOLDER[kind] for name, kind in schema.items()}
    full.update(fields)
    log.emit(ts, event_type, **full)


def random_run(rng: random.Random, offset: float) -> list:
    """One engine run's events: ops on a grid, remote ones with
    attempts, backoffs and hedges inside their window, some ops left
    open (a run that raised), a breaker marker, two rounds."""
    log = EventLog()
    for round_no in range(rng.choice((1, 1, 2))):
        _emit(log, offset, "run_start", round=round_no)
        for step in range(1, rng.randint(1, 7) + 1):
            queued = rng.choice(_GRID)
            remote = rng.random() < 0.6
            started = queued + (rng.choice((0.0, 0.0, 0.25)) if remote else 0.0)
            at = started
            if remote:
                for number in range(1, rng.randint(1, 3) + 1):
                    end = at + rng.choice((0.0, 0.1, 0.25, 0.5))
                    _emit(
                        log, offset + end, "attempt", round=round_no,
                        step=step, source="R1", attempt=number, start=at,
                        end=end, fate="ok", hedge=rng.random() < 0.2,
                        cost=1.0,
                    )
                    if rng.random() < 0.3:
                        _emit(
                            log, offset + end, "hedge", round=round_no,
                            step=step, primary="R1", target="R1~1",
                        )
                    if rng.random() < 0.5:
                        wake = end + rng.choice((0.1, 0.2))
                        _emit(
                            log, offset + end, "retry", round=round_no,
                            step=step, source="R1", retries=number, at=wake,
                        )
                        at = wake
                    else:
                        at = end
            if rng.random() < 0.1:
                _emit(log, offset + at, "breaker", source="R1", **{"to": "open"})
            if remote and rng.random() < 0.1:
                continue  # left open: the fold closes it as aborted
            finished = at + rng.choice((0.0, 0.0, 0.1))
            _emit(
                log, offset + finished, "op", round=round_no, step=step,
                op="sq" if remote else "union", source="R1" if remote else "",
                remote=remote, queued=queued, started=started,
                finished=finished, status="ok",
            )
        _emit(log, offset + 2.5, "run_end", round=round_no)
    return log.events


@pytest.mark.parametrize("seed", range(150))
def test_the_completion_path_equals_the_analyzer_on_random_span_sets(seed):
    rng = random.Random(seed)
    submitted = rng.choice(_GRID)
    planned = submitted + rng.choice((0.0, 0.5))
    dispatched = planned + rng.choice((0.0, 0.25))
    completed = dispatched + rng.choice((0.0, 1.0, 2.0, 3.0))
    engine, ops, children = fold_then_render(
        "t", random_run(rng, dispatched), dispatched
    )
    serve = serve_spans(
        "t", seed, "a", "done", submitted_s=submitted, planned_s=planned,
        plan_elapsed_s=rng.choice((0.0, 0.1)), dispatched_s=dispatched,
        completed_s=completed,
    )
    at_completion = critical_path(serve, ops, children)
    # In the span log's order: the engine batch, then the serve skeleton.
    assert analyze_trace([*engine, *serve]) == at_completion
