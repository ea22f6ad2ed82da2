"""The critical-path chain walk and op tiling against the scans they
replaced.

``_chain_ops`` bisects the (end, step)-sorted op spans for each link's
predecessor.  ``_scan_chain`` below is the walk it replaced, kept here as
the oracle: every span against every link.  Both must pick the same
chain — same spans, same order — on span sets full of ties: many ops
ending at one instant, zero-duration merges, equal steps, and ends a
hair inside or outside ``_EPS``.

``_op_slices`` sweeps one op's merged attempt and backoff windows in time
order.  ``_midpoint_slices`` is the tiling it replaced: every edge in a
sorted point set, each piece classified by testing its midpoint against
every window.  Both must give the same rows, float for float, on windows
that share edges, touch, overlap, nest and sit a hair apart.
"""

from __future__ import annotations

import random

import pytest

from repro.obs.spans import _EPS, Span, _chain_ops, _merge_intervals, _op_slices


def _scan_chain(op_spans: list[Span]) -> list[Span]:
    """The pre-bisect walk: each link rescans every op span."""
    if not op_spans:
        return []
    ordered = sorted(
        op_spans,
        key=lambda s: (s.end_s, s.attributes.get("step", 0)),
    )
    chain = [ordered[-1]]
    seen = {id(ordered[-1])}
    while True:
        current = chain[-1]
        candidates = [
            span
            for span in ordered
            if id(span) not in seen
            and abs(span.end_s - current.start_s) <= _EPS
            and span.start_s <= current.start_s + _EPS
        ]
        if not candidates:
            break
        chain.append(candidates[-1])
        seen.add(id(candidates[-1]))
    return chain


def _stepped(spans: list[Span]) -> list[tuple[int, Span]]:
    """The ``(step, span)`` pairs ``_chain_ops`` walks."""
    return [(span.attributes["step"], span) for span in spans]


def _spans(rng: random.Random, count: int) -> list[Span]:
    """Op spans on a coarse grid of instants, so ends and starts collide."""
    instants = [rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 3.0)) for __ in range(count)]
    spans = []
    for index, start in enumerate(instants):
        shape = rng.random()
        if shape < 0.3:
            end = start  # a zero-duration merge
        elif shape < 0.4:
            end = start + rng.choice((1, -1)) * _EPS * rng.choice((0.5, 1.5))
            end = max(end, start)
        else:
            end = start + rng.choice((0.5, 1.0, 1.5))
        nudge = rng.choice((0.0, 0.0, _EPS * 0.5, -_EPS * 0.5, _EPS * 3))
        spans.append(
            Span(
                trace_id="t",
                span_id=index + 1,
                parent_id=0,
                name=f"op{index}",
                category="engine.op",
                start_s=start + max(nudge, 0.0),
                end_s=end + max(nudge, 0.0),
                attributes={"step": rng.choice((index + 1, 1, 2))},
            )
        )
    return spans


class TestChainAgainstTheScan:
    @pytest.mark.parametrize("seed", range(200))
    def test_same_chain_on_random_span_sets(self, seed):
        rng = random.Random(seed)
        spans = _spans(rng, rng.randint(0, 40))
        assert [id(s) for s in _chain_ops(_stepped(spans))] == [
            id(s) for s in _scan_chain(spans)
        ]

    def test_zero_duration_merges_at_one_instant_terminate(self):
        spans = [
            Span("t", i + 1, 0, f"m{i}", "engine.op", 1.0, 1.0, {"step": i})
            for i in range(30)
        ]
        chain = _chain_ops(_stepped(spans))
        assert chain == _scan_chain(spans)
        assert len(chain) == 30  # every merge once, then the walk stops

    def test_last_in_order_wins_a_tie(self):
        first = Span("t", 1, 0, "a", "engine.op", 0.0, 1.0, {"step": 1})
        second = Span("t", 2, 0, "b", "engine.op", 0.0, 1.0, {"step": 2})
        tail = Span("t", 3, 0, "c", "engine.op", 1.0, 2.0, {"step": 3})
        assert _chain_ops(_stepped([tail, second, first])) == [tail, second]


def _midpoint_slices(op: Span, children: list[Span]) -> list[tuple]:
    """The point-set tiling of a remote op's window."""
    detail = str(op.attributes.get("source", "") or op.name)
    started = float(op.attributes.get("started", op.start_s))
    slices: list[tuple] = []
    if started > op.start_s + _EPS:
        slices.append(("exec.wait", op.start_s, started, detail))
    wire = _merge_intervals(
        [
            (max(started, child.start_s), min(op.end_s, child.end_s))
            for child in children
            if child.name == "attempt" and child.end_s > started
        ]
    )
    backoff = _merge_intervals(
        [
            (max(started, child.start_s), min(op.end_s, child.end_s))
            for child in children
            if child.name == "backoff" and child.end_s > started
        ]
    )
    cursor = started
    points = sorted(
        {started, op.end_s}
        | {t for pair in wire for t in pair}
        | {t for pair in backoff for t in pair}
    )
    for left, right in zip(points, points[1:]):
        if right <= cursor + _EPS or right > op.end_s + _EPS:
            continue
        mid = (left + right) / 2.0
        if any(s - _EPS <= mid <= e + _EPS for s, e in wire):
            phase = "exec.wire"
        elif any(s - _EPS <= mid <= e + _EPS for s, e in backoff):
            phase = "exec.backoff"
        else:
            phase = "exec.wait"
        if slices and slices[-1][0] == phase:
            slices[-1] = (phase, slices[-1][1], right, detail)
        else:
            slices.append((phase, left, right, detail))
        cursor = right
    if cursor < op.end_s - _EPS:
        slices.append(("exec.wait", cursor, op.end_s, detail))
    return slices


def _op_window(rng: random.Random) -> tuple[Span, list[Span]]:
    """A remote op and its attempt / backoff / marker children, on a
    coarse grid with nudges of a fraction or a few multiples of
    ``_EPS`` and float noise, every child starting inside the window."""
    grid = (0.0, 0.1, 0.2, 0.30000000000000004, 0.3, 0.5, 0.7, 1.0)
    nudge = (0.0, 0.0, 0.0, _EPS * 0.5, _EPS * 1.5, _EPS * 3, 1e-16)

    def instant() -> float:
        return 1.0 + rng.choice(grid) + rng.choice(nudge)

    queued = instant()
    started = max(queued, instant())
    finished = max(started, instant())
    children = []
    for index in range(rng.randint(0, 6)):
        start = rng.uniform(queued - 0.1, finished) if rng.random() < 0.2 else instant()
        start = min(start, finished)
        end = max(start, instant())
        name = rng.choice(("attempt", "attempt", "backoff", "hedge"))
        children.append(Span("t", 9 + index, 8, name, "execute", start, end))
    op = Span(
        "t", 8, 6, "op", "execute", queued, finished,
        {"source": rng.choice(("R1", "")), "remote": True, "started": started},
    )
    return op, children


class TestTilingAgainstTheMidpointScan:
    @pytest.mark.parametrize("seed", range(400))
    def test_same_rows_on_random_windows(self, seed):
        op, children = _op_window(random.Random(seed))
        assert _op_slices(op, children) == _midpoint_slices(op, children)

    def test_windows_a_hair_apart_keep_their_classes(self):
        op = Span(
            "t", 8, 6, "op", "execute", 0.0, 1.0,
            {"source": "R1", "remote": True, "started": 0.0},
        )
        children = [
            Span("t", 9, 8, "attempt", "execute", 0.0, 0.5),
            Span("t", 10, 8, "backoff", "execute", 0.5 + 1.5 * _EPS, 0.7),
            Span("t", 11, 8, "attempt", "execute", 0.7, 1.0),
        ]
        rows = _op_slices(op, children)
        assert rows == _midpoint_slices(op, children)
        assert [row[0] for row in rows] == [
            "exec.wire", "exec.backoff", "exec.wire",
        ]
