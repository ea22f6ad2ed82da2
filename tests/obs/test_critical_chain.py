"""The critical-path chain walk against the quadratic scan it replaced.

``_chain_ops`` bisects the (end, step)-sorted op spans for each link's
predecessor.  ``_scan_chain`` below is the walk it replaced, kept here as
the oracle: every span against every link.  Both must pick the same
chain — same spans, same order — on span sets full of ties: many ops
ending at one instant, zero-duration merges, equal steps, and ends a
hair inside or outside ``_EPS``.
"""

from __future__ import annotations

import random

import pytest

from repro.obs.spans import _EPS, Span, _chain_ops


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
        assert [id(s) for s in _chain_ops(spans)] == [
            id(s) for s in _scan_chain(spans)
        ]

    def test_zero_duration_merges_at_one_instant_terminate(self):
        spans = [
            Span("t", i + 1, 0, f"m{i}", "engine.op", 1.0, 1.0, {"step": i})
            for i in range(30)
        ]
        chain = _chain_ops(spans)
        assert chain == _scan_chain(spans)
        assert len(chain) == 30  # every merge once, then the walk stops

    def test_last_in_order_wins_a_tie(self):
        first = Span("t", 1, 0, "a", "engine.op", 0.0, 1.0, {"step": 1})
        second = Span("t", 2, 0, "b", "engine.op", 0.0, 1.0, {"step": 2})
        tail = Span("t", 3, 0, "c", "engine.op", 1.0, 2.0, {"step": 3})
        assert _chain_ops([tail, second, first]) == [tail, second]
