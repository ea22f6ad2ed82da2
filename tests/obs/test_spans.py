"""Unit tests for span trees, Chrome export, and critical paths."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.spans import (
    ADMISSION_SPAN_ID,
    EXECUTE_SPAN_ID,
    MERGE_SPAN_ID,
    PHASES,
    PLAN_SPAN_ID,
    POOL_SPAN_ID,
    QUEUE_SPAN_ID,
    ROOT_SPAN_ID,
    CriticalPath,
    PhaseSlice,
    Span,
    SpanLog,
    analyze_log,
    analyze_trace,
    derive_trace_id,
    top_contributors,
    validate_chrome_trace,
)

TRACE = derive_trace_id(0, 0)


def span(span_id, parent, name, category, start, end, **attributes):
    return Span(
        trace_id=TRACE,
        span_id=span_id,
        parent_id=parent,
        name=name,
        category=category,
        start_s=start,
        end_s=end,
        attributes=attributes,
    )


def serve_tree(
    submit=0.0,
    queued_until=1.0,
    planned_until=1.0,
    pooled_until=2.0,
    complete=5.0,
):
    """The seven fixed serve-level spans of one query."""
    return [
        span(ROOT_SPAN_ID, None, "query", "query", submit, complete),
        span(ADMISSION_SPAN_ID, 1, "admission", "serve", submit, submit),
        span(QUEUE_SPAN_ID, 1, "queue", "serve", submit, queued_until),
        span(PLAN_SPAN_ID, 1, "plan", "serve", queued_until, planned_until),
        span(POOL_SPAN_ID, 1, "pool", "serve", planned_until, pooled_until),
        span(EXECUTE_SPAN_ID, 1, "execute", "serve", pooled_until, complete),
        span(MERGE_SPAN_ID, 1, "merge", "serve", complete, complete),
    ]


class TestDeriveTraceId:
    def test_stable_and_hex(self):
        assert derive_trace_id(7, 3) == derive_trace_id(7, 3)
        assert len(derive_trace_id(7, 3)) == 16
        int(derive_trace_id(7, 3), 16)  # parses as hex

    def test_seed_and_seq_both_matter(self):
        ids = {
            derive_trace_id(seed, seq)
            for seed in range(20)
            for seq in range(20)
        }
        assert len(ids) == 400


class TestSpan:
    def test_rejects_end_before_start(self):
        with pytest.raises(ObservabilityError, match="ends"):
            span(1, None, "query", "query", 2.0, 1.0)

    def test_duration_clamps_float_noise(self):
        noisy = span(1, None, "query", "query", 1.0, 1.0 - 1e-12)
        assert noisy.duration_s == 0.0


class TestSpanLog:
    def test_append_and_trace_order(self):
        log = SpanLog()
        other = derive_trace_id(0, 1)
        log.add(span(1, None, "query", "query", 0.0, 1.0))
        log.add(
            Span(
                trace_id=other,
                span_id=1,
                parent_id=None,
                name="query",
                category="query",
                start_s=0.5,
                end_s=2.0,
            )
        )
        assert len(log) == 2
        assert log.trace_ids() == [TRACE, other]
        assert [s.trace_id for s in log.for_trace(other)] == [other]

    def test_for_trace_keeps_append_order_when_traces_interleave(self):
        log = SpanLog()
        other = derive_trace_id(0, 1)
        mine = serve_tree()
        theirs = [
            Span(
                trace_id=other,
                span_id=item.span_id,
                parent_id=item.parent_id,
                name=item.name,
                category=item.category,
                start_s=item.start_s,
                end_s=item.end_s,
            )
            for item in reversed(mine)
        ]
        for a, b in zip(mine, theirs):
            log.add(b)
            log.add(a)
        assert log.for_trace(TRACE) == mine
        assert log.for_trace(other) == theirs
        assert log.for_trace(derive_trace_id(0, 2)) == []
        assert log.trace_ids() == [other, TRACE]
        assert [s.trace_id for s in log.spans] == [other, TRACE] * len(mine)

    def test_chrome_export_validates_and_is_deterministic(self):
        log = SpanLog()
        for item in serve_tree():
            log.add(item)
        exported = log.to_chrome_json()
        assert exported == log.to_chrome_json()
        assert validate_chrome_trace(json.loads(exported)) == 7

    def test_chrome_export_rejects_orphan_parent(self):
        log = SpanLog()
        log.add(span(1, None, "query", "query", 0.0, 1.0))
        log.add(span(9, 8, "op", "execute", 0.0, 1.0))
        with pytest.raises(ObservabilityError, match="missing parent"):
            validate_chrome_trace(log.to_chrome_trace())

    def test_validate_rejects_bad_envelope(self):
        with pytest.raises(ObservabilityError, match="traceEvents"):
            validate_chrome_trace({})


class TestAnalyzeTrace:
    def test_no_root_means_no_path(self):
        assert analyze_trace([]) is None
        assert analyze_trace([span(2, 1, "queue", "serve", 0, 1)]) is None

    def test_serve_phases_tile_exactly(self):
        path = analyze_trace(serve_tree())
        assert path is not None
        assert path.total_s == pytest.approx(5.0, abs=1e-12)
        assert sum(s.duration_s for s in path.slices) == pytest.approx(
            5.0, abs=1e-9
        )
        by_phase = path.by_phase()
        assert set(by_phase) == set(PHASES)
        assert by_phase["queue"] == pytest.approx(1.0)
        assert by_phase["pool"] == pytest.approx(1.0)

    def test_op_chain_splits_wait_wire_backoff(self):
        spans = serve_tree(pooled_until=2.0, complete=8.0)
        # One remote op: queued at 2, starts at 3 (engine-side wait),
        # attempt covers [3, 5], backoff [5, 6], then a second attempt
        # [6, 8].
        spans.append(
            span(
                8, EXECUTE_SPAN_ID, "op", "execute", 2.0, 8.0,
                remote=True, started=3.0, source="R1",
            )
        )
        spans.append(span(9, 8, "attempt", "execute", 3.0, 5.0))
        spans.append(span(10, 8, "backoff", "execute", 5.0, 6.0))
        spans.append(span(11, 8, "attempt", "execute", 6.0, 8.0))
        path = analyze_trace(spans)
        by_phase = path.by_phase()
        assert by_phase["exec.wait"] == pytest.approx(1.0)
        assert by_phase["exec.wire"] == pytest.approx(4.0)
        assert by_phase["exec.backoff"] == pytest.approx(1.0)
        assert sum(by_phase.values()) == pytest.approx(path.total_s)

    def test_chain_walks_back_through_predecessors(self):
        spans = serve_tree(pooled_until=2.0, complete=6.0)
        # op A [2, 4] feeds op B [4, 6]; an unrelated early op [2, 3]
        # must not land on the chain.
        spans.append(
            span(8, 6, "op", "execute", 2.0, 4.0, remote=True, started=2.0,
                 source="A", step=0)
        )
        spans.append(span(9, 8, "attempt", "execute", 2.0, 4.0))
        spans.append(
            span(10, 6, "op", "execute", 2.0, 3.0, remote=True, started=2.0,
                 source="off-chain", step=1)
        )
        spans.append(span(11, 10, "attempt", "execute", 2.0, 3.0))
        spans.append(
            span(12, 6, "op", "execute", 4.0, 6.0, remote=True, started=4.0,
                 source="B", step=2)
        )
        spans.append(span(13, 12, "attempt", "execute", 4.0, 6.0))
        path = analyze_trace(spans)
        details = {piece.detail for piece in path.slices if piece.detail}
        assert "A" in details and "B" in details
        assert "off-chain" not in details

    def test_zero_duration_ops_terminate(self):
        # Regression: instantaneous local ops sharing one instant used
        # to chain to each other forever.
        spans = serve_tree(pooled_until=2.0, complete=2.0)
        for offset in range(3):
            spans.append(
                span(
                    8 + offset, EXECUTE_SPAN_ID, "op", "execute", 2.0, 2.0,
                    remote=False, step=offset,
                )
            )
        path = analyze_trace(spans)
        assert path is not None
        assert path.total_s == pytest.approx(2.0)

    def test_gap_fill_keeps_sum_exact(self):
        # An execute window nothing accounts for still tiles to the
        # exact total, as exec.wait.
        spans = serve_tree(pooled_until=2.0, complete=9.0)
        path = analyze_trace(spans)
        assert path.by_phase()["exec.wait"] == pytest.approx(7.0)
        assert sum(s.duration_s for s in path.slices) == pytest.approx(
            path.total_s, abs=1e-9
        )


class TestAnalyzeLog:
    def test_maps_every_rooted_trace(self):
        log = SpanLog()
        for item in serve_tree():
            log.add(item)
        # A rootless trace must be skipped, not crash.
        log.add(
            Span(
                trace_id=derive_trace_id(0, 1),
                span_id=3,
                parent_id=1,
                name="queue",
                category="serve",
                start_s=0.0,
                end_s=1.0,
            )
        )
        paths = analyze_log(log)
        assert list(paths) == [TRACE]


class TestTopContributors:
    def test_ranks_by_blocked_seconds_with_details(self):
        paths = [
            CriticalPath(
                trace_id=TRACE,
                slices=(
                    PhaseSlice("queue", 0.0, 3.0),
                    PhaseSlice("exec.wire", 3.0, 5.0, detail="R1"),
                ),
            ),
            CriticalPath(
                trace_id=derive_trace_id(0, 1),
                slices=(PhaseSlice("exec.wire", 0.0, 4.0, detail="R1"),),
            ),
        ]
        blocked_s: dict[str, float] = {}
        for path in paths:
            path.by_phase(blocked_s)
        assert blocked_s == {"queue": 3.0, "exec.wire@R1": 6.0}
        ranked = top_contributors(blocked_s, limit=2)
        assert ranked == [("exec.wire@R1", 6.0), ("queue", 3.0)]

    def test_zero_contributions_are_dropped(self):
        path = CriticalPath(
            trace_id=TRACE, slices=(PhaseSlice("merge", 1.0, 1.0),)
        )
        blocked_s: dict[str, float] = {}
        path.by_phase(blocked_s)
        assert top_contributors(blocked_s) == []
