"""Unit tests for runtime trace structures and rendering."""

from __future__ import annotations

import pytest

from repro.mediator.session import Mediator
from repro.obs import EventLog, Recorder
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import AttemptFate, FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.runtime.trace import AttemptSpan, OpStatus, RuntimeTrace
from repro.sources.generators import dmv_fig1, replicate_federation


@pytest.fixture
def clean_run():
    federation, query = dmv_fig1()
    plan = build_filter_plan(query, federation.source_names)
    return RuntimeEngine(federation).run(plan), plan


@pytest.fixture
def faulty_run():
    federation, query = dmv_fig1()
    plan = build_filter_plan(query, federation.source_names)
    engine = RuntimeEngine(
        federation,
        faults=FaultInjector(FaultProfile.flaky(0.6), seed=5),
        resilience=Resilience(
            policy=RetryPolicy(max_retries=5, backoff_base_s=0.05),
        ),
    )
    return engine.run(plan)


class TestSpans:
    def test_attempt_span_duration(self):
        span = AttemptSpan(
            attempt=1, start_s=1.0, end_s=3.5, fate=AttemptFate.OK,
            cost=10.0, items_sent=0, items_received=5, rows_loaded=0,
            messages=1,
        )
        assert span.duration_s == pytest.approx(2.5)

    def test_clean_run_spans_cover_every_step(self, clean_run):
        result, plan = clean_run
        assert len(result.trace.spans) == len(plan)
        assert [s.step for s in result.trace.spans] == list(
            range(1, len(plan) + 1)
        )
        for span in result.trace.spans:
            assert span.status is OpStatus.OK
            assert span.queued_s <= span.started_s <= span.finished_s

    def test_remote_spans_have_one_attempt_each_when_clean(self, clean_run):
        result, __ = clean_run
        for span in result.trace.remote_spans:
            assert len(span.attempts) == 1
            assert span.retries == 0
            assert span.messages >= 1

    def test_local_spans_are_instantaneous_and_free(self, clean_run):
        result, __ = clean_run
        locals_ = [
            s for s in result.trace.spans if not s.operation.remote
        ]
        assert locals_
        for span in locals_:
            assert span.attempts == ()
            assert span.busy_s == 0.0
            assert span.cost == 0.0


class TestAggregates:
    def test_total_cost_matches_traffic(self):
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        federation.reset_traffic()
        result = RuntimeEngine(federation).run(plan)
        assert result.trace.total_cost == pytest.approx(
            federation.total_traffic_cost()
        )
        assert result.trace.total_messages == federation.total_messages()

    def test_utilization_bounded_by_one(self, clean_run):
        result, __ = clean_run
        for fraction in result.trace.per_source_utilization().values():
            assert 0.0 < fraction <= 1.0 + 1e-12

    def test_by_source_partitions_remote_spans(self, clean_run):
        result, __ = clean_run
        grouped = result.trace.by_source()
        assert sum(len(v) for v in grouped.values()) == len(
            result.trace.remote_spans
        )


class TestRendering:
    def test_timeline_row_per_remote_op(self, clean_run):
        result, __ = clean_run
        lines = result.trace.timeline().splitlines()
        # one per remote op + the makespan footer
        assert len(lines) == len(result.trace.remote_spans) + 1
        assert "makespan" in lines[-1]
        assert all("|" in line for line in lines[:-1])

    def test_timeline_marks_failed_attempts(self, faulty_run):
        assert faulty_run.trace.total_retries > 0
        assert "x" in faulty_run.trace.timeline()

    def test_timeline_fixed_width(self, clean_run):
        result, __ = clean_run
        rows = result.trace.timeline(width=40).splitlines()[:-1]
        assert len({len(row) for row in rows}) == 1

    def test_utilization_report_lists_every_source(self, clean_run):
        result, __ = clean_run
        report = result.trace.utilization_report()
        for name in ("R1", "R2", "R3"):
            assert name in report

    def test_summary_mentions_key_figures(self, clean_run):
        result, __ = clean_run
        summary = result.trace.summary()
        assert "makespan" in summary
        assert "remote ops" in summary
        assert "retries" in summary


class TestEdgeCases:
    """Degenerate traces the renderers must survive: zero-duration
    attempts, overlapping hedge attempts, and traces with no completed
    or no remote operations at all."""

    @staticmethod
    def remote_span(step=1, attempts=(), status=OpStatus.OK, output=0):
        from repro.plans.operations import LoadOp
        from repro.runtime.trace import OpSpan

        starts = [a.start_s for a in attempts] or [0.0]
        ends = [a.end_s for a in attempts] or [0.0]
        return OpSpan(
            step=step,
            operation=LoadOp(target_register=f"T_R{step}", source=f"R{step}"),
            queued_s=min(starts),
            started_s=min(starts),
            finished_s=max(ends),
            attempts=tuple(attempts),
            status=status,
            output_size=output,
        )

    @staticmethod
    def attempt(start, end, fate=AttemptFate.OK, source="", hedge=False):
        return AttemptSpan(
            attempt=1, start_s=start, end_s=end, fate=fate, cost=1.0,
            items_sent=0, items_received=0, rows_loaded=1, messages=1,
            source=source, hedge=hedge,
        )

    def test_zero_duration_attempt_still_visible(self):
        from repro.runtime.trace import RuntimeTrace

        span = self.remote_span(attempts=[self.attempt(1.0, 1.0)])
        trace = RuntimeTrace(spans=(span,), makespan_s=2.0)
        row = trace.timeline(width=20).splitlines()[0]
        assert "#" in row  # a zero-width attempt renders at least 1 cell

    def test_zero_makespan_trace_renders(self):
        from repro.runtime.trace import RuntimeTrace

        span = self.remote_span(attempts=[self.attempt(0.0, 0.0)])
        trace = RuntimeTrace(spans=(span,), makespan_s=0.0)
        assert "#" in trace.timeline()
        assert trace.per_source_utilization() == {"R1": 0.0}
        assert "R1" in trace.utilization_report()

    def test_overlapping_hedge_attempts(self):
        from repro.runtime.trace import RuntimeTrace

        primary = self.attempt(
            0.0, 4.0, fate=AttemptFate.CANCELLED, source="R1"
        )
        hedge = self.attempt(2.0, 3.0, source="R1b", hedge=True)
        span = self.remote_span(
            attempts=[primary, hedge], status=OpStatus.OK, output=3
        )
        trace = RuntimeTrace(spans=(span,), makespan_s=4.0)
        row = trace.timeline(width=8).splitlines()[0]
        assert "c" in row and "#" in row
        # the winning overlapped attempt overwrites the cancelled cells
        assert span.served_by == "R1b"
        assert span.hedged
        busy = trace.busy_by_serving_source()
        assert busy["R1"] == pytest.approx(4.0)
        assert busy["R1b"] == pytest.approx(1.0)
        report = trace.utilization_report()
        assert "R1b" in report

    def test_no_completed_attempts_degraded(self):
        from repro.runtime.trace import RuntimeTrace

        span = self.remote_span(
            attempts=[
                self.attempt(0.0, 1.0, fate=AttemptFate.TIMEOUT),
                self.attempt(1.5, 2.5, fate=AttemptFate.TRANSIENT),
            ],
            status=OpStatus.DEGRADED,
        )
        trace = RuntimeTrace(spans=(span,), makespan_s=3.0)
        timeline = trace.timeline()
        assert "x" in timeline and "DEGRADED" in timeline
        assert "#" not in timeline.splitlines()[0]
        assert span.served_by == "R1"  # falls back to the planned source

    def test_no_remote_operations(self):
        from repro.plans.operations import UnionOp
        from repro.runtime.trace import OpSpan, RuntimeTrace

        local = OpSpan(
            step=1,
            operation=UnionOp(target_register="X1", inputs=("A", "B")),
            queued_s=0.0,
            started_s=0.0,
            finished_s=0.0,
            attempts=(),
            status=OpStatus.OK,
            output_size=2,
        )
        trace = RuntimeTrace(spans=(local,), makespan_s=0.0)
        assert trace.timeline() == "(no remote operations)"
        assert trace.remote_spans == ()
        assert trace.total_cost == 0.0
        assert "0 remote ops" in trace.summary()

    def test_empty_trace(self):
        from repro.runtime.trace import RuntimeTrace

        trace = RuntimeTrace(spans=(), makespan_s=0.0)
        assert trace.timeline() == "(no remote operations)"
        assert trace.utilization_report().splitlines()[0].startswith(
            "source"
        )
        assert trace.per_source_utilization() == {}


class TestWrittenInOnePlace:
    """A run's events are its record; the trace is their one fold."""

    def test_engine_builds_no_spans(self):
        import ast
        import pathlib

        import repro.runtime.engine as engine_module

        tree = ast.parse(pathlib.Path(engine_module.__file__).read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & {"AttemptSpan", "OpSpan"}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("load_balance", [False, True])
    def test_live_trace_is_the_fold_of_the_recorded_events(
        self, seed, load_balance
    ):
        # vote + hedge + breaker + deadline at 40 % faults: confirmations,
        # hedges, reroutes and deadline cuts all leave attempts to fold.
        from repro.obs import Recorder
        from repro.runtime.health import BreakerConfig
        from repro.runtime.trace import RuntimeTrace
        from repro.sources.generators import replicate_federation

        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 3)
        plan = build_filter_plan(query, federation.source_names)
        recorder = Recorder(metrics=None)
        engine = RuntimeEngine(
            federation,
            resilience=Resilience(
                hedge_delay_s=0.05,
                breaker=BreakerConfig.aggressive(),
                load_balance=load_balance,
                verify="vote",
            ),
            faults=FaultInjector(FaultProfile.flaky(0.4), seed=seed),
            recorder=recorder,
        )
        result = engine.run(plan, budget_s=2.0)
        assert result.trace == RuntimeTrace.from_events(
            recorder.events, operations=plan.operations
        )


def _shape(trace):
    """What a trace says, minus the operation objects (a trace read back
    from a log carries stand-ins for them)."""
    return trace.makespan_s, [
        (
            span.step,
            span.operation.kind.value,
            span.source,
            span.condition,
            span.queued_s,
            span.started_s,
            span.finished_s,
            span.attempts,
            span.status,
            span.output_size,
        )
        for span in trace.spans
    ]


class TestRuns:
    def test_one_trace_per_round_in_order(self):
        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 2)
        recorder = Recorder(metrics=None)
        plain = Mediator(federation, backend="runtime", recorder=recorder)
        replanning = Mediator(
            federation,
            backend="runtime",
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(policy=RetryPolicy.no_retry()),
            replan=2,
            recorder=recorder,
        )
        first = plain.answer(query)
        replanned = replanning.answer(query)
        last = plain.answer(query)
        assert len(replanned.execution.traces) == 2
        expected = [
            first.execution.trace,
            *replanned.execution.traces,
            last.execution.trace,
        ]
        runs = RuntimeTrace.runs(recorder.events)
        assert [_shape(t) for t in runs] == [_shape(t) for t in expected]

    def test_a_log_without_run_start_is_one_run(self):
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        recorder = Recorder(metrics=None)
        result = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.6), seed=5),
            recorder=recorder,
        ).run(plan)
        events = [e for e in recorder.events if e.type != "run_start"]
        runs = RuntimeTrace.runs(events)
        assert [_shape(t) for t in runs] == [_shape(result.trace)]

    def test_a_run_without_op_records_gives_no_trace(self):
        log = EventLog()
        log.emit(
            0.0, "run_start", backend="runtime", round=0, plan_ops=1,
            remote_ops=1, result="X",
        )
        assert RuntimeTrace.runs(log) == []
        assert RuntimeTrace.runs([]) == []
