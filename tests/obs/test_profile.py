"""A query's profile is a view of its runtime traces, one per round.

Every step row is the round's own :class:`~repro.runtime.trace.OpSpan`,
so a re-planned query's rows never mix rounds, and the makespan is the
query's (its rounds back to back), never the recorder's clock.
"""

from __future__ import annotations

import pytest

from repro.mediator.session import Mediator
from repro.obs import Recorder
from repro.optimize.planning import Planning
from repro.runtime.engine import Resilience
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.runtime.trace import RuntimeTrace
from repro.sources.generators import dmv_fig1, replicate_federation


def replanning_mediator():
    """R1 always fails and nothing retries: every answer re-plans once,
    onto R1's mirror."""
    federation, query = dmv_fig1()
    mediator = Mediator(
        replicate_federation(federation, 2),
        backend="runtime",
        faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
        resilience=Resilience(policy=RetryPolicy.no_retry()),
        replan=2,
        recorder=Recorder(),
    )
    return mediator, query


def step_rows(profile) -> list[list[str]]:
    """The rendered step table, one list of cells per row."""
    lines = profile.render().splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.startswith("step  op")
    )
    rows = []
    for line in lines[start + 1 :]:
        if not line:
            break
        rows.append(line.split())
    return rows


class TestReplannedRows:
    def test_each_row_reports_its_own_rounds_attempts(self):
        mediator, query = replanning_mediator()
        answer = mediator.answer(query)
        traces = answer.execution.traces
        assert len(traces) == 2
        spans = sorted(
            (span for trace in traces for span in trace.spans),
            key=lambda span: (span.step, span.operation.kind.value),
        )
        rows = step_rows(answer.execution.profile)
        assert len(rows) == len(spans)
        for cells, span in zip(rows, spans):
            step, op, source, attempts, cost, wire, span_s = cells[:7]
            assert (int(step), op, source) == (
                span.step,
                span.operation.kind.value,
                span.source or "-",
            )
            assert int(attempts) == len(span.attempts)
            assert cost == f"{span.cost:.1f}"
            assert wire == f"{span.busy_s:.3f}"
            assert float(wire) <= float(span_s)
        first = next(
            cells for cells in rows if cells[:3] == ["1", "lq", "R1"]
        )
        assert first[3:5] == ["1", "16.0"]  # round 0's failed attempt

    def test_rows_are_the_rounds_spans(self):
        mediator, query = replanning_mediator()
        answer = mediator.answer(query)
        profile = answer.execution.profile
        traces = answer.execution.traces
        assert len(traces) == 2
        assert profile.traces == traces
        assert profile.steps == tuple(
            span for trace in traces for span in trace.spans
        )
        assert profile.total_cost == sum(trace.total_cost for trace in traces)


class TestMakespan:
    def test_each_answer_reports_its_own_makespan(self):
        mediator, query = replanning_mediator()
        for __ in range(3):
            answer = mediator.answer(query)
            profile = answer.execution.profile
            makespan_s = sum(t.makespan_s for t in answer.execution.traces)
            assert profile.makespan_s == makespan_s
            assert f"makespan {makespan_s:.3f}s" in (
                profile.render()
            )

    def test_a_plain_runs_makespan_is_its_traces(self):
        federation, query = dmv_fig1()
        mediator = Mediator(
            federation, backend="runtime", recorder=Recorder()
        )
        first = mediator.answer(query)
        second = mediator.answer(query)
        assert (
            first.execution.profile.makespan_s
            == second.execution.profile.makespan_s
            == second.execution.makespan_s
        )


class TestOneFold:
    @pytest.mark.parametrize("backend", ["sequential", "runtime"])
    def test_a_recorded_answer_folds_its_records_once(
        self, backend, monkeypatch
    ):
        folds = []
        original = RuntimeTrace.from_events

        def counting(*args, **kwargs):
            folds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(RuntimeTrace, "from_events", counting)
        federation, query = dmv_fig1()
        mediator = Mediator(
            federation,
            planning=Planning(optimizer="sja"),
            backend=backend,
            recorder=Recorder(),
        )
        answer = mediator.answer(query)
        assert len(folds) == 1
        profile = answer.execution.profile
        assert len(profile.traces) == 1
        if backend == "runtime":
            assert profile.traces[0] is answer.execution.trace
        assert profile.total_cost == pytest.approx(
            answer.execution.total_cost
        )

    def test_sequential_rows_match_the_executors_steps(self):
        federation, query = dmv_fig1()
        answer = Mediator(
            federation,
            planning=Planning(optimizer="sja"),
            recorder=Recorder(),
        ).answer(query)
        profile = answer.execution.profile
        assert [
            (span.step, span.output_size, span.cost)
            for span in profile.steps
        ] == [
            (step.step, step.output_size, step.actual_cost)
            for step in answer.execution.steps
        ]
        assert profile.items == len(answer.items)
