"""End-to-end tests for the recorder: instrumented runs, determinism,
replay byte-equality, and the profile the mediator attaches."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.mediator.session import Mediator
from repro.obs import EventLog, MetricsRegistry, Recorder
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.health import BreakerConfig
from repro.runtime.trace import RuntimeTrace
from repro.sources.generators import dmv_fig1, replicate_federation


def flaky_mediator(recorder=None, **kwargs):
    federation, query = dmv_fig1()
    mediator = Mediator(
        federation,
        backend="runtime",
        faults=FaultInjector(
            {"R1": FaultProfile(transient_rate=0.4)}, seed=7
        ),
        recorder=recorder,
        **kwargs,
    )
    return mediator, query


class TestInstrumentedRuns:
    def test_every_event_validates_against_the_schema(self):
        recorder = Recorder()
        mediator, query = flaky_mediator(recorder)
        mediator.answer(query)
        assert len(recorder.events) > 0
        # from_jsonl re-validates every record line by line.
        restored = EventLog.from_jsonl(recorder.events.to_jsonl())
        assert len(restored) == len(recorder.events)

    def test_run_lifecycle_events_present(self):
        recorder = Recorder()
        mediator, query = flaky_mediator(recorder)
        answer = mediator.answer(query)
        types = {event.type for event in recorder.events}
        assert {"run_start", "attempt", "op", "run_end"} <= types
        end = recorder.events.of_type("run_end")[-1]
        assert end["items"] == len(answer.items)
        assert end["backend"] == "runtime"

    def test_same_seed_runs_emit_identical_jsonl(self):
        streams = []
        for __ in range(2):
            recorder = Recorder()
            mediator, query = flaky_mediator(recorder)
            mediator.answer(query)
            streams.append(recorder.events.to_jsonl())
        assert streams[0] == streams[1]

    def test_metrics_populated_alongside_events(self):
        recorder = Recorder()
        mediator, query = flaky_mediator(recorder)
        mediator.answer(query)
        snapshot = recorder.metrics.to_json()
        assert 'repro_runs_total{backend="runtime"}' in snapshot
        assert any(
            key.startswith("repro_attempts_total") for key in snapshot
        )

    def test_recorder_with_one_sink_disabled(self):
        # Metrics are the optional sink; events are always on (spans,
        # profiles and timelines are all folded from them).
        events_only = Recorder(metrics=None)
        assert events_only.metrics is None
        assert events_only.events is not None
        mediator, query = flaky_mediator(events_only)
        mediator.answer(query)
        assert len(events_only.events) > 0
        # Caller-owned sinks are adopted, not copied.
        registry, log = MetricsRegistry(), EventLog()
        shared = Recorder(metrics=registry, events=log)
        assert shared.metrics is registry and shared.events is log


    def test_a_bad_field_raises_at_the_call_not_at_export(self):
        recorder = Recorder()
        good = dict(step=1, source="R1", retries=1, at=2.0)
        for event_type, fields in (
            ("retry", {**good, "sorce": good["source"]}),  # misspelt
            ("retry", {k: v for k, v in good.items() if k != "at"}),
            ("retry", {**good, "retries": "1"}),  # wrongly typed
            ("retried", good),  # unknown type
        ):
            with pytest.raises(ObservabilityError):
                recorder.emit(0.5, event_type, **fields)
        # Nothing half-recorded: neither the event nor its metrics.
        assert len(recorder.events) == 0 and len(recorder.metrics) == 0
        recorder.emit(0.5, "retry", **good)
        assert len(recorder.events) == 1 and len(recorder.metrics) == 1


class TestDisabledRecorderIdentity:
    def test_uninstrumented_run_is_byte_identical(self):
        # recorder=None (the default) must not perturb execution at all:
        # same answer, same trace rendering, same summary.
        outputs = []
        for recorder in (None, Recorder()):
            federation, query = dmv_fig1()
            plan = build_filter_plan(query, federation.source_names)
            engine = RuntimeEngine(
                federation,
                faults=FaultInjector(
                    {"R1": FaultProfile(transient_rate=0.4)}, seed=7
                ),
                recorder=recorder,
            )
            result = engine.run(plan)
            outputs.append(
                (
                    result.items,
                    result.trace.timeline(),
                    result.trace.utilization_report(),
                    result.trace.summary(),
                )
            )
        assert outputs[0] == outputs[1]


class TestReplay:
    def run_with_recorder(self):
        recorder = Recorder()
        federation, query = dmv_fig1()
        plan = SJAPlusOptimizer().optimize(
            query,
            federation.source_names,
            Mediator(federation).cost_model,
            Mediator(federation).estimator,
        ).plan
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(
                {"R1": FaultProfile(transient_rate=0.4)}, seed=7
            ),
            recorder=recorder,
        )
        return engine.run(plan), recorder

    def test_timeline_reproduced_from_events(self):
        result, recorder = self.run_with_recorder()
        replayed = RuntimeTrace.from_events(recorder.events)
        assert replayed.timeline() == result.trace.timeline()
        assert (
            replayed.utilization_report()
            == result.trace.utilization_report()
        )
        assert replayed.summary() == result.trace.summary()

    def test_trace_from_events_classmethod_delegates(self):
        # Read back from JSONL, without the plan at hand, the fold gives
        # each span a stand-in operation and is otherwise the live trace.
        result, recorder = self.run_with_recorder()
        replayed = RuntimeTrace.from_events(
            EventLog.from_jsonl(recorder.events.to_jsonl())
        )
        live = result.trace
        assert replayed.makespan_s == live.makespan_s
        for mine, theirs in zip(replayed.spans, live.spans, strict=True):
            assert mine._replace(operation=None) == theirs._replace(
                operation=None
            )
            for name in ("target", "source", "remote"):
                assert getattr(mine.operation, name) == getattr(
                    theirs.operation, name, ""
                )
            assert mine.operation.kind.value == theirs.operation.kind.value

    @pytest.mark.parametrize("fault_rate", [0.0, 0.4])
    @pytest.mark.parametrize("hedge_delay_s", [None, 0.05])
    def test_vote_confirmations_replay_as_confirmations(
        self, hedge_delay_s, fault_rate
    ):
        # The ``attempt`` event carries no ``confirm`` flag; the replay
        # derives it (a non-hedge attempt that starts once the step has
        # an answer), or every confirmation fetch would read as a retry.
        recorder = Recorder()
        mediator = Mediator(
            replicate_federation(dmv_fig1()[0], 3),
            backend="runtime",
            resilience=Resilience(hedge_delay_s=hedge_delay_s, verify="vote"),
            faults=FaultInjector(
                default=FaultProfile.flaky(fault_rate), seed=2
            ),
            recorder=recorder,
        )
        result = mediator.runtime.run(mediator.plan(dmv_fig1()[1]).plan)
        live = result.trace
        assert any(a.confirm for span in live.spans for a in span.attempts)
        replayed = RuntimeTrace.from_events(
            EventLog.from_jsonl(recorder.events.to_jsonl())
        )
        assert replayed.summary() == live.summary()
        assert replayed.timeline() == live.timeline()
        assert [span.retries for span in replayed.spans] == [
            span.retries for span in live.spans
        ]
        assert [
            [a.confirm for a in span.attempts] for span in replayed.spans
        ] == [[a.confirm for a in span.attempts] for span in live.spans]

    def test_replay_needs_op_events(self):
        with pytest.raises(ObservabilityError, match="no 'op' events"):
            RuntimeTrace.from_events(EventLog())


class TestProfiles:
    def test_mediator_attaches_profile(self):
        recorder = Recorder()
        mediator, query = flaky_mediator(recorder)
        answer = mediator.answer(query)
        profile = answer.execution.profile
        assert profile is not None
        assert profile.items == len(answer.items)
        assert profile.predicted_cost is not None
        text = profile.render()
        assert text.startswith("profile:")
        assert "observed/predicted" in text

    def test_sequential_backend_is_instrumented_too(self):
        federation, query = dmv_fig1()
        recorder = Recorder()
        answer = Mediator(federation, recorder=recorder).answer(query)
        start = recorder.events.of_type("run_start")[0]
        assert start["backend"] == "sequential"
        assert answer.execution.profile is not None
        EventLog.from_jsonl(recorder.events.to_jsonl())  # all valid

    def test_no_recorder_no_profile(self):
        federation, query = dmv_fig1()
        answer = Mediator(federation).answer(query)
        assert answer.execution.profile is None


class TestReplanRounds:
    def test_timestamps_monotone_across_rounds(self):
        recorder = Recorder()
        mediator, query = flaky_mediator(
            recorder,
            resilience=Resilience(breaker=BreakerConfig.default()),
            replan=2,
        )
        mediator.answer(query)
        stamps = [event.ts for event in recorder.events]
        assert stamps == sorted(stamps)
        replans = recorder.events.of_type("replan")
        assert replans and replans[0]["round"] == 0
        assert replans[0]["optimizer"]
