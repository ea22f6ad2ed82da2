"""Unit tests for log-mined statistics (repro.sources.observed)."""

from __future__ import annotations

import pytest

from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import Executor
from repro.mediator.session import Mediator
from repro.obs import EventLog, Recorder
from repro.plans.builder import build_filter_plan
from repro.relational.conditions import Comparison
from repro.runtime.engine import Resilience
from repro.runtime.faults import FaultInjector, FaultProfile, Faults
from repro.runtime.policy import OnExhaust, RetryPolicy
from repro.runtime.trace import RuntimeTrace
from repro.serve import MediatorService
from repro.sources.generators import dmv_fig1, replicate_federation
from repro.sources.observed import DEFAULT_DISTINCT, ObservedStatistics
from repro.sources.statistics import ExactStatistics


CONDITION = Comparison("V", "=", "dui")
DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


def attempt(**overrides):
    """A valid 'attempt' record with easy-to-override fields."""
    record = {
        "round": 0,
        "step": 1,
        "op": "sq",
        "planned": "R1",
        "source": "R1",
        "condition": CONDITION.to_sql(),
        "attempt": 1,
        "start": 0.0,
        "end": 0.1,
        "fate": "ok",
        "hedge": False,
        "cost": 10.0,
        "items_sent": 0,
        "items_received": 0,
        "rows_loaded": 0,
        "messages": 1,
    }
    record.update(overrides)
    return record


def record_run(log: EventLog, ts: float, fields: dict) -> None:
    """Record a valid one-step run around an 'attempt' record: the run
    starts, the attempt lands, and its step's 'op' record closes it."""
    log.emit(
        ts, "run_start", backend="runtime", round=fields["round"],
        plan_ops=1, remote_ops=1, result="X",
    )
    log.emit(ts, "attempt", **fields)
    log.emit(
        ts, "op",
        round=fields["round"], step=fields["step"], op=fields["op"],
        target="X", source=fields["planned"], remote=True,
        condition=fields["condition"], queued=fields["start"],
        started=fields["start"], finished=fields["end"],
        status="ok" if fields["fate"] == "ok" else "degraded",
        output=fields["items_received"],
    )


def mined(*attempts) -> ObservedStatistics:
    """Mine a log of one single-attempt run per record."""
    log = EventLog()
    for index, fields in enumerate(attempts):
        record_run(log, float(index), fields)
    return ObservedStatistics.from_events(log)


class TestMining:
    def test_sq_count_makes_output_size_exact(self):
        # n = D * sel is observed directly, so sel * D reproduces it no
        # matter what D the provider assumes (the D-free identity).
        stats = mined(attempt(op="sq", items_received=5))
        assert stats.observations == 1
        assert stats.selectivity("R1", CONDITION) * stats.distinct_items(
            "R1"
        ) == pytest.approx(5)

    def test_lq_pins_cardinality_and_distinct(self):
        stats = mined(attempt(op="lq", rows_loaded=120, condition=""))
        assert stats.cardinality("R1") == 120
        assert stats.distinct_items("R1") == 120

    def test_failed_attempts_are_skipped(self):
        stats = mined(attempt(fate="timeout", items_received=99))
        assert stats.observations == 0
        assert stats.selectivity("R1", CONDITION) == pytest.approx(
            stats.prior_selectivity
        )

    def test_hedge_evidence_keyed_by_planned_source(self):
        stats = mined(
            attempt(planned="R1", source="R1b", hedge=True, items_received=4)
        )
        assert "R1" in stats.sources_seen()
        assert "R1b" not in stats.sources_seen()

    def test_unknown_sources_fall_back_to_the_prior(self):
        stats = ObservedStatistics()
        assert stats.selectivity("ghost", CONDITION) == pytest.approx(
            stats.prior_selectivity
        )
        assert stats.distinct_items("ghost") == DEFAULT_DISTINCT
        assert stats.cardinality("ghost") == DEFAULT_DISTINCT


class TestSemijoinEvidence:
    def test_shrinkage_toward_the_prior(self):
        # 10 bindings shipped, 2 survived; weight-2 prior at 0.1:
        # match fraction = (2*0.1 + 2) / (2 + 10) = 0.1833...
        stats = mined(
            attempt(op="sjq", items_sent=10, items_received=2)
        )
        match = (2 * stats.prior_selectivity + 2) / (2 + 10)
        expected = match * stats.universe_size() / stats.distinct_items("R1")
        assert stats.selectivity("R1", CONDITION) == pytest.approx(expected)

    def test_zero_sent_semijoins_carry_no_evidence(self):
        stats = mined(attempt(op="sjq", items_sent=0, items_received=0))
        assert stats.observations == 0

    def test_paired_sq_and_sjq_estimate_the_universe(self):
        # sq saw n = 5 items; sjq matched 2 of 10 shipped bindings, so
        # n / U = 2/10 and U ~ 5 * 10 / 2 = 25.
        stats = mined(
            attempt(op="sq", items_received=5),
            attempt(op="sjq", items_sent=10, items_received=2),
        )
        assert stats.universe_size() == 25

    def test_universe_override_wins(self):
        log = EventLog()
        record_run(log, 0.0, attempt(op="sq", items_received=5))
        stats = ObservedStatistics.from_events(log, universe=500)
        assert stats.universe_size() == 500

    def test_disjoint_fallback_sums_distincts(self):
        stats = mined(
            attempt(op="lq", planned="R1", source="R1", rows_loaded=40,
                    condition=""),
            attempt(op="lq", planned="R2", source="R2", rows_loaded=60,
                    condition=""),
        )
        assert stats.universe_size() == 100


class TestAgainstTheOracle:
    def warmup(self):
        federation, query = dmv_fig1()
        recorder = Recorder(metrics=None)
        plan = build_filter_plan(query, federation.source_names)
        federation.reset_traffic()
        Executor(federation, recorder=recorder).execute(plan)
        return federation, query, recorder

    def test_filter_warmup_reproduces_sq_output_sizes(self):
        # After one FILTER pass every (source, condition) selection count
        # is known exactly, so the mined estimator's sq_output_size
        # matches the oracle's for every pair the query touches.
        federation, query, recorder = self.warmup()
        stats = ObservedStatistics.from_events(recorder.events)
        names = federation.source_names
        observed = SizeEstimator(stats, names)
        oracle = SizeEstimator(ExactStatistics(federation), names)
        for condition in query.conditions:
            for name in names:
                assert observed.sq_output_size(
                    condition, name
                ) == pytest.approx(oracle.sq_output_size(condition, name))

    def test_report_renders(self):
        __, __, recorder = self.warmup()
        stats = ObservedStatistics.from_events(recorder.events)
        text = stats.report()
        assert text.startswith("observed statistics:")
        assert "sq counts" in text


class TestMiningTraces:
    def test_a_jsonl_round_trip_mines_what_the_live_traces_do(self):
        federation, query = dmv_fig1()
        recorder = Recorder(metrics=None)
        mediator = Mediator(
            replicate_federation(federation, 2),
            backend="runtime",
            faults=FaultInjector(FaultProfile.flaky(0.4), seed=3),
            resilience=Resilience(policy=RetryPolicy.no_retry()),
            replan=2,
            recorder=recorder,
        )
        live = ObservedStatistics()
        rounds = []
        for __ in range(4):
            traces = mediator.answer(query).execution.profile.traces
            rounds.append(len(traces))
            live.observe(traces)
        assert max(rounds) > 1  # a re-planned answer is in the log
        log = EventLog.from_jsonl(recorder.events.to_jsonl())
        mined_log = ObservedStatistics.from_events(log)
        assert live.observations > 0
        assert mined_log.observations == live.observations
        assert mined_log.report() == live.report()

    def test_a_service_run_that_raised_mines_nothing(self):
        # R3 stalls past the timeout and the policy fails the query, by
        # then R1 and R2 have answered: none of it is mined.
        federation, __ = dmv_fig1()
        statistics = ObservedStatistics()
        service = MediatorService(
            federation,
            statistics=statistics,
            faults=Faults(wire={"R3": FaultProfile(stall_rate=1.0, stall_s=5.0)}),
            resilience=Resilience(
                policy=RetryPolicy(
                    max_retries=0, timeout_s=1.0, on_exhaust=OnExhaust.FAIL
                )
            ),
        )
        ticket = service.submit(DMV_SQL)
        service.run_until_idle()
        assert ticket.error is not None
        fates = [e["fate"] for e in service.recorder.events.of_type("attempt")]
        assert "ok" in fates  # evidence reached the log ...
        assert statistics.observations == 0  # ... but the run raised
        assert statistics.fingerprint().endswith(":v0")

    def test_a_served_query_mines_its_runs_trace(self, monkeypatch):
        folds = []
        original = RuntimeTrace.from_events

        def counting(*args, **kwargs):
            folds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(RuntimeTrace, "from_events", counting)
        federation, __ = dmv_fig1()
        statistics = ObservedStatistics()
        service = MediatorService(federation, statistics=statistics)
        service.submit(DMV_SQL)
        service.run_until_idle()
        assert len(folds) == 1  # the engine's own fold, nothing after it
        assert statistics.observations == 3  # R1, R2 and R3's loads
