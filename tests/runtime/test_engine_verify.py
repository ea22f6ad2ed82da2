"""Engine-level tests for verified execution and quarantine.

The scenario throughout: a 2- or 3-way replicated DMV federation whose
mirrors (``R*~1``) serve stale snapshots and corrupt values, executed
on FILTER plans with load balancing so both group members actually
carry traffic (chain plans route one op per group and the rotation
would keep every mirror idle).
"""

from __future__ import annotations

import pytest

from repro.mediator.session import Mediator
from repro.obs import Recorder
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import (
    AttemptFate,
    DataFaultProfile,
    FaultInjector,
    FaultProfile,
)
from repro.runtime.health import BreakerConfig, BreakerState
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    dmv_fig1,
    replicate_federation,
)

#: Stale most of the time; always corrupting otherwise.  (Fates are
#: exclusive, stale first — a stale_rate of 1.0 would starve corrupt.)
LIAR = DataFaultProfile(stale_rate=0.6, corrupt_rate=1.0)


def make_engine(
    verify: str = "off",
    seed: int = 11,
    replicas: int = 2,
    data: DataFaultProfile = LIAR,
    quarantine: bool = False,
):
    federation, query = dmv_fig1()
    federation = replicate_federation(federation, replicas)
    profiles = {
        f"R{i}~1": FaultProfile(data=data) for i in (1, 2, 3)
    }
    engine = RuntimeEngine(
        federation,
        faults=FaultInjector(profiles, seed=seed),
        resilience=Resilience(
            quarantine=quarantine,
            load_balance=True,
            verify=verify,
        ),
    )
    plan = build_filter_plan(query, federation.representative_names)
    return engine, plan


def sweep(engine, plan, runs: int = 6):
    """Repeated runs on one engine; per-run (spurious, missing) counts."""
    outcomes = []
    for __ in range(runs):
        result = engine.run(plan)
        items = frozenset(result.items)
        outcomes.append(
            (len(items - DMV_FIG1_ANSWER), len(DMV_FIG1_ANSWER - items))
        )
    return outcomes


class TestVerifyOff:
    def test_off_admits_spurious_tuples(self):
        engine, plan = make_engine(verify="off")
        outcomes = sweep(engine, plan)
        assert sum(spurious for spurious, __ in outcomes) > 0

    def test_off_leaves_no_quality_evidence(self):
        engine, plan = make_engine(verify="off")
        sweep(engine, plan, runs=2)
        assert engine.health.quality_of("R1~1").answers == 0
        assert engine.health.quarantined_names() == ()

    def test_off_runs_replay_deterministically(self):
        def trace():
            engine, plan = make_engine(verify="off")
            return [engine.run(plan).trace for __ in range(3)]

        assert trace() == trace()


class TestSanitize:
    def test_sanitize_never_admits_corrupt_bytes(self):
        engine, plan = make_engine(verify="sanitize")
        for __ in range(6):
            result = engine.run(plan)
            assert not any(
                isinstance(item, bytes) for item in result.items
            )

    def test_sanitize_cannot_catch_stale_values(self):
        # Stale tuples are plausibly typed; sanitize admits them.
        engine, plan = make_engine(verify="sanitize")
        outcomes = sweep(engine, plan)
        assert sum(spurious for spurious, __ in outcomes) > 0

    def test_corrupt_taint_trips_quarantine_without_votes(self):
        engine, plan = make_engine(
            verify="sanitize", quarantine=True
        )
        sweep(engine, plan, runs=6)
        assert engine.health.quarantined_names() != ()
        for name in engine.health.quarantined_names():
            assert name.endswith("~1")


class TestVote:
    def test_vote_admits_zero_spurious(self):
        engine, plan = make_engine(verify="vote")
        outcomes = sweep(engine, plan)
        assert all(spurious == 0 for spurious, __ in outcomes)

    def test_confirm_wait_completes_without_deadlock(self):
        # Both group members run as concurrent primaries under load
        # balance; confirmation fetches must park and drain, never
        # deadlock two members waiting on each other's slots.
        engine, plan = make_engine(verify="vote")
        for __ in range(6):
            result = engine.run(plan)
            assert result.complete or result.items <= DMV_FIG1_ANSWER

    def test_two_way_disagreement_blames_nobody(self):
        # With only two voters there is no majority: charging conflicts
        # would hit the honest member as hard as the liar.  Stale-only
        # mirrors leave no self-evident taint, so nothing may trip.
        stale_only = DataFaultProfile(stale_rate=1.0)
        engine, plan = make_engine(
            verify="vote", data=stale_only,
            quarantine=True,
        )
        sweep(engine, plan, runs=6)
        assert engine.health.quarantined_names() == ()
        # Honest primaries keep a perfect score.
        for name in ("R1", "R2", "R3"):
            assert engine.health.quality_score(name) == 1.0

    def test_quarantine_recovers_completeness(self):
        engine, plan = make_engine(
            verify="vote", quarantine=True
        )
        outcomes = sweep(engine, plan, runs=8)
        assert engine.health.quarantined_names() != ()
        # Once the liars are out of rotation, the honest members serve
        # the full answer again.
        assert outcomes[-1] == (0, 0)

    def test_quarantined_member_gets_no_traffic(self):
        engine, plan = make_engine(
            verify="vote", quarantine=True
        )
        sweep(engine, plan, runs=8)
        quarantined = set(engine.health.quarantined_names())
        assert quarantined
        result = engine.run(plan)
        served = {
            attempt.source
            for span in result.trace.remote_spans
            for attempt in span.attempts
        }
        assert not served & quarantined

    def test_state_of_reports_quarantined(self):
        engine, plan = make_engine(
            verify="vote", quarantine=True
        )
        sweep(engine, plan, runs=8)
        name = engine.health.quarantined_names()[0]
        assert engine.health.state_of(name) is BreakerState.QUARANTINED
        # cooldown_s=None means the quarantine is sticky forever.
        assert not engine.health.allow(name, 1e9)


class TestThreeWayMajority:
    def test_majority_serves_full_answer_from_first_run(self):
        engine, plan = make_engine(verify="vote", replicas=3)
        outcomes = sweep(engine, plan)
        assert all(outcome == (0, 0) for outcome in outcomes)

    def test_outvoted_liar_is_blamed_and_quarantined(self):
        engine, plan = make_engine(
            verify="vote", replicas=3, quarantine=True
        )
        sweep(engine, plan, runs=6)
        quarantined = set(engine.health.quarantined_names())
        assert quarantined
        assert all(name.endswith("~1") for name in quarantined)
        # Honest members stay clean.
        for name in ("R1", "R2", "R3"):
            assert engine.health.quality_score(name) == 1.0


class TestVoteWithHedging:
    def test_no_retry_fires_once_an_answer_is_in_hand(self):
        # Fig. 1 on 3-way replicas, 40 % transient faults, a hedge after
        # 50 ms.  When a hedge wins while the failed primary sits in its
        # backoff, the task holds an answer but is not done — it still
        # awaits its cross-replica confirmation.  The backoff timer must
        # not put another primary attempt on the wire.
        recorder = Recorder()
        mediator = Mediator(
            replicate_federation(dmv_fig1()[0], 3),
            backend="runtime",
            resilience=Resilience(hedge_delay_s=0.05, verify="vote"),
            faults=FaultInjector(default=FaultProfile.flaky(0.4), seed=2),
            recorder=recorder,
        )
        plan = mediator.plan(dmv_fig1()[1]).plan
        result = mediator.runtime.run(plan)
        assert frozenset(result.items) == DMV_FIG1_ANSWER
        attempts = recorder.events.of_type("attempt")
        assert len(attempts) == 10
        assert sum(event["cost"] for event in attempts) == 160.0
        assert result.trace.total_retries == 0
        for span in result.trace.remote_spans:
            answered_s = min(
                a.end_s for a in span.attempts if a.fate is AttemptFate.OK
            )
            late = [a for a in span.attempts if a.start_s >= answered_s]
            assert late and all(a.hedge or a.confirm for a in late)

    def test_no_blocked_dispatch_relaunches_once_an_answer_is_in_hand(self):
        # The same rule for a retry parked on an open breaker: when the
        # breaker lets it go, a task whose hedge already answered must
        # not start another primary attempt.  It used to, and the stray
        # attempt finished the task a second time, so a local operation
        # downstream ran before its other input existed (a TypeError).
        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 3)
        recorder = Recorder()
        engine = RuntimeEngine(
            federation,
            resilience=Resilience(
                hedge_delay_s=0.05,
                breaker=BreakerConfig.aggressive(),
                verify="vote",
            ),
            faults=FaultInjector(FaultProfile.flaky(0.4), seed=1),
            recorder=recorder,
        )
        plan = build_filter_plan(query, federation.source_names)
        result = engine.run(plan, budget_s=2.0)
        assert frozenset(result.items) == DMV_FIG1_ANSWER
        steps = [event["step"] for event in recorder.events.of_type("op")]
        assert sorted(steps) == list(range(1, len(plan.operations) + 1))
        for span in result.trace.remote_spans:
            answered_s = min(
                (a.end_s for a in span.attempts if a.fate is AttemptFate.OK),
                default=span.finished_s,
            )
            late = [a for a in span.attempts if a.start_s >= answered_s]
            assert all(a.hedge or a.confirm for a in late)


def overlapping_attempts(trace):
    """Pairs of live (not cancelled) attempts that shared a connection:
    same source, intervals overlapping in virtual time."""
    live = sorted(
        (attempt.source, attempt.start_s, attempt.end_s, span.step)
        for span in trace.remote_spans
        for attempt in span.attempts
        if attempt.fate is not AttemptFate.CANCELLED
    )
    return [
        (earlier, later)
        for earlier, later in zip(live, live[1:])
        if earlier[0] == later[0] and later[1] < earlier[2]
    ]


def mirrored_engine(data, seed, **resilience):
    """2-way replicated Fig. 1, FILTER over all six sources, 40 % wire
    faults everywhere and ``data`` tampering on the ``~1`` mirrors."""
    federation, query = dmv_fig1()
    federation = replicate_federation(federation, 2)
    mirrors = {
        name: FaultProfile(transient_rate=0.4, data=data)
        for name in federation.source_names
        if name.endswith("~1")
    }
    engine = RuntimeEngine(
        federation,
        Resilience(verify="vote", quarantine=True, **resilience),
        faults=FaultInjector(mirrors, seed=seed, default=FaultProfile.flaky(0.4)),
    )
    return engine, build_filter_plan(query, federation.source_names)


class TestOneAttemptPerConnection:
    """A source's one wrapper connection serves one attempt at a time.

    A task that parks for a confirmation gives its slot back; the slot
    is no longer its own, so a later confirmation there must wait for
    it like any other busy member (and mark it busy when it runs).
    """

    def test_a_released_slot_is_not_reused_while_another_task_holds_it(self):
        engine, plan = mirrored_engine(
            DataFaultProfile.corrupting(1.0), seed=1, breaker=BreakerConfig.aggressive()
        )
        result = engine.run(plan)
        # Steps 2 and 1 used to confirm on R1~1 at once, over
        # [5.701, 5.901] s and [5.701, 5.903] s.
        assert overlapping_attempts(result.trace) == []
        late_on_mirror = sorted(
            (attempt.start_s, attempt.end_s, span.step, attempt.confirm)
            for span in result.trace.remote_spans
            for attempt in span.attempts
            if attempt.source == "R1~1" and attempt.start_s >= 5.0
        )
        # Step 9's own attempt, then each confirmation in its turn.
        assert [entry[2:] for entry in late_on_mirror] == [(9, False), (1, True), (8, True)]
        assert all(
            later[0] >= earlier[1]
            for earlier, later in zip(late_on_mirror, late_on_mirror[1:])
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "data",
        [DataFaultProfile(stale_rate=0.7), DataFaultProfile.corrupting(1.0)],
        ids=["stale", "corrupting"],
    )
    @pytest.mark.parametrize("breaker", [None, BreakerConfig.aggressive()], ids=["no-breaker", "breaker"])
    @pytest.mark.parametrize("hedge", [None, 0.05], ids=["no-hedge", "hedge"])
    @pytest.mark.parametrize("load_balance", [False, True], ids=["planned", "balanced"])
    def test_no_two_live_attempts_share_a_connection(self, load_balance, hedge, breaker, data, seed):
        engine, plan = mirrored_engine(
            data, seed, load_balance=load_balance, hedge_delay_s=hedge, breaker=breaker
        )
        for __ in range(3):
            assert overlapping_attempts(engine.run(plan).trace) == []
