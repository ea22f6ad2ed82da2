"""What one run reports, pinned: the mediator's summaries, the run
record's counters, its measured cost and its makespan, for a spread of
runs on the 2x replicated Fig. 1 federation; and that one record,
``ExecutionResult``, is all a run is described by.

Each run is made twice, bare and with a recorder attached; both must
report the same, and the recorded run's profile supplies the makespan.
"""

from __future__ import annotations

import dataclasses
import importlib.util

import pytest

import repro
import repro.bench.extensions
import repro.runtime
from repro.errors import CostModelError
from repro.mediator.executor import ExecutionResult
from repro.mediator.session import Mediator, MediatorAnswer
from repro.obs.recorder import Recorder
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import FaultProfile, Faults
from repro.runtime.health import BreakerConfig, HealthRegistry
from repro.runtime.policy import RetryPolicy
from repro.sources.generators import dmv_fig1, replicate_federation


_REPLAN = Resilience(
    policy=RetryPolicy(max_retries=0), hedge_delay_s=2.0, breaker=BreakerConfig.aggressive()
)

#: name -> (Mediator keywords, seed of a flaky(0.4) wire or None, budget_s)
SCENARIOS = {
    "sequential": ({}, None, None),
    "runtime": ({"backend": "runtime"}, None, None),
    "flaky_hedged": (
        {
            "backend": "runtime",
            "resilience": Resilience(policy=RetryPolicy(max_retries=2), hedge_delay_s=2.0),
        },
        2,
        None,
    ),
    "deadline": ({"backend": "runtime"}, None, 0.1),
    "replan_two_rounds": ({"backend": "runtime", "resilience": _REPLAN, "replan": 2}, 7, None),
    "replan_still_degraded": ({"backend": "runtime", "resilience": _REPLAN, "replan": 2}, 1, None),
}


def run(name: str, recorder: Recorder | None = None):
    """One fresh mediator's answer for the scenario ``name``."""
    federation, query = dmv_fig1()
    options, seed, budget_s = SCENARIOS[name]
    if seed is not None:
        options = {**options, "faults": Faults(wire=FaultProfile.flaky(0.4)).injector(seed)}
    mediator = Mediator(replicate_federation(federation, 2), recorder=recorder, **options)
    return mediator.answer(query, budget_s=budget_s)


def pins(answer) -> dict:
    execution = answer.execution
    return {
        "summary": answer.summary(),
        "execution": execution.summary(),
        "hedges": execution.hedges,
        "recovered": execution.recovered,
        "degraded": execution.degraded,
        "replans": execution.replans,
        "deadline_expired": execution.deadline_expired,
        "incomplete_conditions": execution.incomplete_conditions,
        "breaker_trips": execution.breaker_trips,
        "total_cost": execution.total_cost.hex(),
        "replanning": answer.replanning() if answer.planned else None,
    }


GOLDEN: dict[str, dict] = {'deadline': {'summary': '0 items; optimizer SJA+, estimated cost 48.0, actual cost '
                         '48.0, 3 messages; makespan 0.100s, 0 retries, 3 degraded',
              'execution': '0 items in 12 steps; cost 48.0, 3 messages, 0 retries, '
                           '0.300s on the wire; 3 degraded; PARTIAL (deadline): '
                           'missing load R1, load R2, load R3',
              'hedges': 0,
              'recovered': 0,
              'degraded': 3,
              'replans': 0,
              'deadline_expired': True,
              'incomplete_conditions': ('load R1', 'load R2', 'load R3'),
              'breaker_trips': 0,
              'total_cost': '0x1.8000000000000p+5',
              'replanning': None},
 'flaky_hedged': {'summary': '2 items; optimizer SJA+, estimated cost 48.0, actual '
                             'cost 144.0, 9 messages; makespan 0.403s, 3 retries, 0 '
                             'degraded, 3 recovered',
                  'execution': '2 items in 12 steps; cost 144.0, 9 messages, 3 '
                               'retries, 1.518s on the wire; 3 hedges, 3 recovered',
                  'hedges': 3,
                  'recovered': 3,
                  'degraded': 0,
                  'replans': 0,
                  'deadline_expired': False,
                  'incomplete_conditions': (),
                  'breaker_trips': 0,
                  'total_cost': '0x1.2000000000000p+7',
                  'replanning': None},
 'replan_still_degraded': {'summary': '1 items; optimizer SJA+, estimated cost 48.0, '
                                      'actual cost 256.0, 16 messages; makespan '
                                      '1.206s, 0 retries, 1 degraded, 4 recovered; 2 '
                                      'replan round(s)',
                           'execution': '1 items in 36 steps; cost 256.0, 16 messages, '
                                        '0 retries, 3.218s on the wire; 7 hedges, 4 '
                                        'recovered, 1 degraded, 4 breaker trips, 2 '
                                        'replans',
                           'hedges': 7,
                           'recovered': 4,
                           'degraded': 1,
                           'replans': 2,
                           'deadline_expired': False,
                           'incomplete_conditions': ('load R2~1',),
                           'breaker_trips': 4,
                           'total_cost': '0x1.0000000000000p+8',
                           'replanning': '1 items in 3 round(s), makespan 1.206s, cost '
                                        '256.0, masked: R1, R2, R2~1 (still degraded)'},
 'replan_two_rounds': {'summary': '2 items; optimizer SJA+, estimated cost 48.0, '
                                  'actual cost 160.0, 10 messages; makespan 0.803s, 0 '
                                  'retries, 0 degraded, 2 recovered; 1 replan round(s)',
                       'execution': '2 items in 24 steps; cost 160.0, 10 messages, 0 '
                                    'retries, 2.012s on the wire; 4 hedges, 2 '
                                    'recovered, 1 breaker trips, 1 replans',
                       'hedges': 4,
                       'recovered': 2,
                       'degraded': 0,
                       'replans': 1,
                       'deadline_expired': False,
                       'incomplete_conditions': (),
                       'breaker_trips': 1,
                       'total_cost': '0x1.4000000000000p+7',
                       'replanning': '2 items in 2 round(s), makespan 0.803s, cost '
                                    '160.0, masked: R1, R2'},
 'runtime': {'summary': '2 items; optimizer SJA+, estimated cost 48.0, actual cost '
                        '48.0, 3 messages; makespan 0.203s, 0 retries, 0 degraded',
             'execution': '2 items in 12 steps; cost 48.0, 3 messages, 0 retries, '
                          '0.609s on the wire',
             'hedges': 0,
             'recovered': 0,
             'degraded': 0,
             'replans': 0,
             'deadline_expired': False,
             'incomplete_conditions': (),
             'breaker_trips': 0,
             'total_cost': '0x1.8000000000000p+5',
             'replanning': None},
 'sequential': {'summary': '2 items; optimizer SJA+, estimated cost 48.0, actual cost '
                           '48.0, 3 messages',
                'execution': '2 items in 12 steps; cost 48.0, 3 messages, 0 retries, '
                             '0.609s on the wire',
                'hedges': 0,
                'recovered': 0,
                'degraded': 0,
                'replans': 0,
                'deadline_expired': False,
                'incomplete_conditions': (),
                'breaker_trips': 0,
                'total_cost': '0x1.8000000000000p+5',
                'replanning': None}}

#: The recorded run's ``execution.profile.makespan_s``, as float hex.
MAKESPAN: dict[str, str] = {'deadline': '0x1.999999999999ap-4',
 'flaky_hedged': '0x1.9cac083126e98p-2',
 'replan_still_degraded': '0x1.34bc6a7ef9db2p+0',
 'replan_two_rounds': '0x1.9b22d0e560419p-1',
 'runtime': '0x1.9fbe76c8b4396p-3',
 'sequential': '0x1.37ced916872b0p-1'}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_run_reports_what_it_reported(name):
    bare = run(name)
    recorded = run(name, Recorder())
    assert pins(bare) == GOLDEN[name]
    assert pins(recorded) == GOLDEN[name]
    assert recorded.execution.profile.makespan_s.hex() == MAKESPAN[name]


class TestOneRecordPerRun:
    """A run is described by one record, ``ExecutionResult``, whose
    resilience counters are read off its rounds' traces."""

    COUNTERS = (
        "hedges",
        "recovered",
        "degraded",
        "replans",
        "deadline_expired",
        "incomplete_conditions",
    )

    def test_no_second_run_record_is_exported(self):
        assert not hasattr(repro, "RuntimeResult")
        assert not hasattr(repro.runtime, "RuntimeResult")

    def test_the_engine_answers_with_an_execution_result(self):
        federation, query = dmv_fig1()
        plan = build_filter_plan(query, federation.source_names)
        result = RuntimeEngine(federation).run(plan)
        assert type(result) is ExecutionResult
        assert result.traces == (result.trace,)

    def test_no_counter_is_stored(self):
        stored = {f.name for f in dataclasses.fields(ExecutionResult)}
        assert stored.isdisjoint(self.COUNTERS)

    def test_an_answer_has_one_record(self):
        assert "runtime" not in {f.name for f in dataclasses.fields(MediatorAnswer)}
        assert not hasattr(Mediator, "execute") and not hasattr(Mediator, "execute_concurrent")

    def test_replanning_is_the_mediators_own_round_loop(self):
        # No second executor, run record or replanner: a re-planned
        # run is ``Mediator(backend="runtime", replan=N).answer``.
        for module in (repro, repro.runtime):
            for name in ("ResilientExecutor", "ResilientResult", "ReplanRound"):
                assert not hasattr(module, name), name
        assert importlib.util.find_spec("repro.runtime.replan") is None
        assert not hasattr(repro.bench.extensions, "resilient_executor")
        assert "resilient" not in {f.name for f in dataclasses.fields(MediatorAnswer)}
        federation, __ = dmv_fig1()
        assert not hasattr(Mediator(federation, backend="runtime", replan=2), "replanner")

    @pytest.mark.parametrize("name", ["replan_two_rounds", "replan_still_degraded"])
    def test_a_replanned_answer_records_one_trace_per_round(self, name):
        recorder = Recorder()
        answer = run(name, recorder)
        execution = answer.execution
        assert len(execution.traces) == len(answer.planned) == execution.replans + 1 > 1
        assert len(recorder.events.of_type("replan")) == len(execution.traces)
        assert execution.makespan_s == sum(trace.makespan_s for trace in execution.traces)
        assert answer.replanning().startswith(
            f"{len(answer.items)} items in {len(execution.traces)} round(s), "
            f"makespan {execution.makespan_s:.3f}s"
        )

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_breaker_trips_are_counted_without_a_health_snapshot(self, name, monkeypatch):
        def snapshot(registry):
            raise AssertionError("Mediator.answer built a full health snapshot")

        monkeypatch.setattr(HealthRegistry, "snapshot", snapshot)
        assert pins(run(name)) == GOLDEN[name]

    @pytest.mark.parametrize("replan", [True, False, 2.0, "2", -1])
    def test_replan_is_a_non_negative_int(self, replan):
        federation, __ = dmv_fig1()
        with pytest.raises(CostModelError):
            Mediator(federation, backend="runtime", replan=replan)

    @pytest.mark.parametrize("name", sorted(set(SCENARIOS) - {"sequential"}))
    def test_the_makespan_is_the_profiles(self, name):
        execution = run(name, Recorder()).execution
        assert execution.makespan_s == execution.profile.makespan_s
        assert execution.traces == execution.profile.traces
