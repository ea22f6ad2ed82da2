"""The engine's connection discipline over the whole resilience grid."""

from __future__ import annotations

import itertools

from gates.support import time_limit
from repro.mediator.session import Mediator
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import AttemptFate, DataFaultProfile, FaultInjector, FaultProfile
from repro.runtime.health import BreakerConfig
from repro.sources.generators import dmv_fig1, replicate_federation


def overlaps(trace):
    live = sorted(
        (a.source, a.start_s, a.end_s)
        for s in trace.remote_spans
        for a in s.attempts
        if a.fate is not AttemptFate.CANCELLED
    )
    return sum(x[0] == y[0] and y[1] < x[2] for x, y in zip(live, live[1:]))


def test_an_engine_connection_serves_one_attempt_at_a_time():
    """An engine connection serves one attempt at a time

    Every verify mode x plan x replication x hedge x breaker x load
    balance x wire faults x corrupting mirrors x quarantine x seed,
    three runs per engine (15 552 runs): no two live attempts may
    overlap on one source.
    """
    with time_limit(300):
        fed1, query = dmv_fig1()
        feds = {r: replicate_federation(fed1, r) for r in (1, 2, 3)}
        plans = {
            (r, k): Mediator(f).plan(query).plan
            if k == "sja+"
            else build_filter_plan(query, f.source_names)
            for r, f in feds.items()
            for k in ("sja+", "filter")
        }
        for verify in ("off", "sanitize", "vote"):
            runs = bad = 0
            for kind, rep, hedge, breaker, lb, rate, corrupt, quarantine, seed in (
                itertools.product(
                    ("sja+", "filter"), (1, 2, 3), (None, 0.0, 0.05), (False, True),
                    (False, True), (0.0, 0.4), (False, True), (False, True), range(3),
                )
            ):
                data = DataFaultProfile.corrupting(1.0) if corrupt else None
                mirrors = {
                    n: FaultProfile(transient_rate=rate, data=data)
                    for n in feds[rep].source_names
                    if n.endswith("~1")
                }
                engine = RuntimeEngine(
                    feds[rep],
                    Resilience(
                        hedge_delay_s=hedge, load_balance=lb, verify=verify,
                        breaker=BreakerConfig.aggressive() if breaker else None,
                        quarantine=quarantine,
                    ),
                    faults=FaultInjector(mirrors, seed=seed, default=FaultProfile.flaky(rate)),
                )
                for __ in range(3):
                    runs += 1
                    bad += overlaps(engine.run(plans[rep, kind]).trace) > 0
            assert bad == 0, f"{verify}: {bad} of {runs} runs put two live attempts on one connection"
