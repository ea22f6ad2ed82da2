"""Fault-tolerant mediation on the concurrent discrete-event runtime.

Runs one fusion query over a synthetic federation four ways:

1. zero faults — the observed makespan equals the static schedule's
   prediction exactly (the engine and the analysis share one model);
2. transient faults, no retries — graceful degradation: failed
   operations contribute empty item sets, the answer loses items but
   never invents them;
3. the same faults with exponential-backoff retries — completeness
   recovers at the price of wire cost and makespan;
4. a stalling source under a per-attempt timeout — the retry policy
   turns a hung request into a bounded delay.

Every run is seeded and replayable: same seed, same story.

Run:
    python examples/fault_tolerant_mediation.py
"""

from __future__ import annotations

import repro
from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import Executor
from repro.mediator.schedule import response_time
from repro.runtime import (
    FaultInjector,
    FaultProfile,
    Resilience,
    RetryPolicy,
    RuntimeEngine,
    completeness_report,
)


def build() -> tuple[repro.Federation, repro.FusionQuery]:
    config = repro.SyntheticConfig(
        n_sources=6,
        n_entities=250,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 20.0),
        receive_range=(1.0, 3.0),
        seed=42,
    )
    return repro.build_synthetic(config), repro.synthetic_query(
        config, m=3, seed=9
    )


def main() -> None:
    federation, query = build()
    estimator = SizeEstimator(
        repro.ExactStatistics(federation), federation.source_names
    )
    cost_model = repro.ChargeCostModel.for_federation(federation, estimator)
    plan = repro.SJAOptimizer().optimize(
        query, federation.source_names, cost_model, estimator
    ).plan
    print(query.describe())
    print()
    print(plan.pretty())
    print()

    # 1. Zero faults: simulated == predicted, to the last float bit.
    execution = Executor(federation).execute(plan)
    predicted = response_time(plan, execution)
    federation.reset_traffic()
    clean = RuntimeEngine(federation).run(plan)
    print("--- zero faults ---")
    print(clean.trace.timeline())
    print(
        f"predicted {predicted.makespan_s:.3f}s, "
        f"simulated {clean.makespan_s:.3f}s, "
        f"delta {abs(predicted.makespan_s - clean.makespan_s):.1e}s"
    )
    print()

    # 2. Transient faults without retries: graceful degradation.
    def run(policy: RetryPolicy, rate: float = 0.35) -> None:
        federation.reset_traffic()
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(rate), seed=13),
            resilience=Resilience(policy=policy),
        )
        result = engine.run(plan)
        report = completeness_report(federation, query, result.items)
        print(result.trace.timeline())
        print(result.trace.summary())
        print(f"completeness: {report.summary()}")
        assert not report.spurious  # degraded answers only *lose* items
        print()

    print("--- 35% transient faults, no retries ---")
    run(RetryPolicy.no_retry())

    # 3. Same faults, three retries with exponential backoff.
    print("--- 35% transient faults, 3 retries ---")
    run(RetryPolicy(max_retries=3, backoff_base_s=0.1))

    # 4. A stalling source under a per-attempt timeout.
    print("--- one source stalls; 2s timeout turns hangs into retries ---")
    stall_victim = federation.source_names[0]
    federation.reset_traffic()
    engine = RuntimeEngine(
        federation,
        faults=FaultInjector(
            {stall_victim: FaultProfile(stall_rate=0.5, stall_s=60.0)},
            seed=3,
        ),
        resilience=Resilience(
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.1, timeout_s=2.0),
        ),
    )
    result = engine.run(plan)
    print(result.trace.timeline())
    print(result.trace.summary())
    print(result.trace.utilization_report())


if __name__ == "__main__":
    main()
