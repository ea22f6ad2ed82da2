"""Total work vs response time — the paper's Sec. 6 future work, live.

Builds a moderately heterogeneous federation, plans the same fusion
query with the total-work optimizer (SJA) and the response-time
optimizer (SJA-RT), executes both, and draws ASCII Gantt charts of the
two schedules so the structural difference is visible: SJA's semijoin
round serializes behind stage 1, while the RT plan trades some extra
transfer for parallel rounds.

Run:
    python examples/response_time_tradeoff.py
"""

from __future__ import annotations

import repro
from repro.costs.estimates import SizeEstimator
from repro.mediator.schedule import response_time
from repro.plans.viz import plan_to_dot, schedule_gantt


def main() -> None:
    config = repro.SyntheticConfig(
        n_sources=6,
        n_entities=500,
        coverage=(0.3, 0.6),
        native_fraction=0.5,       # half the wrappers emulate semijoins:
        emulated_fraction=0.5,     # work-cheap, but one round trip per binding
        overhead_range=(0.5, 2.0),
        send_range=(0.1, 0.3),
        receive_range=(3.0, 6.0),
        seed=66,
    )
    federation = repro.build_synthetic(config)
    # Slow links: every round trip costs 0.8 simulated seconds.
    for source in federation:
        source.link = repro.LinkProfile(
            request_overhead=source.link.request_overhead,
            per_item_send=source.link.per_item_send,
            per_item_receive=source.link.per_item_receive,
            latency_s=0.4,
            items_per_s=2000.0,
        )
    query = repro.synthetic_query(config, m=3, seed=15)
    print(query.describe())
    print()

    statistics = repro.ExactStatistics(federation)
    estimator = SizeEstimator(statistics, federation.source_names)
    cost_model = repro.ChargeCostModel.for_federation(federation, estimator)
    engine = repro.RuntimeEngine(federation)

    for label, optimizer in (
        ("SJA (minimize total work)", repro.SJAOptimizer()),
        (
            "SJA-RT (minimize response time)",
            repro.ResponseTimeSJAOptimizer(federation),
        ),
    ):
        result = optimizer.optimize(
            query, federation.source_names, cost_model, estimator
        )
        federation.reset_traffic()
        execution = engine.run(result.plan)
        schedule = response_time(result.plan, execution)
        print(f"--- {label} ---")
        print(
            f"total work {execution.total_cost:.1f}, "
            f"response time {schedule.makespan_s:.2f}s, "
            f"answer {len(execution.items)} items"
        )
        print(schedule_gantt(schedule, width=56))
        print()

    # Export the RT plan's dataflow for graphviz users.
    rt_plan = repro.ResponseTimeSJAOptimizer(federation).optimize(
        query, federation.source_names, cost_model, estimator
    ).plan
    dot = plan_to_dot(rt_plan, name="sja_rt_plan")
    print("Graphviz DOT of the RT plan (render with: dot -Tpng):")
    print("\n".join(dot.splitlines()[:6]))
    print(f"... ({len(dot.splitlines())} lines total)")


if __name__ == "__main__":
    main()
