"""Adaptive mediation: when estimates mislead, observe instead.

Builds a workload with strongly correlated conditions (every 'dui'
driver also has an 'sp' record and a 1996 violation), so the
independence assumption underestimates intermediate set sizes by ~2x.
Three responses to that uncertainty:

1. static SJA planning with independence estimates (the paper's
   default stance: "as good a guess as we can make");
2. a sampled CorrelationModel correcting the estimates up front; and
3. ``Mediator.answer_adaptive``, which needs no model at all — it
   observes the actual X_i after each stage, re-plans the rest, and never
   re-sends items already confirmed within a stage.

Every run here is on the mediator's engine (``mediator.runtime``).

Run:
    python examples/adaptive_mediation.py
"""

from __future__ import annotations

import repro
from repro.relational.relation import Relation
from repro.relational.schema import dmv_schema


def correlated_federation() -> tuple[repro.Federation, repro.FusionQuery]:
    """600 drivers; every third has dui AND sp AND a 1996 violation."""
    rows = []
    for i in range(600):
        item = f"D{i:04d}"
        if i % 3 == 0:
            rows.append((item, "dui", 1996))
            rows.append((item, "sp", 1996))
        elif i % 3 == 1:
            rows.append((item, "sp", 1990))
        else:
            rows.append((item, "parking", 1990))
    half = len(rows) // 2
    link = repro.LinkProfile(
        request_overhead=5.0, per_item_send=0.9, per_item_receive=1.0
    )
    sources = [
        repro.RemoteSource(
            repro.TableSource(Relation(name, dmv_schema(), chunk)), link=link
        )
        for name, chunk in (("R1", rows[:half]), ("R2", rows[half:]))
    ]
    query = repro.FusionQuery.from_strings(
        "L", ["V = 'dui'", "V = 'sp'", "D >= 1996"], name="correlated"
    )
    return repro.Federation(sources), query


def main() -> None:
    federation, query = correlated_federation()
    mediator = repro.Mediator(federation)
    statistics, estimator = mediator.statistics, mediator.estimator
    truth = repro.reference_answer(federation, query)
    print(
        f"{len(truth)} drivers truly match all three conditions; the "
        f"independence chain predicts {estimator.prefix_size(query.conditions):.1f}"
    )

    # How much better does a sampled correlation model estimate?
    model = repro.CorrelationModel.from_federation(
        federation, query.conditions, sample_size=300, seed=0
    )
    corrected = repro.CorrelatedSizeEstimator(
        statistics, federation.source_names, model
    )
    dui, sp = query.conditions[0], query.conditions[1]
    print(
        f"sampled lift(dui, sp) = {model.lift(dui, sp):.2f}; corrected "
        f"prediction {corrected.prefix_size(query.conditions):.1f}"
    )
    print()

    # 1. static planning on independence estimates
    plan = repro.SJAOptimizer().optimize(
        query, federation.source_names, mediator.cost_model, estimator
    ).plan
    federation.reset_traffic()
    static_cost = mediator.runtime.run(plan).total_cost

    # 2. static planning on corrected estimates
    corrected_model = repro.ChargeCostModel.for_federation(
        federation, corrected
    )
    corrected_plan = repro.SJAOptimizer().optimize(
        query, federation.source_names, corrected_model, corrected
    ).plan
    federation.reset_traffic()
    corrected_cost = mediator.runtime.run(corrected_plan).total_cost

    # 3. adaptive execution: no estimates needed beyond stage one
    federation.reset_traffic()
    adaptive_result = mediator.answer_adaptive(query)
    assert adaptive_result.items == truth

    print(f"{'strategy':<40} {'actual cost':>12}")
    print(f"{'static SJA (independence estimates)':<40} {static_cost:>12.1f}")
    print(f"{'static SJA (correlation-corrected)':<40} {corrected_cost:>12.1f}")
    print(f"{'adaptive executor (observes sizes)':<40} "
          f"{adaptive_result.total_cost:>12.1f}")
    print()
    print("adaptive stage log:")
    for index, stage in enumerate(adaptive_result.stages, start=1):
        choices = "/".join(sorted(set(stage.choices.values())))
        print(
            f"  stage {index}: {stage.condition.to_sql():<12} via {choices:<7}"
            f" input {stage.input_size:>3} -> output {stage.output_size:>3}"
            f"  (cost {stage.actual_cost:.1f})"
        )
    print()
    print(
        "The adaptive executor wins without any correlation knowledge: it "
        "saw the real X_i, pruned confirmed items within stages, and "
        "picked each next stage accordingly."
    )


if __name__ == "__main__":
    main()
