"""Heterogeneous sources: capabilities, emulation, and cost calibration.

Demonstrates the two kinds of heterogeneity the paper cares about:

* capability tiers (Sec. 2.3) — native semijoins vs passed-binding
  emulation vs none — and how SJA adapts per source while SJ cannot;
* unknown cost parameters — learned via Zhu & Larson-style query
  sampling (ref. [25]) and fed to a CalibratedCostModel.

Run:
    python examples/heterogeneous_federation.py
"""

from __future__ import annotations

import repro
from repro.costs.estimates import SizeEstimator
from repro.sources.generators import synthetic_conditions


def main() -> None:
    config = repro.SyntheticConfig(
        n_sources=6,
        n_entities=600,
        coverage=(0.25, 0.55),
        native_fraction=0.5,     # 3 native sources
        emulated_fraction=0.34,  # 2 emulated, 1 fully unsupported
        overhead_range=(3.0, 60.0),
        send_range=(0.2, 1.0),
        receive_range=(2.0, 6.0),
        seed=99,
    )
    federation = repro.build_synthetic(config)
    print(federation.describe())
    print()

    query = repro.synthetic_query(config, m=3, seed=17)
    print(query.describe())
    print()

    # --- SJ vs SJA on heterogeneous capabilities -----------------------
    statistics = repro.ExactStatistics(federation)
    estimator = SizeEstimator(statistics, federation.source_names)
    oracle_model = repro.ChargeCostModel.for_federation(federation, estimator)

    sj = repro.SJOptimizer().optimize(
        query, federation.source_names, oracle_model, estimator
    )
    sja = repro.SJAOptimizer().optimize(
        query, federation.source_names, oracle_model, estimator
    )
    print(f"SJ  (uniform per stage):   estimated {sj.estimated_cost:.1f}")
    print(f"SJA (per-source choices):  estimated {sja.estimated_cost:.1f}")
    print(f"SJA plan:")
    print(sja.plan.pretty())
    print()

    # --- learned cost parameters ---------------------------------------
    probes = synthetic_conditions(config, 4, seed=23)
    calibrated_model = repro.CalibratedCostModel.calibrate(
        federation, estimator, probes, seed=0
    )
    print("calibrated per-source parameters (fitted by query sampling):")
    print(f"{'source':<8} {'true ovh':>9} {'fit ovh':>9} "
          f"{'true recv':>10} {'fit recv':>9} {'residual':>9}")
    for source in federation:
        fitted = calibrated_model.fitted[source.name]
        print(
            f"{source.name:<8} {source.link.request_overhead:>9.2f} "
            f"{fitted.request_overhead:>9.2f} "
            f"{source.link.per_item_receive:>10.2f} "
            f"{fitted.per_item_receive:>9.2f} {fitted.residual:>9.4f}"
        )
    print()

    mediator = repro.Mediator(
        federation,
        statistics=statistics,
        cost_model=calibrated_model,
        verify=True,
    )
    answer = mediator.answer(query)
    print("answer with learned costs:", answer.summary())


if __name__ == "__main__":
    main()
