"""R11 — causal tracing: critical-path attribution and SLO burn.

Every query through the serving tier carries a span tree; the
critical-path analyzer tiles each query's end-to-end latency into
phases exactly (the slices sum to the measured latency to the
nanosecond).  This experiment shows what that buys: three sections.

1. tail attribution — one seeded churn workload served three ways
   (calm wide pool, churn wide pool, churn starved pool).  The
   *dominant p99 phase* names the bottleneck correctly in each:
   ``exec.wire`` when only wire time remains, ``exec.wait`` when
   churn retries contend for source slots, ``queue`` when a starved
   pool backs the run queue up.  An SLO monitor over the same runs
   turns the shift into error-budget burn.
2. exactness — for every completed query, the per-phase attribution
   sums to the measured latency within 1e-9 s; asserted literally.
3. deterministic replay — the starved run exported twice from the
   same seed must produce byte-identical Chrome trace JSON; a new
   seed must diverge.
"""

from __future__ import annotations

import json

from repro.bench.report import Table, check_replay, join_sections, write_bench_rows
from repro.bench.serving import TENANTS, churn_wave, dmv_arrivals
from repro.obs.slo import SLOMonitor, parse_slo_spec
from repro.obs.spans import validate_chrome_trace
from repro.runtime import BreakerConfig, Faults, Resilience
from repro.serve import ChurnWave, MediatorService, run_workload
from repro.sources.generators import dmv_fig1

#: Attribution must tile the measured latency exactly; this is the
#: only float slack the check allows.
_SUM_SLACK_S = 1e-9

#: The SLOs every scenario is graded against (virtual seconds).
_SLO_SPEC = "latency:60:0.75,completeness:0.9"


def _service(
    federation,
    *,
    pool_slots: int,
    queue_limit: int,
    seed: int,
    churn: ChurnWave | None,
) -> MediatorService:
    return MediatorService(
        federation,
        mode="deterministic",
        tenants=TENANTS,
        pool_slots=pool_slots,
        queue_limit=queue_limit,
        seed=seed,
        faults=Faults(churn=churn),
        resilience=Resilience(breaker=BreakerConfig.default()),
    )


def _assert_exact_attribution(service: MediatorService) -> int:
    """Every finished ticket's phase slices must sum to its latency."""
    checked = 0
    for ticket in service.tickets:
        if ticket.completed_s is None or not ticket.phases:
            continue
        total = sum(ticket.phases.values())
        if abs(total - ticket.latency_s) > _SUM_SLACK_S:
            raise AssertionError(
                f"query #{ticket.seq}: phase attribution sums to "
                f"{total:.9f}s but the measured latency is "
                f"{ticket.latency_s:.9f}s — the critical path must "
                "tile the latency exactly"
            )
        checked += 1
    return checked


def run_tracing(
    count: int = 32,
    rate_qps: float = 10.0,
    seed: int = 3100,
    queue_limit: int = 64,
    churn_rate: float = 0.6,
    bench_json: bool = True,
) -> str:
    """R11: causal tracing attributes the tail to the right phase.

    One seeded Poisson workload (two tenants, 1:3 weights) over the
    DMV federation, served three ways.  With a wide pool and no
    churn, wire time is all that remains on the critical path.  Under
    a mid-workload churn wave the dominant p99 phase moves to
    ``exec.wait`` (retries contending for slots); starving the pool
    to one slot per source moves it again to ``queue``.  The span
    trees behind the attribution export as Chrome trace JSON and
    replay byte-identically from the same seed.

    When ``bench_json`` is true the per-scenario rows are also
    written to ``BENCH_R11.json`` in the current directory for CI
    trend tracking.
    """
    federation, __ = dmv_fig1()
    arrivals = dmv_arrivals(count, rate_qps, seed)
    churn = churn_wave(arrivals, churn_rate)

    table = Table(
        "tail attribution (DMV federation, "
        f"{count} arrivals at {rate_qps:g} q/s offered)",
        [
            "scenario",
            "slots",
            "done",
            "p99 s",
            "dominant p99 phase",
            "phase p99 s",
            "spans",
        ],
    )
    slo_table = Table(
        f"SLO grades ({_SLO_SPEC})",
        ["scenario", "objective", "compliance", "burn", "met"],
    )
    rows: list[dict] = []
    scenarios = [
        ("calm", 6, None),
        ("churn", 6, churn),
        ("churn, starved pool", 1, churn),
    ]
    dominant: dict[str, str] = {}
    burn: dict[str, float] = {}
    checked_total = 0
    for name, slots, wave in scenarios:
        service = _service(
            federation,
            pool_slots=slots,
            queue_limit=queue_limit,
            seed=seed,
            churn=wave,
        )
        report = run_workload(service, arrivals)
        if report.completed != report.submitted:
            raise AssertionError(
                f"{name}: only {report.completed}/{report.submitted} "
                "queries completed — the attribution sweep expects a "
                "lossless run"
            )
        checked = _assert_exact_attribution(service)
        if checked != report.completed:
            raise AssertionError(
                f"{name}: {checked} of {report.completed} completed "
                "queries carried phase attribution"
            )
        checked_total += checked
        phase = report.dominant_phase(99)
        dominant[name] = phase
        percentiles = report.phase_percentiles()
        phase_p99 = percentiles.get(phase, (0.0, 0.0, 0.0))[2]
        statuses = SLOMonitor(parse_slo_spec(_SLO_SPEC)).evaluate(
            service.metrics
        )
        latency_status = statuses[0]
        burn[name] = latency_status.burn_rate
        for status in statuses:
            slo_table.add_row(
                [
                    name,
                    status.spec.name,
                    status.compliance,
                    status.burn_rate,
                    "yes" if status.met else "NO",
                ]
            )
        table.add_row(
            [
                name,
                slots,
                report.completed,
                report.p99_s,
                phase,
                phase_p99,
                len(service.spans),
            ]
        )
        rows.append(
            {
                "bench": "R11",
                "scenario": name,
                "pool_slots": slots,
                "completed": report.completed,
                "p99_s": report.p99_s,
                "dominant_phase": phase,
                "dominant_phase_p99_s": phase_p99,
                "spans": len(service.spans),
                "latency_compliance": latency_status.compliance,
                "latency_burn_rate": latency_status.burn_rate,
            }
        )

    if dominant["calm"] != "exec.wire":
        raise AssertionError(
            f"calm run's dominant p99 phase is {dominant['calm']!r} — "
            "with no churn and a wide pool only wire time should "
            "remain on the critical path"
        )
    if not dominant["churn"].startswith("exec."):
        raise AssertionError(
            f"churn run's dominant p99 phase is {dominant['churn']!r} "
            "— retries contending for slots should dominate inside "
            "execution"
        )
    if dominant["churn, starved pool"] not in ("queue", "pool"):
        raise AssertionError(
            "starved run's dominant p99 phase is "
            f"{dominant['churn, starved pool']!r} — one slot per "
            "source should back the tail up before dispatch"
        )
    if len(set(dominant.values())) < 3:
        raise AssertionError(
            f"dominant phases {dominant} did not shift across the "
            "three scenarios — attribution must name a different "
            "bottleneck for each"
        )
    if not burn["churn, starved pool"] > burn["churn"] > burn["calm"]:
        raise AssertionError(
            f"latency burn rates {burn} are not ordered starved > "
            "churn > calm — tighter capacity must burn budget faster"
        )
    table.add_note(
        "acceptance: dominant p99 phase is exec.wire calm, exec.* "
        "under churn, queue/pool when starved — three distinct "
        "bottlenecks from one workload"
    )
    table.add_note(
        f"exactness: all {checked_total} completed queries' phase "
        "slices sum to their measured latency within 1e-9 s"
    )
    slo_table.add_note(
        "acceptance: error-budget burn orders starved > churn > calm"
    )

    def replay(replay_seed: int) -> tuple[str, tuple[int]]:
        service = _service(
            federation,
            pool_slots=1,
            queue_limit=queue_limit,
            seed=replay_seed,
            churn=churn,
        )
        run_workload(service, dmv_arrivals(count, rate_qps, replay_seed))
        exported = service.spans.to_chrome_json()
        return exported, (validate_chrome_trace(json.loads(exported)),)

    replay_table = check_replay(
        "deterministic trace replay (starved scenario, Chrome JSON)",
        ["spans"],
        "acceptance: same seed -> byte-identical export (schema-"
        "validated); new seed diverges",
        replay,
        seed,
    )

    if bench_json:
        write_bench_rows("R11", rows)

    return join_sections(
        "=== R11: causal tracing — naming the bottleneck ===",
        table.render(),
        slo_table.render(),
        replay_table.render(),
    )
