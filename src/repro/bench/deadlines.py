"""R9 — deadline-aware serving: shedding, budgets, partial answers.

Overloads the serving tier well past source capacity and measures what
end-to-end deadlines buy.  Three sections:

1. an overload sweep — the same arrival list served three ways:
   *blind* (no deadlines; misses counted post-hoc against the target),
   *enforce* (deadlines attached, ``shed_policy="none"`` — every
   admitted query is cut gracefully at its budget), and *shed*
   (``shed_policy="deadline"`` — infeasible arrivals are refused at the
   door).  Because fusion plans only union and intersect item sets, a
   deadline cut can lose answers but never invent them; the sweep
   asserts zero spurious tuples literally.
2. deterministic replay — the shed run executed twice from the same
   seed must produce byte-identical event streams, ``shed`` and
   ``deadline`` records included;
3. anytime planning — plan cost and ``budget_exhausted`` across
   node-count budgets, against the unbudgeted DP optimum.
"""

from __future__ import annotations

from repro.bench.report import Table, check_replay, join_sections, write_bench_rows
from repro.bench.serving import DMV_SQL, TENANTS, dmv_arrivals
from repro.mediator import Mediator
from repro.optimize import Planning, SJAPlusOptimizer
from repro.serve import MediatorService, run_workload
from repro.sources.generators import dmv_fig1

#: Finishing exactly on the deadline counts as met (matches the
#: serving tier's own slack).
_SLACK_S = 1e-9


def _service(
    federation,
    *,
    pool_slots: int,
    queue_limit: int,
    seed: int,
    shed_policy: str,
) -> MediatorService:
    return MediatorService(
        federation,
        mode="deterministic",
        tenants=TENANTS,
        pool_slots=pool_slots,
        queue_limit=queue_limit,
        seed=seed,
        shed_policy=shed_policy,
    )


def run_deadlines(
    count: int = 40,
    rate_qps: float = 50.0,
    seed: int = 2100,
    pool_slots: int = 1,
    queue_limit: int = 64,
    deadline_s: float = 1.0,
    bench_json: bool = True,
) -> str:
    """R9: what end-to-end deadlines buy under >= 2x overload.

    One seeded Poisson workload arrives far faster than a
    ``pool_slots``-constrained DMV federation can serve it.  Without
    deadlines the tail blows through the target; with deadlines
    enforced every admitted query still answers on time (partially if
    need be); with shedding on, infeasible arrivals are refused at
    admission so the queries that do run mostly finish whole.

    When ``bench_json`` is true the per-scenario rows are also written
    to ``BENCH_R9.json`` in the current directory for CI trend
    tracking.
    """
    federation, __ = dmv_fig1()
    blind_arrivals = dmv_arrivals(count, rate_qps, seed)
    deadline_arrivals = dmv_arrivals(count, rate_qps, seed, deadline_s)

    #: The full answer, computed once off the serving path — the
    #: reference for the zero-spurious-tuples check.
    truth = frozenset(Mediator(federation).answer(DMV_SQL).items)

    table = Table(
        "overload sweep (DMV federation, "
        f"{count} arrivals at {rate_qps:g} q/s offered, "
        f"{pool_slots} slot/source, {deadline_s:g}s deadline)",
        [
            "scenario",
            "done",
            "shed",
            "missed",
            "partial",
            "full on time",
            "p50 s",
            "p95 s",
        ],
    )
    rows: list[dict] = []
    reports = {}
    scenarios = [
        ("blind", "none", blind_arrivals),
        ("enforce, no shed", "none", deadline_arrivals),
        ("shed", "deadline", deadline_arrivals),
    ]
    for name, policy, load in scenarios:
        service = _service(
            federation,
            pool_slots=pool_slots,
            queue_limit=queue_limit,
            seed=seed,
            shed_policy=policy,
        )
        report = run_workload(service, load)
        reports[name] = report
        if name == "blind":
            # No deadlines were attached; count misses post hoc
            # against the same target the other scenarios enforce.
            missed = sum(
                1
                for latency in report.latencies_s
                if latency > deadline_s + _SLACK_S
            )
        else:
            missed = report.deadline_misses
        on_time = [
            ticket
            for ticket in service.tickets
            if ticket.status == "done"
            and not ticket.partial
            and ticket.latency_s <= deadline_s + _SLACK_S
        ]
        spurious = [
            ticket
            for ticket in service.tickets
            if ticket.status == "done" and not set(ticket.items) <= truth
        ]
        if spurious:
            raise AssertionError(
                f"{name}: {len(spurious)} answers contained tuples "
                "outside the full answer — degradation must lose "
                "answers, never invent them"
            )
        if report.failed:
            raise AssertionError(
                f"{name}: {report.failed} queries failed — an expired "
                "admitted query must return a partial answer, not an "
                "exception"
            )
        table.add_row(
            [
                name,
                report.completed,
                sum(report.rejected.values()),
                missed,
                report.partial_answers,
                len(on_time),
                report.p50_s,
                report.p95_s,
            ]
        )
        rows.append(
            {
                "bench": "R9",
                "scenario": name,
                "shed_policy": policy,
                "submitted": report.submitted,
                "completed": report.completed,
                "shed_deadline": report.shed_deadline,
                "shed_total": sum(report.rejected.values()),
                "deadline_misses": missed,
                "partial_answers": report.partial_answers,
                "full_on_time": len(on_time),
                "p50_s": report.p50_s,
                "p95_s": report.p95_s,
            }
        )

    blind = reports["blind"]
    blind_missed = rows[0]["deadline_misses"]
    if blind.p95_s <= deadline_s or blind_missed == 0:
        raise AssertionError(
            f"blind run p95 {blind.p95_s:.3f}s with {blind_missed} "
            f"late answers — the overload must blow through the "
            f"{deadline_s:g}s target without deadlines"
        )
    enforce = reports["enforce, no shed"]
    if enforce.partial_answers == 0:
        raise AssertionError(
            "enforcing deadlines under overload without shedding "
            "produced no partial answers — the budget cannot have bound"
        )
    if enforce.deadline_misses == 0:
        raise AssertionError(
            "the no-shedding run missed no deadlines under >= 2x "
            "overload — the queue must back up past the budget, which "
            "is exactly what shedding exists to prevent"
        )
    if enforce.p95_s >= blind.p95_s:
        raise AssertionError(
            f"enforced p95 {enforce.p95_s:.3f}s did not improve on "
            f"the blind {blind.p95_s:.3f}s — execution cuts must cap "
            "the tail"
        )
    shed_report = reports["shed"]
    if shed_report.shed_deadline == 0:
        raise AssertionError(
            "shed run refused nothing — the queue-wait predictor must "
            "shed infeasible arrivals under >= 2x overload"
        )
    if shed_report.deadline_misses:
        raise AssertionError(
            f"shed run missed {shed_report.deadline_misses} deadlines "
            "— admission must refuse what it cannot serve on time"
        )
    if shed_report.p95_s > deadline_s + _SLACK_S:
        raise AssertionError(
            f"shed run p95 {shed_report.p95_s:.3f}s exceeds the "
            f"{deadline_s:g}s deadline"
        )
    if shed_report.partial_answers >= enforce.partial_answers:
        raise AssertionError(
            "shedding did not reduce partial answers — admitted "
            "queries should mostly finish whole"
        )
    table.add_note(
        "blind: no deadlines attached; missed counted post hoc as "
        f"latency > {deadline_s:g}s"
    )
    table.add_note(
        "acceptance: blind p95 > deadline; enforcing cuts the tail "
        "but queue backlog still misses; shedding refuses > 0, "
        "misses zero, keeps p95 <= deadline; zero spurious tuples "
        "everywhere"
    )

    def replay(replay_seed: int) -> tuple[str, tuple[int, int]]:
        service = _service(
            federation,
            pool_slots=pool_slots,
            queue_limit=queue_limit,
            seed=replay_seed,
            shed_policy="deadline",
        )
        run_workload(
            service, dmv_arrivals(count, rate_qps, replay_seed, deadline_s)
        )
        events = service.recorder.events
        stream = events.to_jsonl()
        marked = len(events.of_type("shed", "deadline"))
        return stream, (len(stream.splitlines()), marked)

    replay_table = check_replay(
        "deterministic replay (shed scenario, virtual clock)",
        ["events", "shed+deadline"],
        "acceptance: same seed -> byte-identical stream with shed "
        "and deadline records included; new seed diverges",
        replay,
        seed,
    )

    budget_table = Table(
        "anytime planning under a node-count budget (DMV query)",
        ["budget", "strategy", "cost", "subsets", "exhausted"],
    )
    reference = Mediator(federation, planning=Planning(search="dp")).plan(DMV_SQL)
    budget_table.add_row(
        [
            "-",
            reference.search_strategy,
            reference.estimated_cost,
            reference.subsets_considered,
            reference.budget_exhausted,
        ]
    )
    for max_subsets in (None, 16, 1):
        # Only an instance asks for an unbudgeted anytime search.
        planning = (
            Planning(optimizer=SJAPlusOptimizer(search="anytime"))
            if max_subsets is None
            else Planning(budget=max_subsets)
        )
        result = Mediator(federation, planning=planning).plan(DMV_SQL)
        budget_table.add_row(
            [
                "unbounded" if max_subsets is None else max_subsets,
                result.search_strategy,
                result.estimated_cost,
                result.subsets_considered,
                result.budget_exhausted,
            ]
        )
        if result.estimated_cost < reference.estimated_cost:
            raise AssertionError(
                "a budgeted plan cost less than the DP optimum — "
                "the coster cannot be consistent"
            )
        if max_subsets is None and (
            result.budget_exhausted
            or result.estimated_cost != reference.estimated_cost
        ):
            raise AssertionError(
                "unbudgeted anytime search must reach the DP optimum "
                "without flagging exhaustion"
            )
        if max_subsets == 1 and not result.budget_exhausted:
            raise AssertionError(
                "a 1-node budget did not flag budget_exhausted"
            )
    budget_table.add_note(
        "acceptance: unbudgeted anytime == DP optimum; budgeted plans "
        "are valid, never cheaper than optimal, and flag exhaustion"
    )
    budget_table.add_note(
        "the serving tier arms this budget per query from queue "
        "pressure and remaining deadline (see repro.serve.service)"
    )

    if bench_json:
        write_bench_rows("R9", rows)

    return join_sections(
        "=== R9: deadline-aware serving — answering on time ===",
        table.render(),
        replay_table.render(),
        budget_table.render(),
    )
