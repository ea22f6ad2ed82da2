"""R10 — untrusted answers: verification and source quarantine.

A federation where every replica group carries one *lying* mirror — a
stale snapshot that also corrupts values — served under the three
``verify`` modes.  Plans come from the FILTER optimizer so both group
members actually serve traffic (chain plans route one op per group and
the rotation would hide the mirrors).  Three sections:

1. a stale-replica + corruption sweep — the same query answered
   repeatedly per mode on one long-lived mediator, counting spurious
   and missing tuples against the clean answer and watching the
   quarantine roster grow.  ``verify="off"`` admits spurious/stale
   tuples; ``"sanitize"`` drops the corrupt values (self-evident taint
   still trips quarantine) but plausibly-typed stale values pass;
   ``"vote"`` restores zero spurious immediately and recovers full
   completeness once the mirrors are quarantined out of rotation;
2. three-way replication — with two honest members per group a
   majority outvotes the liar from the first answer: zero spurious
   *and* zero missing throughout, mirrors quarantined by blame;
3. deterministic replay — the vote run executed twice from the same
   seed must produce byte-identical event streams, ``quality`` and
   ``quarantine`` records included.
"""

from __future__ import annotations

from repro.bench.report import Table, check_replay, join_sections, write_bench_rows
from repro.bench.serving import DMV_SQL
from repro.mediator import Mediator
from repro.obs import EventLog, Recorder
from repro.optimize import Planning
from repro.runtime import (
    DataFaultProfile,
    FaultInjector,
    FaultProfile,
    Resilience,
)
from repro.sources.generators import dmv_fig1, replicate_federation

#: The lying mirror: usually a divergent stale snapshot, and when not
#: stale, always corrupting values.  (Fates are exclusive and checked
#: stale first, so stale_rate must stay < 1 for corruption — the
#: self-attributable taint that feeds quarantine — to ever fire.)
MIRROR_DATA = DataFaultProfile(stale_rate=0.6, corrupt_rate=1.0)


def _mirror_profiles() -> dict[str, FaultProfile]:
    """Payload faults on every mirror ``R*~1``; primaries stay honest."""
    return {f"R{i}~1": FaultProfile(data=MIRROR_DATA) for i in range(1, 4)}


def _mediator(
    federation,
    verify: str,
    seed: int,
    recorder: Recorder | None = None,
) -> Mediator:
    return Mediator(
        federation,
        backend="runtime",
        planning=Planning(optimizer="filter"),
        faults=FaultInjector(_mirror_profiles(), seed=seed),
        resilience=Resilience(
            quarantine=verify != "off",
            load_balance=True,
            verify=verify,
        ),
        replan=2,
        recorder=recorder,
    )


def _sweep(
    federation, truth: frozenset, verify: str, seed: int, queries: int
) -> list[dict]:
    """Answer the same query ``queries`` times on one mediator."""
    mediator = _mediator(federation, verify, seed)
    rows = []
    for number in range(1, queries + 1):
        answer = mediator.answer(DMV_SQL)
        items = frozenset(answer.items)
        rows.append(
            {
                "bench": "R10",
                "scenario": f"{verify} q{number}",
                "mode": verify,
                "query": number,
                "spurious": len(items - truth),
                "missing": len(truth - items),
                "quarantined": len(
                    mediator.runtime.health.quarantined_names()
                ),
            }
        )
    return rows


def run_untrusted(
    seed: int = 11, queries: int = 6, bench_json: bool = True
) -> str:
    """R10: what answer verification buys against lying sources.

    When ``bench_json`` is true the per-query rows are also written to
    ``BENCH_R10.json`` in the current directory for CI trend tracking.
    """
    base, __ = dmv_fig1()
    federation = replicate_federation(base, 2)
    truth = frozenset(Mediator(base).answer(DMV_SQL).items)

    table = Table(
        "stale-replica + corruption sweep (2-way replicated DMV, "
        f"mirrors stale_rate={MIRROR_DATA.stale_rate:g} / "
        f"corrupt_rate={MIRROR_DATA.corrupt_rate:g}, seed {seed})",
        ["mode", "query", "spurious", "missing", "quarantined"],
    )
    rows: list[dict] = []
    totals: dict[str, dict[str, int]] = {}
    for verify in ("off", "sanitize", "vote"):
        mode_rows = _sweep(federation, truth, verify, seed, queries)
        rows.extend(mode_rows)
        totals[verify] = {
            "spurious": sum(r["spurious"] for r in mode_rows),
            "missing": sum(r["missing"] for r in mode_rows),
            "final_missing": mode_rows[-1]["missing"],
            "quarantined": mode_rows[-1]["quarantined"],
        }
        for row in mode_rows:
            table.add_row(
                [
                    row["mode"],
                    row["query"],
                    row["spurious"],
                    row["missing"],
                    row["quarantined"],
                ]
            )
    if totals["off"]["spurious"] == 0:
        raise AssertionError(
            "verify='off' admitted no spurious tuples — the mirrors "
            "cannot have served any traffic; the sweep must run plans "
            "that exercise both group members"
        )
    if totals["vote"]["spurious"] != 0:
        raise AssertionError(
            f"verify='vote' admitted {totals['vote']['spurious']} "
            "spurious tuples — majority voting must reject every "
            "stale or corrupt claim"
        )
    if totals["vote"]["quarantined"] == 0:
        raise AssertionError(
            "the vote sweep quarantined nothing — persistent taint "
            "must collapse the mirrors' quality scores"
        )
    if totals["vote"]["final_missing"] != 0:
        raise AssertionError(
            f"the final voted answer still missed "
            f"{totals['vote']['final_missing']} tuples — quarantine "
            "must route traffic back to honest members and recover "
            "clean-run completeness"
        )
    if totals["sanitize"]["quarantined"] == 0:
        raise AssertionError(
            "sanitize mode quarantined nothing — corrupt values are "
            "self-evident taint and must be charged without a vote"
        )
    table.add_note(
        "acceptance: off admits > 0 spurious tuples; vote admits "
        "exactly 0 and ends with 0 missing (quarantine lifts "
        "completeness back to the clean run); sanitize trips "
        "quarantine on corrupt taint alone"
    )
    table.add_note(
        "sanitize drops type-violating values but plausibly-typed "
        "stale tuples pass — only cross-replica voting catches those"
    )

    three_way = replicate_federation(base, 3)
    majority_table = Table(
        "three-way replication: a majority outvotes the liar",
        ["query", "spurious", "missing", "quarantined"],
    )
    majority_rows = _sweep(three_way, truth, "vote", seed, queries)
    for row in majority_rows:
        majority_table.add_row(
            [row["query"], row["spurious"], row["missing"],
             row["quarantined"]]
        )
    if any(r["spurious"] or r["missing"] for r in majority_rows):
        raise AssertionError(
            "a 2-of-3 majority failed to mask the lying mirror — "
            "voting must deliver the full clean answer from the "
            "first query"
        )
    if majority_rows[-1]["quarantined"] == 0:
        raise AssertionError(
            "three-way voting never quarantined the outvoted mirror — "
            "rejected claims must be blamed when a majority exists"
        )
    majority_table.add_note(
        "acceptance: zero spurious and zero missing on every query; "
        "the outvoted mirrors are blamed and quarantined"
    )

    def replay(replay_seed: int) -> tuple[str, tuple[int, int]]:
        recorder = Recorder(events=EventLog())
        mediator = _mediator(federation, "vote", replay_seed, recorder)
        for __ in range(queries):
            mediator.answer(DMV_SQL)
        stream = recorder.events.to_jsonl()
        marked = len(recorder.events.of_type("quality", "quarantine"))
        return stream, (len(stream.splitlines()), marked)

    replay_table = check_replay(
        "deterministic replay (vote mode, quality + quarantine events)",
        ["events", "quality+quarantine"],
        "acceptance: same seed -> byte-identical stream with quality "
        "and quarantine records included; new seed diverges",
        replay,
        seed,
    )

    if bench_json:
        write_bench_rows("R10", rows)

    return join_sections(
        "=== R10: untrusted answers — verification and quarantine ===",
        table.render(),
        majority_table.render(),
        replay_table.render(),
    )
