"""The ``python -m repro`` command line.

Subcommands:

* ``demo`` — run the Fig. 1 DMV example end to end;
* ``query SPEC SQL`` — load a federation spec (see :mod:`repro.io`),
  run a fusion query on the concurrent discrete-event engine, print
  plan + steps + answer (with
  ``--fault-rate``/``--retries``/``--timeline`` to inject failures and
  watch the retry behaviour, ``--hedge-delay``/``--breaker``/
  ``--replan`` to recover via replicas when the spec declares them,
  ``--optimizer robust``/``--robustness-lambda`` to plan for the faulty
  setting by expected completeness, and ``--load-balance`` to spread healthy
  traffic across replica groups; ``--data-faults`` tampers with
  delivered payloads (truncated/stale/duplicate/corrupt), ``--verify``
  sanitizes or cross-replica-votes every answer, and ``--quarantine``
  takes sources with collapsing data quality out of rotation;
  ``--metrics``/``--profile``/
  ``--emit-events`` print a metrics snapshot, the query profile, and
  the structured event log, ``--observed-stats LOG`` plans from
  statistics mined out of a previously recorded log instead of the
  oracle, and ``--deadline S`` bounds the whole run — at expiry the
  best partial answer found so far is returned on time);
* ``workload SPEC SQL [SQL ...]`` — drive a seeded multi-query
  workload through the serving tier (:mod:`repro.serve`): Poisson
  arrivals over the SQL pool, weighted tenants (``--tenant
  name:weight:quota``), admission control and per-source pools, an
  optional mid-workload ``--churn`` wave, and either the
  deterministic virtual clock or a real thread pool (``--mode``);
  ``--deadline`` attaches an end-to-end deadline to every arrival,
  ``--shed-policy`` controls latency-aware shedding, and
  ``--planning-budget`` caps anytime planning per query; prints qps,
  p50/p95/p99 latency, shedding, deadline outcomes, and cache hits;
* ``explain SPEC SQL`` — plan only, with per-step estimated costs;
* ``check SPEC SQL`` — report whether the SQL matches the fusion
  pattern (the Sec. 5 detector), without executing anything;
* ``export-dmv PATH`` — write the Fig. 1 federation as a spec file, a
  convenient starting point for hand-edited federations.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.errors import CostModelError, FusionError, NotAFusionQueryError
from repro.io import load_federation, save_federation
from repro.mediator.session import Mediator
from repro.optimize.planning import OPTIMIZERS, SEARCHES, Planning
from repro.optimize.search import DEFAULT_BEAM_WIDTH
from repro.query.sqlparse import is_aggregate_query, parse_fusion_query
from repro.runtime.faults import FaultProfile, Faults
from repro.sources.generators import dmv_fig1

#: Where ``--emit-events`` lands when no path is given: under
#: ``results/``, next to the benchmark reports, never the repo root.
DEFAULT_EVENTS_PATH = os.path.join("results", "events.jsonl")

#: Where ``--trace-export`` lands when no path is given.
DEFAULT_TRACE_PATH = os.path.join("results", "trace.json")


def _planning(args) -> Planning:
    """The Planning fields this subcommand has flags for, as one value
    (each planner flag's ``dest`` is its field's name)."""
    given = vars(args).keys() & {f.name for f in dataclasses.fields(Planning)}
    return Planning(**{name: getattr(args, name) for name in given})


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    """The flags ``query`` and ``workload`` share, declared once: the
    fault setup, answer verification, telemetry and the deadline."""
    sub.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-attempt transient-failure probability injected at "
        "every source (default: 0)",
    )
    sub.add_argument(
        "--data-faults",
        metavar="SPEC",
        default=None,
        help="tamper with delivered payloads: a comma list of "
        "[SRC:]KIND=RATE entries with KIND in "
        "{truncated,stale,duplicate,corrupt} (or any "
        "DataFaultProfile field, e.g. stale_fraction); "
        "'stale=0.3' hits every source, 'R1~1:corrupt=1' only "
        "the named one",
    )
    sub.add_argument(
        "--verify",
        choices=("off", "sanitize", "vote"),
        default="off",
        help="answer verification: 'sanitize' drops schema-violating "
        "values and duplicates, 'vote' additionally cross-checks "
        "replica-group answers and keeps the majority (default: off)",
    )
    sub.add_argument(
        "--quarantine",
        action="store_true",
        help="take sources whose data-quality score collapses out of "
        "rotation, for every later query (pairs with --verify)",
    )
    sub.add_argument(
        "--metrics",
        nargs="?",
        const="json",
        choices=("json", "prom"),
        default=None,
        metavar="FORMAT",
        help="print a metrics snapshot after the run, as deterministic "
        "JSON (default) or Prometheus text exposition ('prom')",
    )
    sub.add_argument(
        "--emit-events",
        nargs="?",
        const=DEFAULT_EVENTS_PATH,
        metavar="PATH",
        default=None,
        help="write the structured event log of the run (a workload's "
        "holds admission, dispatch and completion, plus engine events "
        "under the virtual clock) to PATH as JSON lines, one validated "
        f"event per line; without PATH, defaults to {DEFAULT_EVENTS_PATH}",
    )
    sub.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="end-to-end answer budget of S seconds (a workload attaches "
        "it to every arrival): at expiry in-flight work is cancelled "
        "and the best partial answer so far is returned, marked "
        "partial, instead of an error; a workload under --shed-policy "
        "deadline sheds arrivals predicted to miss it at admission",
    )


def _faults(args) -> Faults:
    """The fault setup the flags declare, as one value (``--churn`` is a
    ``workload`` flag)."""
    churn = vars(args).get("churn")
    churn = _parse_churn(churn) if churn else None
    return Faults(
        wire=FaultProfile.flaky(args.fault_rate),
        data=_parse_data_faults(args.data_faults),
        churn=churn,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Fusion queries over (simulated) Internet databases.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="run the Fig. 1 DMV example")

    for name, help_text in (
        ("query", "optimize + execute a fusion query"),
        ("explain", "show the chosen plan without executing"),
        ("check", "test whether SQL matches the fusion pattern"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("spec", help="path to a federation spec (JSON)")
        sub.add_argument("sql", help="the fusion query in SQL")
        if name != "check":
            sub.add_argument(
                "--optimizer",
                choices=OPTIMIZERS,
                default="sja+",
                help="planning algorithm; 'robust' ranks candidate plans "
                "by cost + λ·(1−expected completeness)·penalty instead "
                "of cost alone, using the fault regime and live source "
                "health (default: sja+)",
            )
            sub.add_argument(
                "--search",
                choices=SEARCHES,
                default="auto",
                help="plan-search strategy: exhaustive is the faithful "
                "m! sweep, dp/bnb the exact subset search, beam an "
                "inexact fallback; auto picks by query arity "
                "(default: auto)",
            )
            sub.add_argument(
                "--beam-width",
                type=int,
                default=DEFAULT_BEAM_WIDTH,
                metavar="K",
                help="beam width for --search beam "
                f"(default: {DEFAULT_BEAM_WIDTH})",
            )
        if name == "query":
            sub.add_argument(
                "--pushdown",
                choices=("auto", "force", "off"),
                default="auto",
                help="for aggregation fusion queries (COUNT/SUM/AVG/MIN/"
                "MAX ... GROUP BY over the fused entity set, detected "
                "from the SQL): partial-aggregate pushdown to capable "
                "sources — 'auto' chooses per source by estimated cost, "
                "'force' pushes down everywhere possible, 'off' always "
                "fetches raw tuples (default: auto)",
            )
            sub.add_argument(
                "--adaptive",
                action="store_true",
                help="interleave planning and execution (re-plan each "
                "stage with actual intermediate sizes)",
            )
            sub.add_argument(
                "--fault-seed",
                type=int,
                default=0,
                help="seed for fault injection (default: 0)",
            )
            sub.add_argument(
                "--retries",
                type=int,
                default=3,
                help="per-operation retry budget (default: 3)",
            )
            sub.add_argument(
                "--timeline",
                action="store_true",
                help="print the ASCII execution timeline",
            )
            sub.add_argument(
                "--hedge-delay",
                type=float,
                default=None,
                metavar="S",
                help="speculatively duplicate an attempt on a replica "
                "after S virtual seconds, and immediately on failure "
                "(requires replicas/substitutes)",
            )
            sub.add_argument(
                "--breaker",
                choices=("off", "default", "aggressive"),
                default="off",
                help="circuit-breaker profile: trip dead sources and "
                "reroute to replicas",
            )
            sub.add_argument(
                "--replan",
                type=int,
                default=0,
                metavar="N",
                help="re-plan up to N times around dead sources, merging "
                "answers (default: 0)",
            )
            sub.add_argument(
                "--robustness-lambda",
                dest="robustness",
                type=float,
                default=1.0,
                metavar="L",
                help="the λ exchange rate of --optimizer robust: how much "
                "extra wire cost one unit of expected completeness is worth "
                "(default: 1.0)",
            )
            sub.add_argument(
                "--load-balance",
                action="store_true",
                help="spread healthy traffic round-robin across "
                "replica-group members",
            )
            sub.add_argument(
                "--profile",
                action="store_true",
                help="print the query profile: per-step, per-source and "
                "per-condition rollups with predicted vs observed cost",
            )
            sub.add_argument(
                "--observed-stats",
                metavar="PATH",
                default=None,
                help="plan from statistics mined out of a recorded event "
                "log (a --emit-events file from a warm-up run) instead "
                "of the oracle",
            )
            sub.add_argument(
                "--plan-cache",
                nargs="?",
                const=128,
                type=int,
                default=None,
                metavar="N",
                help="cache optimized plans (LRU, capacity N, default "
                "128) keyed on query + statistics fingerprints; "
                "repeated queries skip the optimizer",
            )
            _add_shared_flags(sub)

    workload = subparsers.add_parser(
        "workload",
        help="drive a multi-query workload through the serving tier",
    )
    workload.add_argument("spec", help="path to a federation spec (JSON)")
    workload.add_argument(
        "sql",
        nargs="+",
        help="fusion-query SQL pool; each arrival draws one uniformly",
    )
    workload.add_argument(
        "--mode",
        choices=("deterministic", "threads"),
        default="deterministic",
        help="virtual clock with byte-identical replay, or a real "
        "thread pool (default: deterministic)",
    )
    workload.add_argument(
        "--count", type=int, default=50,
        help="number of query arrivals (default: 50)",
    )
    workload.add_argument(
        "--rate-qps", type=float, default=4.0, metavar="R",
        help="mean Poisson arrival rate (default: 4.0)",
    )
    workload.add_argument(
        "--seed", type=int, default=0,
        help="workload seed: arrivals, tenant draws, and every "
        "query's fault stream derive from it (default: 0)",
    )
    workload.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool size for --mode threads (default: 4)",
    )
    workload.add_argument(
        "--pool-slots", type=int, default=2, metavar="N",
        help="concurrent connections allowed per source (default: 2)",
    )
    workload.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="admission queue depth before shedding (default: 16)",
    )
    workload.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME[:WEIGHT[:QUOTA]]",
        help="add a tenant (repeatable): scheduling weight and an "
        "optional cap on outstanding queries",
    )
    workload.add_argument(
        "--churn",
        metavar="START:END:SRC,SRC[:RATE]",
        default=None,
        help="a churn wave: the named sources turn flaky at RATE "
        "(default 0.5) for arrivals inside [START, END) seconds",
    )
    workload.add_argument(
        "--breaker", action="store_true",
        help="enable the shared circuit breakers",
    )
    _add_shared_flags(workload)
    workload.add_argument(
        "--shed-policy",
        choices=("none", "deadline"),
        default="deadline",
        help="latency-aware load shedding: 'deadline' refuses "
        "arrivals whose predicted completion already misses their "
        "deadline; 'none' only validates deadlines "
        "(default: deadline)",
    )
    workload.add_argument(
        "--planning-budget",
        dest="budget",
        type=int,
        default=None,
        metavar="N",
        help="anytime planning: cap the optimizer at N subset "
        "expansions per query when idle, shrinking under queue "
        "pressure and near deadlines (default: unbounded)",
    )
    workload.add_argument(
        "--trace-export",
        nargs="?",
        const=DEFAULT_TRACE_PATH,
        metavar="PATH",
        default=None,
        help="write the run's span forest as Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing) to PATH; without "
        f"PATH, defaults to {DEFAULT_TRACE_PATH}",
    )
    workload.add_argument(
        "--slo",
        metavar="SPEC",
        default=None,
        help="evaluate service-level objectives after the run: a "
        "comma-separated list of latency:<threshold_s>:<objective> "
        "and completeness:<objective> terms, e.g. "
        "'latency:2.0:0.95,completeness:0.99'",
    )

    export = subparsers.add_parser(
        "export-dmv", help="write the Fig. 1 federation as a spec file"
    )
    export.add_argument("path", help="output JSON path")
    return parser


def _command_demo() -> int:
    federation, query = dmv_fig1()
    mediator = Mediator(federation, backend="runtime", verify=True)
    answer = mediator.answer(query)
    print(query.to_sql())
    print()
    print(answer.plan.pretty())
    print()
    print(answer.execution.render_steps(answer.plan))
    print()
    print("answer:", ", ".join(sorted(answer.items)))
    return 0


def _make_recorder(args):
    """A Recorder when any telemetry flag asked for one, else None."""
    if args.metrics is None and not args.profile and args.emit_events is None:
        return None
    from repro.obs import Recorder

    return Recorder()


def _load_observed_statistics(path: str | None):
    """Mine an ObservedStatistics provider from a recorded event log."""
    if path is None:
        return None
    from repro.obs import EventLog
    from repro.sources.observed import ObservedStatistics

    statistics = ObservedStatistics.from_events(EventLog.read(path))
    print(
        f"planning from observed statistics: "
        f"{statistics.observations} attempts mined from {path}, "
        f"universe ~{statistics.universe_size()}"
    )
    print()
    return statistics


def _emit_telemetry(args, recorder, profile=None) -> None:
    """Print ``profile``, then the ``--metrics`` snapshot, then write the
    ``--emit-events`` log (creating its directory if needed)."""
    if recorder is None:
        return
    if profile is not None:
        print()
        print(profile.render())
    if args.metrics is not None and recorder.metrics is not None:
        print()
        if args.metrics == "prom":
            print(recorder.metrics.to_prometheus())
        else:
            print(recorder.metrics.to_json_text())
    if args.emit_events is not None:
        recorder.events.write(args.emit_events)
        print()
        print(f"wrote {len(recorder.events)} events to {args.emit_events}")


#: ``query`` flags an ``--adaptive`` run never reads, as ``flag: dest``:
#: it builds no profile, caches no plan, plans every stage by the SJA
#: stage rule, and runs its stages without a deadline, a timeline or
#: re-planning rounds.  A value other than the parser's default is
#: refused.
ADAPTIVE_IGNORED_FLAGS = {
    "--profile": "profile", "--plan-cache": "plan_cache",
    "--optimizer": "optimizer", "--search": "search",
    "--beam-width": "beam_width", "--robustness-lambda": "robustness",
    "--deadline": "deadline", "--timeline": "timeline", "--replan": "replan",
}


#: ``query`` flags an aggregate run never reads, as ``flag: dest``: it
#: prints both phases, not a fusion profile or a timeline (its
#: ``--metrics`` and ``--emit-events`` take effect).
AGGREGATE_IGNORED_FLAGS = {"--profile": "profile", "--timeline": "timeline"}


def _refuse_ignored_flags(args) -> None:
    """Refuse a ``query`` flag the run would silently ignore:
    ``--adaptive`` on an aggregate query, a flag an ``--adaptive`` run
    does not read, and a flag an aggregate run does not read."""
    aggregate = is_aggregate_query(args.sql)
    if args.adaptive and aggregate:
        raise CostModelError("--adaptive would be ignored on an aggregate query")
    if args.adaptive:
        ignored, where = ADAPTIVE_IGNORED_FLAGS, "with --adaptive"
    elif aggregate:
        ignored, where = AGGREGATE_IGNORED_FLAGS, "on an aggregate query"
    else:
        return
    defaults = _build_parser().parse_args(["query", args.spec, args.sql])
    unread = [
        flag
        for flag, dest in ignored.items()
        if getattr(args, dest) != getattr(defaults, dest)
    ]
    if unread:
        raise CostModelError(f"{', '.join(unread)} would be ignored {where}")


def _mediator(args, federation, recorder, statistics) -> Mediator:
    """The one engine-backed mediator the ``query`` flags describe."""
    from repro.runtime import BreakerConfig, Resilience, RetryPolicy

    resilience = Resilience(
        policy=RetryPolicy(max_retries=args.retries),
        hedge_delay_s=args.hedge_delay,
        breaker={
            "off": None,
            "default": BreakerConfig.default(),
            "aggressive": BreakerConfig.aggressive(),
        }[args.breaker],
        quarantine=args.quarantine,
        load_balance=args.load_balance,
        verify=args.verify,
    )
    return Mediator(
        federation,
        backend="runtime",
        faults=_faults(args).injector(args.fault_seed),
        resilience=resilience,
        replan=args.replan,
        statistics=statistics,
        planning=_planning(args),
        recorder=recorder,
        plan_cache=args.plan_cache,
    )


def _command_query(args) -> int:
    from repro.runtime import completeness_report

    _refuse_ignored_flags(args)
    federation = load_federation(args.spec)
    recorder = _make_recorder(args)
    statistics = _load_observed_statistics(args.observed_stats)
    mediator = _mediator(args, federation, recorder, statistics)
    if is_aggregate_query(args.sql):
        return _run_aggregate(mediator, args)
    if args.adaptive:
        return _run_adaptive(mediator, args)
    answer = mediator.answer(args.sql, budget_s=args.deadline)
    trace = answer.execution.trace
    print(answer.plan.pretty())
    print()
    print(answer.execution.render_steps(answer.plan))
    print()
    if mediator.planning.optimizer == "robust":
        opt = answer.optimization
        print(
            f"robust ranking (λ={mediator.planning.robustness:g}): "
            f"E[completeness] {opt.expected_completeness:.3f}, "
            f"utility {opt.utility:.1f}"
        )
        for candidate in opt.candidates:
            print(f"  {candidate.summary()}")
        print()
    if args.timeline:
        print(trace.timeline())
        print()
        print(trace.utilization_report())
        print()
    if answer.execution.replans:
        print(f"replanning: {answer.replanning()}")
    if args.breaker != "off":
        print(mediator.runtime.health.report())
        print()
    print("answer:", ", ".join(sorted(map(str, answer.items))) or "(empty)")
    print(answer.summary())
    if mediator.plan_cache is not None:
        print(mediator.plan_cache.summary())
    if args.verify != "off":
        quarantined = sorted(mediator.runtime.health.quarantined_names())
        if quarantined:
            print("quarantined:", ", ".join(quarantined))
    if answer.execution.deadline_expired:
        missing = (
            ", ".join(answer.execution.incomplete_conditions) or "(unknown)"
        )
        print(
            f"deadline {args.deadline:g}s hit: partial answer on time; "
            f"conditions cut: {missing}"
        )
    if args.fault_rate > 0:
        report = completeness_report(
            federation, answer.query, answer.items,
            trace=trace,
        )
        print(f"completeness: {report.summary()}")
    _emit_telemetry(
        args, recorder, answer.execution.profile if args.profile else None
    )
    return 0


def _run_aggregate(mediator: Mediator, args) -> int:
    """Run an aggregation fusion query, print both phases, then the
    ``--metrics`` snapshot and the ``--emit-events`` log."""
    mode: bool | str = {"auto": True, "force": "force", "off": False}[args.pushdown]
    answer = mediator.answer_aggregate(
        args.sql, budget_s=args.deadline, pushdown=mode
    )
    print(answer.fusion.plan.pretty())
    print()
    print(answer.aggregate_plan.render())
    print()
    print(answer.result.pretty())
    print(answer.summary())
    _emit_telemetry(args, mediator.recorder)
    return 0


def _run_adaptive(mediator: Mediator, args) -> int:
    result = mediator.answer_adaptive(args.sql)
    for index, stage in enumerate(result.stages, start=1):
        choices = ", ".join(
            f"{source}:{kind}" for source, kind in stage.choices.items()
        )
        print(
            f"stage {index}: {stage.condition.to_sql()} "
            f"[{choices}] -> {stage.output_size} items, "
            f"cost {stage.actual_cost:.1f}"
        )
    print("answer:", ", ".join(sorted(map(str, result.items))) or "(empty)")
    print(result.summary())
    _emit_telemetry(args, mediator.recorder)
    return 0


def _command_explain(args) -> int:
    mediator = Mediator(load_federation(args.spec), planning=_planning(args))
    print(mediator.explain(args.sql))
    return 0


def _command_check(spec: str, sql: str) -> int:
    federation = load_federation(spec)
    try:
        query = parse_fusion_query(sql, view_name=federation.name)
        query.validate_against_schema(federation.schema)
    except NotAFusionQueryError as exc:
        print(f"NOT a fusion query: {exc}")
        return 1
    print("fusion query detected:")
    print(query.describe())
    return 0


#: Shorthand keys for --data-faults entries -> DataFaultProfile fields.
_DATA_FAULT_KEYS = {
    "truncated": "truncated_rate",
    "stale": "stale_rate",
    "duplicate": "duplicate_rate",
    "corrupt": "corrupt_rate",
}


def _parse_data_faults(text: str | None):
    """``[SRC:]KIND=RATE,...`` -> DataFaultProfile or {source: profile}
    (None for an absent flag)."""
    from repro.runtime.faults import DataFaultProfile

    if text is None:
        return None

    def bad(entry: str) -> CostModelError:
        return CostModelError(
            f"bad --data-faults entry {entry!r}; expected [SRC:]KIND=RATE "
            f"with KIND in {sorted(_DATA_FAULT_KEYS)} or a "
            "DataFaultProfile field name"
        )

    per_source: dict[str, dict[str, float]] = {}
    baseline: dict[str, float] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        source, __, body = entry.rpartition(":")
        kind, separator, value = body.partition("=")
        if not separator:
            raise bad(entry)
        field_name = _DATA_FAULT_KEYS.get(kind.strip(), kind.strip())
        try:
            rate = float(value)
        except ValueError:
            raise bad(entry) from None
        fields = per_source.setdefault(source, {}) if source else baseline
        fields[field_name] = rate
    if per_source and baseline:
        raise CostModelError(
            "--data-faults mixes global and per-source entries; name a "
            "source on every entry (SRC:KIND=RATE) or on none"
        )

    def build(fields: dict[str, float]) -> DataFaultProfile:
        try:
            return DataFaultProfile(**fields)
        except TypeError:
            raise CostModelError(
                f"unknown --data-faults field among {sorted(fields)}"
            ) from None

    if per_source:
        return {name: build(fields) for name, fields in per_source.items()}
    return build(baseline)


def _parse_tenant(text: str):
    """``NAME[:WEIGHT[:QUOTA]]`` -> TenantSpec."""
    from repro.serve import TenantSpec

    parts = text.split(":")
    if len(parts) > 3 or not parts[0]:
        raise CostModelError(
            f"bad --tenant {text!r}; expected NAME[:WEIGHT[:QUOTA]]"
        )
    try:
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        quota = int(parts[2]) if len(parts) > 2 and parts[2] else None
    except ValueError:
        raise CostModelError(
            f"bad --tenant {text!r}; expected NAME[:WEIGHT[:QUOTA]]"
        ) from None
    return TenantSpec(parts[0], weight=weight, quota=quota)


def _parse_churn(text: str):
    """``START:END:SRC,SRC[:RATE]`` -> ChurnWave."""
    from repro.serve import ChurnWave

    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise CostModelError(
            f"bad --churn {text!r}; expected START:END:SRC,SRC[:RATE]"
        )
    try:
        start_s, end_s = float(parts[0]), float(parts[1])
        rate = float(parts[3]) if len(parts) == 4 else 0.5
    except ValueError:
        raise CostModelError(
            f"bad --churn {text!r}; expected START:END:SRC,SRC[:RATE]"
        ) from None
    sources = tuple(s for s in parts[2].split(",") if s)
    return ChurnWave(start_s, end_s, sources=sources, rate=rate)


def _command_workload(args) -> int:
    from repro.runtime import BreakerConfig, Resilience
    from repro.serve import (
        MediatorService,
        WorkloadSpec,
        generate_arrivals,
        percentile,
        run_workload,
    )

    if args.workers is not None and args.mode != "threads":
        raise CostModelError("--workers would be ignored without --mode threads")
    federation = load_federation(args.spec)
    tenants = [_parse_tenant(text) for text in args.tenant] or None
    service = MediatorService(
        federation,
        mode=args.mode,
        tenants=tenants,
        workers=4 if args.workers is None else args.workers,
        pool_slots=args.pool_slots,
        queue_limit=args.queue_limit,
        seed=args.seed,
        faults=_faults(args),
        resilience=Resilience(
            breaker=BreakerConfig.default() if args.breaker else None,
            quarantine=args.quarantine,
            verify=args.verify,
        ),
        shed_policy=args.shed_policy,
        planning=_planning(args),
    )
    spec = WorkloadSpec(
        queries=tuple(args.sql),
        tenants=tuple(service.tenants.values()),
        count=args.count,
        rate_qps=args.rate_qps,
        seed=args.seed,
        deadline_s=args.deadline,
    )
    try:
        report = run_workload(service, generate_arrivals(spec))
    finally:
        if args.mode == "threads":
            service.close()
    print(
        f"workload: {args.count} arrivals at {args.rate_qps:g} q/s "
        f"(seed {args.seed}, mode {args.mode})"
    )
    print(report.summary())
    for name in sorted(report.admitted_by_tenant):
        latencies = report.latency_by_tenant.get(name, [])
        print(
            f"  tenant {name}: {report.admitted_by_tenant[name]} "
            f"admitted, p95 {percentile(latencies, 95):.3f}s"
        )
    for reason in sorted(report.rejected):
        print(f"  shed ({reason}): {report.rejected[reason]}")
    if args.deadline is not None:
        print(
            f"  deadlines ({args.deadline:g}s): "
            f"{report.shed_deadline} shed, "
            f"{report.deadline_misses} missed, "
            f"{report.partial_answers} partial answers"
        )
    if service.plan_cache is not None:
        print(service.plan_cache.summary())
    if service.spans is not None:
        print(report.phase_breakdown())
    if args.slo is not None:
        from repro.obs.slo import SLOMonitor, parse_slo_spec

        monitor = SLOMonitor(parse_slo_spec(args.slo))
        print(SLOMonitor.render(monitor.evaluate(service.metrics)))
    if args.quarantine:
        quarantined = sorted(service.health.quarantined_names())
        if quarantined:
            print("  quarantined:", ", ".join(quarantined))
    _emit_telemetry(args, service.recorder)
    if args.trace_export is not None:
        if service.spans is None:
            print("trace export: tracing is off, nothing to write")
        else:
            service.spans.write_chrome_trace(args.trace_export)
            print(
                f"wrote {args.trace_export} "
                f"({len(service.spans)} spans)"
            )
    return 0


def _command_export_dmv(path: str) -> int:
    federation, __ = dmv_fig1()
    save_federation(federation, path)
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _command_demo()
        if args.command == "query":
            return _command_query(args)
        if args.command == "explain":
            return _command_explain(args)
        if args.command == "check":
            return _command_check(args.spec, args.sql)
        if args.command == "workload":
            return _command_workload(args)
        return _command_export_dmv(args.path)
    except (FusionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
