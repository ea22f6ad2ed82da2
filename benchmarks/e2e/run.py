#!/usr/bin/env python3
"""R13: the end-to-end wall-clock benchmark.  One command, every metric.

    python3 benchmarks/e2e/run.py --seed 16
        all four workloads: the end-to-end metrics with units, then the
        per-layer metrics, every answer checked against the oracle.

    python3 benchmarks/e2e/run.py --workload scan_heavy --seed 3 --seconds 10 --trace 0
        one workload as the benchmark driver runs it; the last line of
        output is the result as one JSON object (``--trace 1`` reports
        the per-layer metrics instead of the end-to-end ones).

Options: ``--rounds R`` fixes the number of rounds instead of running to
``--seconds``; ``--smoke`` runs one round of 1/20 of the ops on 1/10 of
the rows; ``--repeat K`` measures every workload on K consecutive seeds
and prints each metric's spread beside its bound; ``--out DIR`` is where
``trace-<workload>.json`` and ``results-<workload>.json`` go.

Each workload runs in its own child process (``child.py``), one thread,
``PYTHONHASHSEED=0``, ``REPRO_COLUMNAR*`` unset.  Exit status is 1 when
any op failed or any answer differed from the oracle's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from manifest import repro_manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The driver allows a run 180 s; the child is killed before that.
CHILD_TIMEOUT_S = 170


def child_environment() -> dict[str, str]:
    """The launch environment that makes the work identical run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_COLUMNAR")}
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, seed: int, args: argparse.Namespace, trace: str) -> dict[str, Any]:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", trace, "--out", str(args.out),
    ]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.smoke:
        command.append("--smoke")
    if args.inject_wrong_answer:
        command.append("--inject-wrong-answer")
    environment = child_environment()
    done = subprocess.run(
        command, env=environment, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        raise SystemExit(f"{workload}: child exited with {done.returncode} and no result")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"{workload}: child printed no result") from None
    report["manifest"] = repro_manifest(ROOT, seed, environment)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"results-{workload}.json").write_text(json.dumps(report, indent=1))
    return report


def with_units(values: dict[str, float], declared: list[dict[str, Any]]) -> dict[str, Any]:
    """Exactly the declared metrics, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_report(report: dict[str, Any], spec: dict[str, Any]) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"\n== {report['workload']} (seed {report['seed']})")
    if report["end_to_end"] is not None:
        details = report["details"]
        print(
            f"   {details['rounds']} rounds, {details['ops']} ops, {details['queries']} queries, "
            f"{details['setups']} set-ups; {details['samples_beyond_p95']} samples beyond p95"
        )
        if 95 not in details["supported_percentiles"]:
            print("   too few ops for a p95 (fewer than 10 samples beyond it): read it as indicative")
        for name, metric in with_units(report["end_to_end"], spec["end_to_end"]).items():
            print(f"   {name:<24} {metric['value']:>14.4f} {metric['unit']}")
    print(f"   {'failed_frac':<24} {failed / attempted:>14.4f} ({failed} of {attempted} ops)")
    if report["per_layer"] is not None:
        for name, metric in with_units(report["per_layer"], spec["per_layer"]).items():
            print(f"   {name:<40} {metric['value']:>14.4f} {metric['unit']}")


def spread(values: list[float]) -> float:
    """Interquartile range over the median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat(args: argparse.Namespace, spec: dict[str, Any], workloads: list[str]) -> int:
    """K runs per workload on consecutive seeds; every spread beside its bound."""
    failed = 0
    rows = []
    for workload in workloads:
        runs = []
        for k in range(args.repeat):
            report = run_child(workload, args.seed + k, args, trace="0")
            failed += report["failed"]
            runs.append(report["end_to_end"])
            print(f"{workload} seed {args.seed + k}: " + ", ".join(
                f"{name}={value:.4g}" for name, value in report["end_to_end"].items()
            ), flush=True)
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            rows.append((workload, metric, statistics.median(values), spread(values)))
    print("\n| workload | metric | median | unit | spread (IQR/median) | bound |")
    print("|---|---|---|---|---|---|")
    for workload, metric, centre, width in rows:
        print(
            f"| {workload} | {metric['name']} | {centre:.4f} | {metric['unit']} "
            f"| {width:.4f} | {metric['bound']} |"
        )
    worst = max(rows, key=lambda row: row[3] / row[1]["bound"])
    print(
        f"\nlargest spread relative to its bound: {worst[1]['name']} @ {worst[0]}: "
        f"{worst[3]:.4f} of {worst[1]['bound']}"
    )
    summary = {
        "manifest": repro_manifest(ROOT, args.seed, child_environment()),
        "runs_per_workload": args.repeat,
        "rows": [
            {"workload": w, "metric": m["name"], "median": c, "spread": s, "bound": m["bound"]}
            for w, m, c, s in rows
        ],
    }
    (args.out / "repeat.json").write_text(json.dumps(summary, indent=1))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--inject-wrong-answer", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    workloads = [args.workload] if args.workload else names

    if args.repeat:
        return repeat(args, spec, workloads)

    failed = 0
    for workload in workloads:
        report = run_child(workload, args.seed, args, trace=args.trace or "both")
        print_report(report, spec)
        failed += report["failed"]
    if args.workload and args.trace:
        # The driver's contract: one JSON object on the last line.
        kind = "end_to_end" if args.trace == "0" else "per_layer"
        print(json.dumps({
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": with_units(report[kind], spec[kind]),
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
