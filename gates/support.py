"""What the gates share: the checkout's paths, the Fig. 1 query, and
runners for the CLI and the R13 benchmark that give a command the same
time limit CI's ``timeout`` gave it.

Every command runs from the checkout root with ``PYTHONPATH=src``, and
every file a gate writes goes to a pytest temporary directory, never
into the checkout.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}

#: Fig. 1's fusion query: licenses with both a DUI and a speeding record.
SQL = "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"


def python(*argv, timeout: float | None = None, expect: int = 0) -> subprocess.CompletedProcess:
    """Run ``python ARGV`` from the checkout root; assert its exit status."""
    argv = [sys.executable, *map(str, argv)]
    done = subprocess.run(
        argv, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=timeout
    )
    assert done.returncode == expect, (
        f"{' '.join(argv[1:])} exited {done.returncode} (expected {expect})\n"
        f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}"
    )
    return done


def repro(*args, timeout: float | None = None, expect: int = 0) -> subprocess.CompletedProcess:
    """Run the ``python -m repro`` CLI."""
    return python("-m", "repro", *args, timeout=timeout, expect=expect)


def e2e(workload: str, out: Path) -> dict:
    """The result line of one traced smoke run of an R13 workload."""
    done = python(
        "benchmarks/e2e/run.py", "--workload", workload, "--smoke", "--trace", "1",
        "--out", out, timeout=300,
    )
    return json.loads(done.stdout.splitlines()[-1])


@contextmanager
def time_limit(seconds: float):
    """Fail the code under the ``with`` once ``seconds`` of wall-clock
    time pass, as ``timeout`` failed the CI step that ran it."""

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds:g} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
