"""``python -m repro`` stdout, pinned byte for byte.

``golden/cli/`` holds the stdout of ``demo`` and of ``query`` on the
Fig. 1 federation and on its 2x replicated variant, as printed when
``query`` still had two run paths: the sequential executor (no flag)
and the runtime engine (``--runtime``).  Every line is a virtual-clock
figure, a cost or a sorted answer, so the bytes are the same under any
hash seed.

``query`` now runs on the engine alone.  ``demo`` and ``--adaptive``
print what they printed.  Every other ``query`` output differs from the
two old ones by exactly these changes, and by nothing else:

* from the old ``--runtime`` run: the per-step listing after the plan
  (which the sequential run printed there), and the plan-cache line
  after the summary line under ``--plan-cache``;
* from the old sequential run: the summary line's runtime suffix
  ``; makespan …s, N retries, N degraded``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import save_federation
from repro.sources.generators import dmv_fig1, replicate_federation

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

SQL = "SELECT u1.L FROM U u1, U u2 WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
AGG_SQL = (
    "SELECT u1.V, COUNT(*), AVG(u1.D) FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' GROUP BY u1.V"
)

#: Case -> (``query`` arguments after the spec, golden of the old
#: ``--runtime`` run, golden of the old sequential run or None when the
#: flags had no sequential form).
QUERIES = {
    "query": ([SQL], "query-runtime", "query"),
    "faults": ([SQL, "--fault-rate", "0.3", "--timeline"], "faults", None),
    "faults-seed2": (
        [SQL, "--fault-rate", "0.3", "--fault-seed", "2", "--timeline"],
        "faults-seed2",
        None,
    ),
    "aggregate": ([AGG_SQL], "aggregate-runtime", "aggregate"),
    "plan-cache": ([SQL, "--plan-cache"], "plan-cache-runtime", "plan-cache"),
}

STEP = re.compile(r" *\d+\) .+ -> +\d+ items, cost +\d+\.\d, \d+ msg( \[\d+ retries\])?\n")
STEPS_TOTAL = re.compile(r"answer: \d+ items, total cost (\d+\.\d), (\d+) messages\n")
RUNTIME_SUFFIX = re.compile(r"; makespan \d+\.\d{3}s, \d+ retries, \d+ degraded$", re.M)
PLAN_CACHE_LINE = re.compile(r"^plan cache: .*\n", re.M)
SUMMARY_COST = re.compile(r"actual cost (\d+\.\d), (\d+) messages")


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("specs")
    federation = dmv_fig1()[0]
    paths = {}
    for name, spec in (("fig1", federation), ("rep2", replicate_federation(federation, 2))):
        paths[name] = str(directory / f"{name}.json")
        save_federation(spec, paths[name])
    return paths


def stdout(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.out").read_text()


def cut_steps(out: str) -> tuple[str, str]:
    """The per-step listing (its step lines, its total line and the
    blank line after it) and the output without it; ``""`` and the
    output when it has none."""
    lines = out.splitlines(keepends=True)
    first = next((i for i, line in enumerate(lines) if STEP.fullmatch(line)), None)
    if first is None:
        return "", out
    last = first
    while STEP.fullmatch(lines[last]):
        last += 1
    assert STEPS_TOTAL.fullmatch(lines[last]) and lines[last + 1] == "\n", lines[last:]
    return "".join(lines[first : last + 2]), "".join(lines[:first] + lines[last + 2 :])


def test_demo_is_unchanged(capsys):
    assert stdout(capsys, ["demo"]) == golden("demo")


@pytest.mark.parametrize("spec", ["fig1", "rep2"])
def test_adaptive_is_unchanged(capsys, specs, spec):
    out = stdout(capsys, ["query", specs[spec], SQL, "--adaptive"])
    assert out == golden(f"{spec}-adaptive")


@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("spec", ["fig1", "rep2"])
def test_query_differs_only_as_declared(capsys, specs, spec, name):
    argv, runtime_run, sequential_run = QUERIES[name]
    out = stdout(capsys, ["query", specs[spec], *argv])
    steps, rest = cut_steps(out)
    # The old --runtime run, plus the step listing and the cache line.
    assert PLAN_CACHE_LINE.sub("", rest) == golden(f"{spec}-{runtime_run}")
    assert bool(PLAN_CACHE_LINE.search(out)) == ("--plan-cache" in argv)
    if argv[0] == AGG_SQL:
        assert steps == ""  # an aggregate query lists its two phases
    else:
        # The listing totals what the summary line reports.
        total = STEPS_TOTAL.search(steps).groups()
        assert SUMMARY_COST.search(rest).groups() == total
    if sequential_run is not None:
        # The old sequential run, plus the runtime suffix; on a run
        # without faults its step listing is the engine's, line for line.
        assert RUNTIME_SUFFIX.sub("", out) == golden(f"{spec}-{sequential_run}")
        assert steps == cut_steps(golden(f"{spec}-{sequential_run}"))[0]
