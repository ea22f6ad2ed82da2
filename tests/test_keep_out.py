"""Deleted names stay deleted.

Each row is one ``grep`` that must find nothing: its extended regex,
the paths it searches (recursively), the directories it skips
(``--exclude-dir``), the file names it keeps (``--include``) and the
hits it allows (a ``grep -v`` regex over grep's ``path:line:text``
output).  The row's name says what the missing name keeps true; many
rows have an AST or runtime check beside them, named in the comment.
Files are searched as a fresh checkout has them: bytecode caches and
the build's ``*.egg-info`` are skipped.
"""

from __future__ import annotations

import fnmatch
import os
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The paths most rows search.
PRODUCT = ("src", "benchmarks", "examples", "docs", "README.md", "DESIGN.md")

#: Directories a build or an import leaves inside the searched paths; a
#: checkout has none.
BUILD_PRODUCTS = ("__pycache__", "*.egg-info")


@dataclass(frozen=True)
class KeepOut:
    name: str
    regex: str
    paths: tuple[str, ...]
    exclude_dir: str | None = None
    include: str | None = None
    allow: str | None = None


KEEP_OUT = (
    # tests/ is covered by the ast walk in tests/runtime/test_engine.py,
    # which has to spell the names; benchmarks/e2e is frozen and its
    # `mediator_options` is a workload attribute, not the old keyword.
    KeepOut(
        "Resilience is declared once (removed keywords stay removed)",
        r"mediator_options|retry_policy=|Mediator\([^)]*max_retries=",
        PRODUCT,
        exclude_dir="e2e",
    ),
    # tests/test_settings_have_callers.py checks by ast that every
    # remaining field or keyword of the runtime and planner settings
    # classes has a product caller; these are the ones that became
    # constants or went with the code only they reached.
    KeepOut(
        "Every setting has a caller (settings only tests set stay constants)",
        r"backoff_jitter|jittered|QuarantineConfig|outages|in_outage|dual_path"
        r"|prune_difference|load_sources",
        ("src",),
    ),
    # Faults come from repro.runtime.faults alone and only the engine
    # retries; tests/runtime/test_engine.py checks the same by ast.
    KeepOut(
        "One fault model (the per-source failure hook stays removed)",
        r"FailureInjector|SourceUnavailableError|_before_request",
        PRODUCT,
        exclude_dir="e2e",
    ),
    # No second run record, no projection onto ExecutionResult and no
    # Mediator pass-through; tests/mediator/test_run_record.py checks
    # the same at runtime.
    KeepOut(
        "One record per run (the engine answers with ExecutionResult)",
        r"RuntimeResult|to_execution_result|execute_concurrent",
        PRODUCT,
        exclude_dir="e2e",
    ),
    # No second fold of a run's records into spans; the ast checks in
    # tests/obs/test_span_fold.py keep obs/spans.py off the event
    # schema and serve/service.py off the recorder's stream.
    KeepOut(
        "One fold per run (spans render the runtime trace)",
        r"engine_spans|EngineSpans|_attribute_copier",
        PRODUCT,
        exclude_dir="e2e",
    ),
    # The same-seed replay triple and every BENCH_ write live in
    # bench/report.py; tests/bench/test_report.py checks the same by ast.
    KeepOut(
        "Experiment checks are written once (replay triple, BENCH rows)",
        r'\(3, seed \+ 1\)|open\(|"BENCH_',
        ("src/repro/bench",),
        include="*.py",
        allow=r"^src/repro/bench/report\.py:",
    ),
    # Never a diff of the shared PlanCache.hits counter, which a
    # sibling worker's lookup moves.
    KeepOut(
        "A served query's plan-cache flag is its lookup's own answer",
        r"hits_before",
        ("src/repro/serve/service.py",),
    ),
    # No second executor, run record or replanner; the deletion test
    # in tests/mediator/test_run_record.py checks the same at runtime.
    KeepOut(
        "Re-planning is the mediator's own round loop",
        r"ResilientExecutor|ResilientResult|resilient_executor|replanner",
        PRODUCT,
        exclude_dir="e2e",
    ),
    # No third class driving a plan and no hand loop over the wrappers;
    # tests/mediator/test_adaptive_engine.py checks by ast that only
    # plans/operations.py asks a source for a selection or a semijoin.
    KeepOut(
        "Adaptive execution is rounds of one-stage plans on the engine",
        r"AdaptiveExecutor|_run_stage",
        PRODUCT,
        exclude_dir="e2e",
    ),
    # The sequential executor stays only as the independent side of the
    # three checks that compare the engine with it (R2, its pytest
    # benchmark, the zero-fault section of the fault-tolerance example);
    # tests/mediator/test_adaptive_engine.py checks the same by ast.
    KeepOut(
        "Experiments, examples and pytest benchmarks run plans on the engine",
        r"\bExecutor\(",
        ("src/repro/bench", "benchmarks", "examples", "docs", "README.md"),
        exclude_dir="e2e",
        allow=r"^(src/repro/bench/extensions\.py|benchmarks/bench_r2_concurrent_runtime\.py"
        r"|examples/fault_tolerant_mediation\.py):[0-9]+:",
    ),
    # `repro query` builds one engine-backed mediator and the sequential
    # executor records nothing; tests/test_cli.py and tests/obs/test_fold.py
    # check the same by ast.
    KeepOut(
        "One run path per query (only the engine records, clocks or injects faults)",
        r"RUNTIME_ONLY_FLAGS|_run_runtime|_record_step|query --runtime",
        ("src", "examples", "docs", "README.md", "DESIGN.md", ".claude/skills"),
    ),
    # One sjq_price_table call per search feeds every row and the
    # winner's choices; tests/optimize/test_stage_rows.py counts the
    # calls at runtime.
    KeepOut(
        "The subset DP prices a query in one table (no per-condition row or table)",
        r"semijoin_table|later_stage_costs",
        ("src",),
    ),
    # A real mediator prices from statistics and link charges; the
    # lookup-table model only builds adversarial test scenarios.
    KeepOut(
        "TableCostModel is a test helper (tests/costs/table_model.py)",
        r"TableCostModel",
        ("src",),
    ),
    # make_kit / kit_for_federation build every oracle charge model;
    # tests/bench/test_planner_view.py checks the same by ast, multi-line
    # calls and hand-built oracle estimators included.
    KeepOut(
        "Experiments take the oracle planner's view from bench/harness.py",
        r"\.for_federation\(",
        ("src/repro/bench",),
        include="*.py",
        allow=r"^src/repro/bench/harness\.py:",
    ),
)


def searched(row: KeepOut, root: Path = ROOT):
    """The files ``grep -r`` reads for ``row``, as grep names them."""
    for path in row.paths:
        if (root / path).is_file():
            yield path
            continue
        for parent, dirs, files in os.walk(root / path):
            dirs[:] = sorted(
                d
                for d in dirs
                if not any(fnmatch.fnmatch(d, skip) for skip in BUILD_PRODUCTS)
                and not (row.exclude_dir and fnmatch.fnmatch(d, row.exclude_dir))
                and not os.path.islink(os.path.join(parent, d))
            )
            for name in sorted(files):
                if row.include and not fnmatch.fnmatch(name, row.include):
                    continue
                if not os.path.islink(os.path.join(parent, name)):
                    yield Path(parent, name).relative_to(root).as_posix()


def hits(row: KeepOut, root: Path = ROOT) -> list[str]:
    """grep's output lines for ``row`` that its allow-list keeps."""
    regex, allow = re.compile(row.regex), row.allow and re.compile(row.allow)
    found = []
    for path in searched(row, root):
        text = (root / path).read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.split("\n"), 1):
            hit = f"{path}:{number}:{line}"
            if regex.search(line) and not (allow and allow.search(hit)):
                found.append(hit)
    return found


@pytest.mark.parametrize("row", KEEP_OUT, ids=lambda row: row.name)
def test_keep_out(row):
    assert next(searched(row), None), f"{row.paths} hold no file to search"
    found = hits(row)
    assert not found, "\n".join(found)


def test_the_search_reads_what_grep_reads(tmp_path):
    """A hit in a nested file is found; one in an excluded directory, a
    build product, a file name outside ``include`` or an allowed path
    is not."""
    for path in ("pkg/a.py", "pkg/e2e/b.py", "pkg/__pycache__/c.py", "pkg/c.txt", "pkg/d.py"):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text("x = 1\nFailureInjector()\n")
    row = KeepOut(
        "planted", r"FailureInjector", ("pkg",), exclude_dir="e2e", include="*.py",
        allow=r"^pkg/d\.py:",
    )
    assert hits(row, tmp_path) == ["pkg/a.py:2:FailureInjector()"]
