"""CI runs checks that live in the repository, not in its YAML.

A ``run:`` block of the workflow installs, runs pytest or runs ruff; a
check written as Python belongs in ``gates/`` (slow) or ``tests/``
(tier-1), where it is linted and runs locally with the command CI uses.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A heredoc, or a ``python -c`` / ``python3 -c`` program.
PYTHON_SOURCE = re.compile(r"<<-?\s*['\"]?\w+|\bpython3?\s+-c\b")


def run_blocks(text: str) -> list[tuple[int, str]]:
    """Each ``run:`` value of a workflow, inline or a block scalar, with
    the line its first line of shell is on."""
    lines = text.split("\n")
    blocks = []
    for number, line in enumerate(lines, 1):
        key = re.match(r"(\s*)(?:- )?run:\s*(.*)", line)
        if key is None:
            continue
        indent, value = len(key.group(1)), key.group(2)
        if value[:1] not in ("|", ">"):
            blocks.append((number, value))
            continue
        body = []
        for follow in lines[number:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow)
        blocks.append((number + 1, "\n".join(body)))
    return blocks


def python_sources(text: str) -> list[int]:
    """The line of each Python program a ``run:`` block holds."""
    return [
        number + value.count("\n", 0, found.start())
        for number, value in run_blocks(text)
        for found in PYTHON_SOURCE.finditer(value)
    ]


def test_no_run_block_holds_python_source():
    found = python_sources(WORKFLOW.read_text(encoding="utf-8"))
    assert not found, f"ci.yml holds Python programs on lines {found}"


def test_each_inline_form_is_found():
    workflow = """\
jobs:
  a:
    steps:
      - run: PYTHONPATH=src python -c "import repro"
      - name: heredoc
        run: |
          timeout 300 python3 - <<'PY'
          print(1)
          PY
      - name: piped
        run: |
          python3 benchmarks/e2e/run.py --smoke | tail -n 1 | python3 -c "
          import sys
          "
      - name: fine
        run: PYTHONPATH=src python -m pytest gates
      - name: folded
        run: >-
          ruff check src
"""
    assert [number for number, __ in run_blocks(workflow)] == [4, 7, 12, 16, 19]
    assert python_sources(workflow) == [4, 7, 12]
