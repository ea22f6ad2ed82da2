"""Unit tests for report formatting and persistence."""

from __future__ import annotations

import ast
import json
import math
import os
import re
from pathlib import Path

import pytest

import repro.bench
from repro.bench.report import (
    Table,
    check_replay,
    format_cell,
    join_sections,
    results_dir,
    write_bench_rows,
    write_report,
)


class TestFormatCell:
    def test_floats(self):
        assert format_cell(2.5) == "2.500"
        assert format_cell(12.34) == "12.3"
        assert format_cell(1234.5) == "1,234"
        assert format_cell(0.0) == "0"
        assert format_cell(math.inf) == "inf"

    def test_non_floats(self):
        assert format_cell(3) == "3"
        assert format_cell("x") == "x"
        assert format_cell(True) == "True"


class TestTable:
    def test_render_alignment(self):
        table = Table("demo", ["name", "value"])
        table.add_row(["a", 1])
        table.add_row(["longer", 123456.0])
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "demo"
        assert all("|" in line for line in lines[1:2])
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows same width

    def test_row_arity_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            table.add_row([1])

    def test_notes_appended(self):
        table = Table("demo", ["a"])
        table.add_row([1])
        table.add_note("hello")
        assert "note: hello" in table.render()

    def test_empty_table_renders(self):
        table = Table("empty", ["a", "b"])
        assert "empty" in table.render()


class TestSections:
    def test_join_sections_skips_empty(self):
        assert join_sections("a", "", "b") == "a\n\nb"


class TestPersistence:
    def test_write_report_respects_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = write_report("unit", "content")
        assert os.path.dirname(path) == str(tmp_path)
        with open(path) as handle:
            assert handle.read() == "content\n"

    def test_results_dir_created(self, tmp_path, monkeypatch):
        target = tmp_path / "nested"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(target))
        assert results_dir() == str(target)
        assert target.is_dir()

    def test_bench_rows_land_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rows = [{"bench": "RX", "scenario": "a", "value": 1.5}]
        path = write_bench_rows("RX", rows)
        assert path == str(tmp_path / "BENCH_RX.json")
        text = (tmp_path / "BENCH_RX.json").read_text()
        assert text == json.dumps(rows, indent=2) + "\n"


def seeded_run(seed: int) -> tuple[str, tuple[int]]:
    """A planted experiment whose output derives from its seed alone."""
    text = f"events of seed {seed}\n" * 3
    return text, (3,)


class TestCheckReplay:
    def test_a_faithful_replay_renders_its_verdicts(self):
        table = check_replay("replay", ["events"], "note", seeded_run, 7)
        assert table.render().splitlines() == [
            "replay",
            "run | seed | events | bytes | vs run 1 ",
            "----+------+--------+-------+----------",
            "1   | 7    | 3      | 51    | -        ",
            "2   | 7    | 3      | 51    | identical",
            "3   | 8    | 3      | 51    | diverged ",
            "note: note",
        ]

    def test_a_diverging_same_seed_rerun_raises(self):
        runs = []

        def drifting(seed):
            runs.append(seed)
            return f"run {len(runs)} of seed {seed}", ()

        with pytest.raises(AssertionError, match="same-seed rerun"):
            check_replay("replay", [], "note", drifting, 7)
        assert runs == [7, 7, 8]

    def test_a_new_seed_that_changes_nothing_raises(self):
        def seed_blind(seed):
            return "the same bytes", ()

        with pytest.raises(AssertionError, match="seed 8 reproduced seed 7"):
            check_replay("replay", [], "note", seed_blind, 7)


BENCH = Path(repro.bench.__file__).resolve().parent
REPLAY_TRIPLE = re.compile(r"\(\s*3\s*,\s*seed\s*\+\s*1\s*\)")


def opens_a_file(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")
        )
        for node in ast.walk(tree)
    )


def names_a_bench_file(tree: ast.AST) -> bool:
    """A string constant starting ``BENCH_`` outside a docstring."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    return any(
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("BENCH_")
        and id(node) not in docstrings
        for node in ast.walk(tree)
    )


class TestWrittenInOnePlace:
    """The replay protocol and the ``BENCH_`` writer live in
    ``bench/report.py``; every experiment calls them."""

    def test_no_experiment_replays_or_writes_by_hand(self):
        offenders = []
        for path in sorted(BENCH.glob("*.py")):
            if path.name == "report.py":
                continue
            source = path.read_text()
            tree = ast.parse(source)
            if REPLAY_TRIPLE.search(source):
                offenders.append(f"{path.name}: replay triple")
            if opens_a_file(tree) or names_a_bench_file(tree):
                offenders.append(f"{path.name}: writes a file")
        assert offenders == []

    def test_the_checks_see_each_spelling(self):
        assert REPLAY_TRIPLE.search("for n, s in ((1, seed), (2, seed), (3, seed + 1)):")
        assert opens_a_file(ast.parse("with open(path) as fh: pass"))
        assert opens_a_file(ast.parse("Path(p).open('w')"))
        assert names_a_bench_file(ast.parse('path = "BENCH_R8.json"'))
        assert not names_a_bench_file(ast.parse('"""Writes ``BENCH_R8.json``."""'))

    def test_the_helpers_are_where_the_checks_allow_them(self):
        source = (BENCH / "report.py").read_text()
        assert REPLAY_TRIPLE.search(source)
        assert opens_a_file(ast.parse(source))
