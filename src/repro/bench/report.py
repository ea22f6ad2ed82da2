"""Plain-text report formatting for experiments.

Everything renders to fixed-width ASCII so reports diff cleanly, print
in CI logs, and paste into EXPERIMENTS.md unchanged.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


def format_cell(value: Any) -> str:
    """Human formatting: floats get 1-2 decimals, inf a symbol."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """A titled fixed-width table.

    Example:
        >>> table = Table("demo", ["a", "b"])
        >>> table.add_row([1, 2.5])
        >>> print(table.render())  # doctest: +NORMALIZE_WHITESPACE
        demo
        a | b
        --+------
        1 | 2.500
    """

    title: str
    headers: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, values: Sequence[Any]) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append([format_cell(value) for value in values])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        widths = [
            max(len(str(header)), *(len(row[i]) for row in self.rows), 1)
            if self.rows
            else len(str(header))
            for i, header in enumerate(self.headers)
        ]
        lines = [self.title]
        lines.append(
            " | ".join(
                str(header).ljust(width)
                for header, width in zip(self.headers, widths)
            )
        )
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def join_sections(*sections: str) -> str:
    """Stack report sections with blank-line separators."""
    return "\n\n".join(section.rstrip() for section in sections if section)


def results_dir() -> str:
    """The directory reports are written to (created on demand)."""
    base = os.environ.get("REPRO_RESULTS_DIR") or os.path.join(
        os.getcwd(), "results"
    )
    os.makedirs(base, exist_ok=True)
    return base


def write_report(name: str, text: str) -> str:
    """Persist a report under results/ and return its path."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.rstrip() + "\n")
    return path


def write_metrics(name: str, payload: dict) -> str:
    """Persist a metrics snapshot next to the report it belongs to."""
    path = os.path.join(results_dir(), f"{name}.metrics.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_bench_rows(bench_id: str, rows: list[dict]) -> str:
    """Persist an experiment's trend rows as ``BENCH_<id>.json`` in the
    current directory (CI aggregates them into the trajectory)."""
    path = os.path.join(os.getcwd(), f"BENCH_{bench_id}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2)
        handle.write("\n")
    return path


def check_replay(
    title: str,
    columns: Sequence[str],
    note: str,
    run: Callable[[int], tuple[str, Sequence[Any]]],
    seed: int,
) -> Table:
    """The same-seed replay check of a seeded experiment, as a table.

    ``run(seed)`` executes the experiment's scenario from ``seed`` and
    returns its output text (an event stream, a trace export) and the
    cells of ``columns`` for that run.  It runs at ``seed``, ``seed``
    and ``seed + 1``: the second run must reproduce the first byte for
    byte, and the third must differ from it, or an ``AssertionError``
    names which half of the contract broke.
    """
    replays = [
        (run_no, replay_seed, *run(replay_seed))
        for run_no, replay_seed in ((1, seed), (2, seed), (3, seed + 1))
    ]
    texts = [text for _, _, text, _ in replays]
    if texts[1] != texts[0]:
        raise AssertionError(
            f"{title}: the same-seed rerun produced different bytes — "
            "a seeded run must replay byte-identically"
        )
    if texts[2] == texts[0]:
        raise AssertionError(
            f"{title}: seed {seed + 1} reproduced seed {seed}'s bytes — "
            "every fault stream must derive from the seed"
        )
    table = Table(title, ["run", "seed", *columns, "bytes", "vs run 1"])
    for (run_no, replay_seed, text, cells), verdict in zip(
        replays, ("-", "identical", "diverged")
    ):
        table.add_row([run_no, replay_seed, *cells, len(text), verdict])
    table.add_note(note)
    return table
