"""R12 — columnar substrate: vectorized kernels vs the row path.

PR 10 moved the mediator's data plane onto a columnar batch
representation (:mod:`repro.relational.columnar`): predicates become
boolean selection masks, item sets leave a table as bitmaps over one
item dictionary, semijoins test those bitmaps through per-row item ids,
and the mediator merge is integer OR / AND.  This experiment quantifies the
move with a three-way sweep — the seed's row-at-a-time path (a dict per
row), the pure-python columnar kernels, and the numpy fast path — over
the five kernels the serving stack actually exercises:

* ``scan``     — qualifying row tuples under a broad predicate;
* ``filter``   — ``sq(c, R)``: distinct qualifying items;
* ``semijoin`` — ``sjq(c, R, Y)`` against a 10% binding set;
* ``merge``    — the mediator merge: per-source filters unioned per
  condition, then intersected (filter + merge, the acceptance shape);
* ``aggregate``— grouped COUNT/SUM/AVG over the qualifying entity set.

Every kernel is checked for result equality across the three paths
before its timings count.  The acceptance gate: pure-python columnar
beats the row path by >= 3x on the ``merge`` (filter + merge) kernel at
1e5 rows.

A second table measures a source table's *value index* against the row
masks it replaces for a one-attribute leaf — a string equality, an int
range and a semijoin against an ``ItemSet`` binding — at every size,
both on numpy: where the two cross is where ``_INDEX_MIN_ROWS`` sits.
At 1e5 rows the index selection must be >= 1.5x the mask path.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from repro.bench.report import Table, join_sections, write_bench_rows
from repro.relational import columnar
from repro.relational.aggregates import AggregateSpec, aggregate_rows
from repro.relational.conditions import Condition
from repro.relational.items import INDEX, ItemSet, as_frozenset
from repro.relational.parser import parse_condition
from repro.relational.relation import Relation
from repro.relational.schema import dmv_schema

#: The acceptance threshold: pure-python columnar vs the seed row path
#: on the filter+merge kernel at SPEEDUP_ROWS rows.
SPEEDUP_FLOOR = 3.0
SPEEDUP_ROWS = 100_000

#: The value-index gate: a leaf selection through the index against
#: the row-mask path at INDEX_ROWS rows.
INDEX_FLOOR = 1.5
INDEX_ROWS = 100_000

_VIOLATIONS = ("dui", "sp", "park", "redlight", "nofault", "ins", "reg")


def _make_rows(n: int, seed: int) -> list[tuple[Any, ...]]:
    """``n`` DMV-shaped rows over ``~n/5`` licenses, split 4 ways."""
    rng = random.Random(seed)
    licenses = max(1, n // 5)
    rows = [
        (
            f"L{rng.randrange(licenses):07d}",
            rng.choice(_VIOLATIONS),
            rng.randint(1980, 2010),
        )
        for _ in range(n)
    ]
    return rows


def _partition(rows: list[tuple[Any, ...]], parts: int) -> list[Relation]:
    schema = dmv_schema()
    return [
        Relation(f"R{j + 1}", schema, rows[j::parts]) for j in range(parts)
    ]


def _best_of(fn: Callable[[], Any], reps: int) -> tuple[float, Any]:
    """(best wall seconds, last result) over ``reps`` runs."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


# ---------------------------------------------------------------------------
# The seed's row-at-a-time implementations (what PR 10 replaced):
# a dict materialized per row, set ops in arrival order.


def _row_select_rows(relation: Relation, condition: Condition) -> list:
    schema = relation.schema
    return [
        row for row in relation if condition.evaluate(schema.row_to_dict(row))
    ]


def _row_select_items(
    relation: Relation, condition: Condition
) -> frozenset[Any]:
    schema = relation.schema
    merge_pos = schema.merge_position
    return frozenset(
        row[merge_pos]
        for row in relation
        if condition.evaluate(schema.row_to_dict(row))
    )


def _row_semijoin(
    relation: Relation, condition: Condition, wanted: frozenset[Any]
) -> frozenset[Any]:
    schema = relation.schema
    merge_pos = schema.merge_position
    return frozenset(
        row[merge_pos]
        for row in relation
        if row[merge_pos] in wanted
        and condition.evaluate(schema.row_to_dict(row))
    )


def _row_merge(
    relations: list[Relation], conditions: list[Condition]
) -> frozenset[Any]:
    per_condition = []
    for condition in conditions:
        union: set[Any] = set()
        for relation in relations:
            union.update(_row_select_items(relation, condition))
        per_condition.append(frozenset(union))
    result = set(per_condition[0])
    for s in per_condition[1:]:
        result.intersection_update(s)
    return frozenset(result)


def _row_aggregate(
    relation: Relation,
    specs: tuple[AggregateSpec, ...],
    group_by: tuple[str, ...],
    items: frozenset[Any],
) -> dict:
    schema = relation.schema
    merge = schema.merge_attribute
    groups: dict[tuple, list] = {}
    for row in relation:
        record = schema.row_to_dict(row)
        if record[merge] not in items:
            continue
        key = tuple(record[a] for a in group_by)
        states = groups.get(key)
        if states is None:
            states = [[0], [0.0, 0], [0.0, 0]]
            groups[key] = states
        states[0][0] += 1
        d = record["D"]
        if d is not None:
            states[1][0] += d
            states[1][1] += 1
            states[2][0] += d
            states[2][1] += 1
    return {
        key: (states[0][0], states[1][0], round(states[2][0] / states[2][1], 9))
        for key, states in groups.items()
        if states[2][1]
    }


# ---------------------------------------------------------------------------
# Columnar counterparts (through the public algebra entry points).


def _col_merge(
    relations: list[Relation], conditions: list[Condition]
) -> frozenset[Any]:
    per_condition = [
        columnar.union_items(
            columnar.select_items(relation.columnar(), condition)
            for relation in relations
        )
        for condition in conditions
    ]
    # Timed through to the decoded answer, as ``Executor.execute`` is.
    return as_frozenset(columnar.intersect_items(per_condition))


def _col_aggregate(
    relation: Relation,
    specs: tuple[AggregateSpec, ...],
    group_by: tuple[str, ...],
    items: frozenset[Any],
) -> dict:
    grouped = aggregate_rows(relation, specs, group_by, items=items)
    return {
        key: (values[0], values[1], round(values[2], 9))
        for key, values in grouped.groups
    }


# ---------------------------------------------------------------------------
# The sweep


def _sweep_one_size(
    n: int, seed: int, reps: int
) -> list[dict[str, Any]]:
    """Time the five kernels at ``n`` rows under all three substrates."""
    rows = _make_rows(n, seed)
    relation = Relation("R", dmv_schema(), rows)
    parts = _partition(rows, 4)

    scan_cond = parse_condition("D >= 1985")
    filter_cond = parse_condition("V = 'dui' AND D >= 1995")
    merge_conds = [
        parse_condition("V = 'dui'"),
        parse_condition("V = 'sp' AND D >= 1990"),
    ]
    all_items = sorted(relation.items())
    rng = random.Random(seed + 1)
    wanted = frozenset(
        rng.sample(all_items, max(1, len(all_items) // 10))
    )
    specs = (
        AggregateSpec("count"),
        AggregateSpec("sum", "D"),
        AggregateSpec("avg", "D"),
    )
    group_by = ("V",)
    agg_items = frozenset(rng.sample(all_items, max(1, len(all_items) // 4)))

    kernels: list[tuple[str, Callable[[], Any], Callable[[], Any]]] = [
        (
            "scan",
            lambda: _row_select_rows(relation, scan_cond),
            lambda: columnar.select_row_tuples(
                relation.columnar(), relation.rows, scan_cond
            ),
        ),
        (
            "filter",
            lambda: _row_select_items(relation, filter_cond),
            lambda: columnar.select_items(relation.columnar(), filter_cond),
        ),
        (
            "semijoin",
            lambda: _row_semijoin(relation, filter_cond, wanted),
            lambda: columnar.semijoin_items(
                relation.columnar(), filter_cond, wanted
            ),
        ),
        (
            "merge",
            lambda: _row_merge(parts, merge_conds),
            lambda: _col_merge(parts, merge_conds),
        ),
        (
            "aggregate",
            lambda: _row_aggregate(relation, specs, group_by, agg_items),
            lambda: _col_aggregate(relation, specs, group_by, agg_items),
        ),
    ]

    results = []
    for name, row_fn, col_fn in kernels:
        row_s, row_result = _best_of(row_fn, reps)

        prev_np = columnar.set_numpy_enabled(False)
        try:
            py_s, py_result = _best_of(col_fn, reps)
        finally:
            columnar.set_numpy_enabled(prev_np)

        np_s = None
        np_result = py_result
        if columnar.numpy_available():
            prev_np = columnar.set_numpy_enabled(True)
            try:
                np_s, np_result = _best_of(col_fn, reps)
            finally:
                columnar.set_numpy_enabled(prev_np)

        if py_result != row_result or np_result != row_result:
            raise AssertionError(
                f"{name}@{n}: columnar result diverged from the row "
                "path — timings only count over identical answers"
            )
        results.append(
            {
                "bench": "R12",
                "scenario": f"{name}@{n}",
                "kernel": name,
                "rows": n,
                "row_s": row_s,
                "columnar_s": py_s,
                "numpy_s": np_s,
                "speedup_columnar": row_s / py_s if py_s > 0 else float("inf"),
                "speedup_numpy": (
                    row_s / np_s if np_s else None
                ),
            }
        )
    return results


def _index_sweep_one_size(n: int, seed: int, reps: int) -> list[dict[str, Any]]:
    """Time leaf selection and semijoin through the value index and
    through the row masks at ``n`` rows, numpy forced on for both.

    The mask path is called directly — the kernels ``select_items`` and
    ``semijoin_items`` run when no index serves.  With one repetition
    (the sweep's 1e6 rows) each path gets a fresh table per kernel, so
    the index build (and the masks' mirrors) is inside its timing.
    """
    rows = _make_rows(n, seed)
    relations = [Relation("R", dmv_schema(), rows) for _ in range(2 if reps == 1 else 1)]
    all_items = sorted({row[0] for row in rows})
    sample = random.Random(seed + 2).sample(all_items, max(1, len(all_items) // 10))
    ids = INDEX.ids(sample)
    binding = ItemSet.from_ids(ids, max(ids) + 1)
    leaves = [
        ("select =", parse_condition("V = 'dui'")),
        ("select range", parse_condition("D BETWEEN 1990 AND 1995")),
    ]
    semijoin = parse_condition("D >= 1995")

    def masked_semijoin(table):
        member = columnar.member_mask(table, binding)
        return columnar._selected_items(table, member & columnar._mask_np(semijoin, table))

    kernels = [
        (
            name,
            lambda table, c=condition: columnar._selected_items(
                table, columnar.predicate_mask(table, c)
            ),
            lambda table, c=condition: columnar.select_items(table, c),
        )
        for name, condition in leaves
    ]
    kernels.append(
        (
            "semijoin",
            masked_semijoin,
            lambda table: columnar.semijoin_items(table, semijoin, binding),
        )
    )
    results = []
    prev = columnar.set_numpy_enabled(True)
    try:
        for name, mask_fn, index_fn in kernels:
            tables = [relation.columnar() for relation in relations]
            mask_s, mask_result = _best_of(lambda: mask_fn(tables[0]), reps)
            index_s, index_result = _best_of(lambda: index_fn(tables[-1]), reps)
            if index_result != mask_result:
                raise AssertionError(f"{name}@{n}: the value index and the row masks disagree")
            results.append(
                {
                    "bench": "R12",
                    "scenario": f"index {name}@{n}",
                    "kernel": name,
                    "rows": n,
                    "mask_s": mask_s,
                    "index_s": index_s,
                    "speedup_index": mask_s / index_s if index_s > 0 else float("inf"),
                }
            )
            if reps == 1:  # cold: the next kernel starts from fresh tables
                relations = [Relation("R", dmv_schema(), rows) for _ in relations]
    finally:
        columnar.set_numpy_enabled(prev)
    return results


def run_columnar(
    sizes: tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000),
    reps: int = 3,
    seed: int = 1200,
    bench_json: bool = True,
    check_speedup: bool = True,
) -> str:
    """R12: the columnar substrate pays for itself at every scale.

    One synthetic DMV-shaped relation per size (licenses ~ rows/5),
    each kernel timed as best-of-``reps`` under the seed's
    row-at-a-time path, the pure-python columnar kernels, and (when
    available) the numpy fast path — with result equality asserted
    across all three before any timing counts.

    With numpy, a second table times each size's one-attribute leaf
    selections and semijoin through the value index against the row
    masks (:func:`_index_sweep_one_size`).

    When ``bench_json`` is true the rows land in ``BENCH_R12.json``
    for CI trend tracking; ``check_speedup`` enforces the acceptance
    gates (>= 3x pure-python columnar vs row path on the filter+merge
    kernel, and >= 1.5x index vs masks on the selections, at 1e5 rows)
    whenever the sweep includes that size.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    table = Table(
        "columnar substrate sweep (best of "
        f"{reps}, DMV-shaped rows, 4-way source split)",
        [
            "kernel",
            "rows",
            "row path s",
            "columnar s",
            "speedup",
            "numpy s",
            "np speedup",
        ],
    )
    rows: list[dict[str, Any]] = []
    index_rows: list[dict[str, Any]] = []
    for n in sizes:
        size_reps = reps if n < 1_000_000 else 1
        rows.extend(_sweep_one_size(n, seed, size_reps))
        if columnar.numpy_available():
            index_rows.extend(_index_sweep_one_size(n, seed, size_reps))
    for row in rows:
        table.add_row(
            [
                row["kernel"],
                row["rows"],
                row["row_s"],
                row["columnar_s"],
                f"{row['speedup_columnar']:.1f}x",
                row["numpy_s"] if row["numpy_s"] is not None else "-",
                (
                    f"{row['speedup_numpy']:.1f}x"
                    if row["speedup_numpy"]
                    else "-"
                ),
            ]
        )

    gate = [
        row
        for row in rows
        if row["rows"] == SPEEDUP_ROWS and row["kernel"] in ("filter", "merge")
    ]
    if check_speedup and gate:
        for row in gate:
            if row["speedup_columnar"] < SPEEDUP_FLOOR:
                raise AssertionError(
                    f"{row['kernel']}@{row['rows']}: pure-python columnar "
                    f"is only {row['speedup_columnar']:.2f}x over the row "
                    f"path — the substrate must clear {SPEEDUP_FLOOR:.0f}x"
                )
        table.add_note(
            "acceptance: pure-python columnar >= "
            f"{SPEEDUP_FLOOR:.0f}x over the row path on filter and "
            f"merge at {SPEEDUP_ROWS} rows — measured "
            + ", ".join(
                f"{row['kernel']} {row['speedup_columnar']:.1f}x"
                for row in gate
            )
        )
    table.add_note(
        "every timing counted only after the three paths returned "
        "identical results; numpy column omitted when unavailable"
    )
    if any(n >= 1_000_000 for n in sizes):
        table.add_note(
            "rows of 1e6 and more are one cold repetition: building every "
            "cached view (transposed columns, numpy mirrors, the merge "
            "column's dictionary, interning its items) is inside the timing"
        )
    table.add_note(columnar.substrate_summary())

    index_table = Table(
        f"value index vs row masks, one-attribute leaf (best of {reps}, numpy both)",
        ["kernel", "rows", "mask us", "index us", "speedup"],
    )
    for row in index_rows:
        index_table.add_row(
            [
                row["kernel"],
                row["rows"],
                round(row["mask_s"] * 1e6),
                round(row["index_s"] * 1e6),
                f"{row['speedup_index']:.2f}x",
            ]
        )
    index_gate = [
        row
        for row in index_rows
        if row["rows"] == INDEX_ROWS and row["kernel"].startswith("select")
    ]
    if check_speedup and index_gate:
        for row in index_gate:
            if row["speedup_index"] < INDEX_FLOOR:
                raise AssertionError(
                    f"{row['kernel']}@{row['rows']}: the value index is only "
                    f"{row['speedup_index']:.2f}x the row masks (floor "
                    f"{INDEX_FLOOR}x)"
                )
        index_table.add_note(
            f"acceptance: index selection >= {INDEX_FLOOR}x the row masks at "
            f"{INDEX_ROWS} rows — measured "
            + ", ".join(f"{row['kernel']} {row['speedup_index']:.1f}x" for row in index_gate)
        )
    if any(n >= 1_000_000 for n in sizes):
        index_table.add_note(
            "rows of 1e6 and more are one cold repetition on a fresh table per "
            "path: the index build (value codes, item ids, the sort) is inside "
            "the index timing, the numpy mirrors inside the mask timing"
        )

    if bench_json:
        write_bench_rows("R12", rows + index_rows)

    return join_sections(
        "=== R12: columnar substrate — vectorized kernels vs the row path ===",
        table.render(),
        index_table.render() if index_rows else "",
    )
