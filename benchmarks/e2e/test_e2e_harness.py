"""Harness tests for the R13 benchmark (collected by ``pytest benchmarks/``).

They check the measuring code, not the program: the percentile rule, the
calibration arithmetic, span self time, that one ``--smoke`` command emits
every declared metric for every workload, that counts repeat exactly, and
that a wrong answer is reported and fails the command.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
#: Metrics that must repeat exactly for one seed: every count, the plan
#: cache hit ratio, and the paper's total-work objective.
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + [
    "mediator.plan_cache_hit_ratio",
    "wire_cost_per_query",
]


def run(*args: str, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, timeout=120, check=False,
    )


def results(out: Path) -> dict[str, dict]:
    return {
        name: json.loads((out / f"results-{name}.json").read_text())
        for name in WORKLOAD_NAMES
    }


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[subprocess.CompletedProcess, Path]:
    out = tmp_path_factory.mktemp("e2e-smoke")
    return run("--seed", "16", out=out), out


# ----------------------------------------------------------------------
# Arithmetic


def test_percentiles_need_ten_samples_beyond():
    assert measure.samples_beyond(200, 95) == 10
    assert measure.samples_beyond(199, 95) == 9
    assert measure.supported_percentiles(19) == []
    assert measure.supported_percentiles(100) == [50, 90]
    assert measure.supported_percentiles(199) == [50, 90]
    assert measure.supported_percentiles(200) == [50, 90, 95]
    assert measure.supported_percentiles(1000) == [50, 90, 95, 99]


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert measure.percentile(values, 50) == 50.0
    assert measure.percentile(values, 95) == 95.0
    assert measure.percentile([3.0, 1.0, 2.0], 100) == 3.0


def test_calibration_arithmetic():
    ref = 2.0
    assert measure.speed_factor(2.0, 2.0, ref) == 1.0
    assert measure.speed_factor(2.0, 6.0, ref) == 2.0  # mean of the neighbours
    assert measure.calibrated(30.0, 2.0, 6.0, ref) == 15.0
    sample = measure.OpSample(raw_ms=30.0, cpu_ms=20.0, factor=1.5, queries=10)
    assert sample.latency_ms == pytest.approx(2.0)
    round_ = measure.Round(
        [sample, measure.OpSample(raw_ms=10.0, cpu_ms=10.0, factor=1.0, queries=10)], []
    )
    assert round_.calibrated_ms == pytest.approx(30.0)
    assert round_.factor == pytest.approx(40.0 / 30.0)


def test_self_time_with_nested_and_overlapping_children():
    Span = measure.Span
    spans = [
        Span(0, "root", 0, 100, -1, 0),
        Span(1, "a", 10, 40, 0, 0),       # child of root
        Span(2, "a.inner", 15, 25, 1, 0),  # grandchild: root must not count it twice
        Span(3, "b", 30, 60, 0, 0),       # overlaps a by 10
        Span(4, "c", 90, 120, 0, 0),      # runs past the parent: clipped at 100
    ]
    own = measure.self_times(spans)
    assert own[0] == 100 - (50 + 10)  # a ∪ b covers 10..60, c covers 90..100
    assert own[1] == 30 - 10
    assert own[2] == 10
    assert own[3] == 30
    assert own[4] == 30


def test_tracer_totals_agree_with_self_times():
    tracer = measure.Tracer()
    outer = tracer.enter("layer.outer")
    tracer.timed("layer.inner", sum, range(1000))
    tracer.leaf("layer.leaf", 7)
    tracer.exit(outer)
    own = measure.self_times(tracer.spans)
    by_name = {s.name: own[s.span_id] for s in tracer.spans}
    assert tracer.total("layer.inner").self_ns == by_name["layer.inner"]
    # The leaf wrote no span, but its time left the parent's self time.
    assert tracer.total("layer.outer").self_ns == by_name["layer.outer"] - 7
    assert [s.parent_id for s in tracer.spans] == [outer[0], -1]


# ----------------------------------------------------------------------
# The declared contract


def test_declared_names_and_limits():
    names = WORKLOAD_NAMES + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert list(LAYER_METRICS) == PER_LAYER
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)


def test_smoke_emits_every_metric_for_every_workload(smoke):
    done, out = smoke
    assert done.returncode == 0, done.stdout + done.stderr
    for name, report in results(out).items():
        assert list(report["end_to_end"]) == END_TO_END, name
        assert list(report["per_layer"]) == PER_LAYER, name
        assert report["failed"] == 0 and report["attempted"] > 0, name
        assert all(value > 0 for value in report["end_to_end"].values()), name
        assert report["per_layer"]["serve.shed"] == 0
        assert report["per_layer"]["bench.trace_attributed_frac"] >= 0.9, name
        assert f"== {name}" in done.stdout
    assert "failed_frac" in done.stdout


def test_every_output_file_carries_the_manifest(smoke):
    _, out = smoke
    for name in WORKLOAD_NAMES:
        for file in (out / f"results-{name}.json", out / f"trace-{name}.json"):
            manifest = json.loads(file.read_text())["manifest"]
            assert {"commit", "python", "numpy", "nproc", "cpu", "calib_ref_ms", "seed",
                    "PYTHONHASHSEED", "repro_env"} <= manifest.keys()
        trace = json.loads((out / f"trace-{name}.json").read_text())
        assert {"span_id", "name", "start_ns", "end_ns", "parent_id", "op_id"} == trace["spans"][0].keys()


def test_counts_repeat_exactly_for_one_seed(smoke, tmp_path):
    _, first_out = smoke
    again = run("--seed", "16", out=tmp_path)
    assert again.returncode == 0, again.stdout + again.stderr
    first, second = results(first_out), results(tmp_path)
    for name in WORKLOAD_NAMES:
        for metric in EXACT:
            kind = "end_to_end" if metric in END_TO_END else "per_layer"
            assert first[name][kind][metric] == second[name][kind][metric], (name, metric)


def test_another_seed_generates_other_queries():
    for name, workload in WORKLOADS.items():
        assert workload(16, smoke=True).sql_texts == workload(16, smoke=True).sql_texts
        assert workload(16, smoke=True).sql_texts != workload(17, smoke=True).sql_texts, name


def test_driver_contract_line(tmp_path):
    for trace, declared in (("0", END_TO_END), ("1", PER_LAYER)):
        done = run("--workload", "agg_groupby", "--seed", "5", "--seconds", "1",
                   "--trace", trace, out=tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == declared
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_a_wrong_expected_answer_fails_the_command(tmp_path):
    done = run("--workload", "scan_heavy", "--seed", "16", "--trace", "0",
               "--inject-wrong-answer", out=tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "failed_frac" in done.stdout
