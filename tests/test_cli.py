"""Unit tests for the ``python -m repro`` command line."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main
from repro.io import save_federation
from repro.mediator.reference import reference_answer
from repro.sources.generators import dmv_fig1, replicate_federation

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "dmv.json"
    assert main(["export-dmv", str(path)]) == 0
    return str(path)


class TestDemo:
    def test_demo_prints_answer(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "answer: J55, T21" in out


class TestQuery:
    def test_query_runs_and_prints_plan(self, spec_path, capsys):
        assert main(["query", spec_path, DMV_SQL]) == 0
        out = capsys.readouterr().out
        assert "J55, T21" in out
        assert "optimizer" in out

    @pytest.mark.parametrize("optimizer", ["filter", "sj", "sja", "sja+", "greedy"])
    def test_all_optimizers_available(self, spec_path, capsys, optimizer):
        assert main(
            ["query", spec_path, DMV_SQL, "--optimizer", optimizer]
        ) == 0
        assert "J55, T21" in capsys.readouterr().out

    def test_adaptive_execution(self, spec_path, capsys):
        assert main(["query", spec_path, DMV_SQL, "--adaptive"]) == 0
        out = capsys.readouterr().out
        assert "stage 1:" in out
        assert "J55, T21" in out

    def test_group_by_inside_a_literal_routes_as_fusion(self, spec_path, capsys):
        sql = DMV_SQL.replace("'dui'", "'x GROUP BY y'")
        assert main(["query", spec_path, sql]) == 0
        out = capsys.readouterr().out
        assert "answer: (empty)" in out

    def test_bad_sql_is_an_error(self, spec_path, capsys):
        assert main(["query", spec_path, "SELECT * FROM U"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_is_an_error(self, capsys):
        assert main(["query", "/does/not/exist.json", DMV_SQL]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json", "is not JSON"),
            ("{}", "missing key: 'schema'"),
            ("[]", "must be a JSON object, got list"),
            ('{"schema": [], "sources": []}', "must be a JSON object, got list"),
            (
                '{"schema": {"merge": "L", "attributes": [{"name": "L"}]},'
                ' "sources": [{"rows": []}]}',
                "source #1 has no 'name'",
            ),
        ],
        ids=["not-json", "no-schema", "list", "schema-list", "unnamed-source"],
    )
    def test_malformed_spec_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["query", str(path), DMV_SQL]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]


class TestExplain:
    def test_explain_prints_estimates(self, spec_path, capsys):
        assert main(["explain", spec_path, DMV_SQL]) == 0
        out = capsys.readouterr().out
        assert "estimated total cost" in out


class TestCheck:
    def test_fusion_query_detected(self, spec_path, capsys):
        assert main(["check", spec_path, DMV_SQL]) == 0
        assert "fusion query detected" in capsys.readouterr().out

    def test_non_fusion_rejected(self, spec_path, capsys):
        sql = "SELECT u1.L FROM U u1, U u2 WHERE u1.V = u2.V AND u1.D = 1 AND u2.D = 2"
        assert main(["check", spec_path, sql]) == 1
        assert "NOT a fusion query" in capsys.readouterr().out


class TestRuntimeBackend:
    """``query`` runs on the runtime engine; there is no other path."""

    def test_runtime_execution(self, spec_path, capsys):
        assert main(["query", spec_path, DMV_SQL]) == 0
        out = capsys.readouterr().out
        assert "J55, T21" in out
        assert "makespan" in out

    def test_runtime_with_timeline(self, spec_path, capsys):
        assert main(
            ["query", spec_path, DMV_SQL, "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "|" in out          # the ASCII timeline rows
        assert "util" in out       # the utilization report header

    def test_runtime_with_faults_reports_completeness(self, spec_path, capsys):
        assert main(
            [
                "query", spec_path, DMV_SQL,
                "--fault-rate", "0.4", "--fault-seed", "3", "--retries", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "completeness:" in out

    def test_runtime_fault_runs_are_seeded(self, spec_path, capsys):
        args = [
            "query", spec_path, DMV_SQL,
            "--fault-rate", "0.5", "--fault-seed", "9", "--retries", "2",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestTelemetry:
    def test_profile_flag_prints_rollups(self, spec_path, capsys):
        assert main(["query", spec_path, DMV_SQL, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "observed/predicted" in out

    def test_no_flags_no_telemetry(self, spec_path, capsys):
        assert main(["query", spec_path, DMV_SQL]) == 0
        out = capsys.readouterr().out
        assert "profile:" not in out
        assert "repro_runs_total" not in out

    def test_metrics_json(self, spec_path, capsys):
        assert main(["query", spec_path, DMV_SQL, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert '"repro_runs_total{backend=\\"runtime\\"}"' in out

    def test_metrics_prometheus(self, spec_path, capsys):
        assert main(
            ["query", spec_path, DMV_SQL, "--metrics", "prom"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runs_total counter" in out

    def test_emit_events_writes_valid_jsonl(self, spec_path, tmp_path, capsys):
        from repro.obs import EventLog

        log_path = str(tmp_path / "events.jsonl")
        assert main(
            ["query", spec_path, DMV_SQL, "--emit-events", log_path]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        log = EventLog.read(log_path)  # read() re-validates every line
        assert len(log) > 0
        assert log.of_type("run_end")

    def test_emit_events_deterministic(self, spec_path, tmp_path, capsys):
        paths = [str(tmp_path / f"events{i}.jsonl") for i in range(2)]
        for path in paths:
            assert main(
                [
                    "query", spec_path, DMV_SQL,
                    "--fault-rate", "0.4", "--fault-seed", "3",
                    "--emit-events", path,
                ]
            ) == 0
        capsys.readouterr()
        first, second = (open(path).read() for path in paths)
        assert first and first == second

    def test_adaptive_emit_events_is_one_run_per_stage(self, spec_path, tmp_path, capsys):
        from repro.obs import EventLog
        from repro.runtime.trace import RuntimeTrace

        log_path = str(tmp_path / "adaptive.jsonl")
        argv = ["query", spec_path, DMV_SQL, "--adaptive"]
        assert main([*argv, "--metrics", "prom", "--emit-events", log_path]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runs_total counter" in out
        assert f"to {log_path}" in out
        runs = RuntimeTrace.runs(EventLog.read(log_path))
        stages = [line for line in out.splitlines() if line.startswith("stage ")]
        assert len(runs) == len(stages) == 2
        assert [f"cost {trace.total_cost:.1f}" for trace in runs] == [
            line.rsplit(", ", 1)[1] for line in stages
        ]

    def test_observed_stats_closes_the_loop(self, spec_path, tmp_path, capsys):
        log_path = str(tmp_path / "warmup.jsonl")
        assert main(
            ["query", spec_path, DMV_SQL, "--emit-events", log_path]
        ) == 0
        baseline = capsys.readouterr().out
        assert main(
            ["query", spec_path, DMV_SQL, "--observed-stats", log_path]
        ) == 0
        out = capsys.readouterr().out
        assert "planning from observed statistics:" in out
        # the mined statistics still pick a correct plan
        assert "J55, T21" in out and "J55, T21" in baseline

    def test_runtime_backend_telemetry(self, spec_path, capsys):
        assert main(
            ["query", spec_path, DMV_SQL, "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "makespan" in out


class TestWorkload:
    def test_deterministic_workload(self, spec_path, capsys):
        assert main(
            [
                "workload", spec_path, DMV_SQL,
                "--count", "8", "--rate-qps", "8", "--seed", "5",
                "--pool-slots", "4",
                "--tenant", "bronze:1", "--tenant", "gold:3:8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "q/s" in out
        assert "tenant gold:" in out
        assert "plan cache:" in out

    def test_workload_replays_byte_identically(self, spec_path, capsys):
        outs = []
        for __ in range(2):
            assert main(
                [
                    "workload", spec_path, DMV_SQL,
                    "--count", "6", "--seed", "9",
                    "--fault-rate", "0.3", "--breaker",
                    "--churn", "0.2:1.5:R2:0.6",
                ]
            ) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_thread_mode_workload(self, spec_path, capsys):
        assert main(
            [
                "workload", spec_path, DMV_SQL,
                "--mode", "threads", "--workers", "2",
                "--count", "5", "--queue-limit", "32",
            ]
        ) == 0
        assert "5/5 completed" in capsys.readouterr().out

    def test_workers_without_thread_mode_is_refused(self, spec_path, capsys):
        # Only thread mode has a worker pool; the virtual clock would
        # silently ignore the flag.
        assert main(["workload", spec_path, DMV_SQL, "--workers", "2", "--count", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --workers would be ignored without --mode threads"
        ]

    def test_workload_emits_events(self, spec_path, tmp_path, capsys):
        path = str(tmp_path / "serve-events.jsonl")
        assert main(
            [
                "workload", spec_path, DMV_SQL,
                "--count", "4", "--emit-events", path,
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        from repro.obs.events import EventLog

        log = EventLog.read(path)  # re-validates every line
        assert {event.type for event in log} >= {"serve", "attempt"}

    def test_bad_tenant_flag_is_an_error(self, spec_path, capsys):
        assert main(
            ["workload", spec_path, DMV_SQL, "--tenant", "a:b:c"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_churn_flag_is_an_error(self, spec_path, capsys):
        assert main(
            ["workload", spec_path, DMV_SQL, "--churn", "oops"]
        ) == 2
        assert "error:" in capsys.readouterr().err


AGG_SQL = (
    "SELECT u1.V, COUNT(*), AVG(u1.D) FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp' "
    "GROUP BY u1.V"
)


class TestAggregateQuery:
    def test_aggregate_sql_is_auto_detected(self, spec_path, capsys):
        assert main(["query", spec_path, AGG_SQL]) == 0
        out = capsys.readouterr().out
        assert "aggregate node" in out
        assert "COUNT(*)" in out
        assert "1994.5" in out

    def test_aggregate_flag_and_pushdown_modes(self, spec_path, capsys):
        assert main(["query", spec_path, AGG_SQL, "--pushdown", "off"]) == 0
        out = capsys.readouterr().out
        assert "fetch" in out
        # Aggregate SQL is detected from the text; the flag is gone.
        with pytest.raises(SystemExit):
            main(["query", spec_path, AGG_SQL, "--aggregate"])

    def test_aggregate_under_runtime(self, spec_path, capsys):
        assert main(["query", spec_path, AGG_SQL]) == 0
        out = capsys.readouterr().out
        assert "aggregate node" in out
        assert "makespan" in out


class TestIgnoredFlagsRefused:
    """A flag the chosen run would not read exits 2 with one ``error:``
    line naming it, instead of a run identical to one without it."""

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("fusion", ["--profile", "--adaptive"]),
            ("fusion", ["--plan-cache", "--adaptive"]),
            ("fusion", ["--optimizer", "filter", "--adaptive"]),
            ("fusion", ["--search", "dp", "--adaptive"]),
            ("fusion", ["--beam-width", "4", "--adaptive"]),
            ("fusion", ["--robustness-lambda", "5", "--adaptive"]),
            ("fusion", ["--deadline", "1", "--adaptive"]),
            ("fusion", ["--timeline", "--adaptive"]),
            ("fusion", ["--replan", "2", "--adaptive"]),
            ("aggregate", ["--adaptive"]),
        ],
        ids=lambda value: "-".join(value).lstrip("-") if isinstance(value, list) else value,
    )
    def test_refused(self, spec_path, capsys, kind, flags):
        sql = {"fusion": DMV_SQL, "aggregate": AGG_SQL}[kind]
        assert main(["query", spec_path, sql, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].startswith(f"error: {flags[0]} would be ignored")
        assert lines[0].endswith("on an aggregate query" if kind == "aggregate" else "with --adaptive")

    def test_an_adaptive_planner_flag_at_its_default_is_accepted(self, spec_path, capsys):
        assert main(["query", spec_path, DMV_SQL, "--adaptive", "--optimizer", "sja+"]) == 0
        assert main(["query", spec_path, DMV_SQL, "--adaptive", "--beam-width", "8"]) == 0


#: The flags ``query`` once refused without a ``--runtime`` flag.
ENGINE_FLAGS = [
    ["--fault-rate", "0.3"],
    ["--data-faults", "stale=0.4"],
    ["--verify", "sanitize"],
    ["--quarantine"],
    ["--deadline", "0.5"],
    ["--fault-seed", "3"],
    ["--retries", "2"],
    ["--hedge-delay", "2.0"],
    ["--breaker", "aggressive"],
    ["--replan", "2"],
    ["--load-balance"],
    ["--timeline"],
]


class TestOneRunPath:
    """``query`` builds one engine-backed mediator from its flags: every
    resilience flag is read, and there is no backend flag."""

    @pytest.mark.parametrize("flags", ENGINE_FLAGS, ids=lambda flags: "-".join(flags).lstrip("-"))
    def test_an_engine_flag_is_read(self, spec_path, capsys, flags):
        assert main(["query", spec_path, DMV_SQL, *flags]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_an_engine_flag_is_read_on_an_aggregate_query(self, spec_path, capsys):
        assert main(["query", spec_path, AGG_SQL, "--retries", "2"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_there_is_no_backend_flag(self, spec_path, capsys):
        with pytest.raises(SystemExit):
            main(["query", spec_path, DMV_SQL, "--runtime"])
        assert "unrecognized arguments: --runtime" in capsys.readouterr().err

    def test_the_cli_has_one_run_path(self):
        # No second run function, no table of flags it refuses, and no
        # read of a backend flag.
        tree = ast.parse(Path(cli.__file__).read_text())
        defined = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        } | {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"RUNTIME_ONLY_FLAGS", "_run_runtime"}
        reads = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
            and node.attr == "runtime"
        ]
        assert reads == []

    @pytest.mark.parametrize("seed", range(8))
    def test_adaptive_stages_run_under_the_fault_flags(self, tmp_path, capsys, seed):
        # Mirrors stand in for a failed stage operation, so every answer
        # is a subset of the reference; the faults bite on every seed
        # (retries and lost attempts cost more than the fault-free 136).
        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 2)
        spec = str(tmp_path / "rep2.json")
        save_federation(federation, spec)
        argv = ["query", spec, DMV_SQL, "--adaptive", "--fault-rate", "0.4"]
        assert main([*argv, "--fault-seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        answer = next(line for line in lines if line.startswith("answer: "))
        items = set(answer.removeprefix("answer: ").split(", ")) - {"(empty)"}
        assert items <= set(reference_answer(federation, query))
        cost = float(lines[-1].split("actual cost ")[1].split(",")[0])
        assert cost > 136.0
