"""Metrics are a fold of the event stream.

*The log is sufficient*: over every scenario family the runtime and the
serving tier know, the registry rebuilt from the persisted JSONL exports
the same JSON and Prometheus text as the one the recorder folded live.
*Written in one place*: event fields are declared by ``EVENT_SCHEMA``,
each type's record class is generated from it, and every call site
builds that class positionally — no module but ``obs/events.py`` builds
an event field dict; metric names live in ``obs/fold.py``, and
``Recorder`` is ``record`` and ``emit``.  Recording folds nothing: the
registry folds its pending events when it is read.
"""

from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ObservabilityError
from repro.mediator.session import Mediator
from repro.obs import (
    EVENT_SCHEMA,
    EventLog,
    Recorder,
    metrics_from_events,
)
from repro.obs.events import EVENT_CLASSES
from repro.obs.fold import EVENT_FOLDS
from repro.optimize import FilterOptimizer, SJAOptimizer
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import (
    DataFaultProfile,
    FaultInjector,
    FaultProfile,
    Faults,
)
from repro.runtime.health import BreakerConfig, QuarantineConfig
from repro.serve import (
    ChurnWave,
    MediatorService,
    TenantSpec,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
)
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)
from repro.optimize.planning import Planning
from tests.property.strategies import synthetic_kits

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)
TENANTS = (TenantSpec("bronze", weight=1.0), TenantSpec("gold", weight=3.0))
SYNTHETIC = SyntheticConfig(
    n_sources=4, n_entities=120, coverage=(0.3, 0.7), seed=42
)
DIRTY = DataFaultProfile(stale_rate=0.6, corrupt_rate=0.4, duplicate_rate=0.3)


# ----------------------------------------------------------------------
# Scenarios: each returns the recorder a run reported into.


def _answer(federation, queries, **options) -> Recorder:
    recorder = Recorder()
    mediator = Mediator(federation, recorder=recorder, **options)
    for query in queries:
        mediator.answer(query)
    return recorder


def semijoins_runtime() -> Recorder:
    return _answer(
        build_synthetic(SYNTHETIC),
        [synthetic_query(SYNTHETIC, m=3, seed=7)],
        planning=Planning(optimizer=SJAOptimizer()),
        backend="runtime",
    )


def resilient() -> Recorder:
    return _answer(
        replicate_federation(dmv_fig1()[0], 2),
        [dmv_fig1()[1]],
        backend="runtime",
        faults=FaultInjector(default=FaultProfile.flaky(0.4), seed=7),
        resilience=Resilience(
            hedge_delay_s=2.0, breaker=BreakerConfig.aggressive()
        ),
        replan=2,
    )


def _untrusted(mode: str) -> Recorder:
    federation = replicate_federation(dmv_fig1()[0], 3)
    dirty = {
        name: FaultProfile(data=DIRTY)
        for name in federation.source_names
        if name.endswith("~1")
    }
    return _answer(
        federation,
        [dmv_fig1()[1]] * 8,
        backend="runtime",
        faults=FaultInjector(dirty, seed=5),
        resilience=Resilience(
            quarantine=QuarantineConfig.default() if mode == "vote" else None,
            load_balance=True,
            verify=mode,
        ),
        planning=Planning(optimizer=FilterOptimizer()),
    )


def sanitize() -> Recorder:
    return _untrusted("sanitize")


def vote_quarantine() -> Recorder:
    return _untrusted("vote")


def _budget(fraction: float) -> Recorder:
    """One engine run cut at ``fraction`` of its unconstrained makespan."""
    federation = build_synthetic(SYNTHETIC)
    recorder = Recorder()
    mediator = Mediator(
        federation, backend="runtime", recorder=recorder,
        planning=Planning(optimizer=SJAOptimizer()),
    )
    plan = mediator.plan(synthetic_query(SYNTHETIC, m=3, seed=7)).plan
    makespan_s = RuntimeEngine(federation).run(plan).makespan_s
    mediator.runtime.run(plan, budget_s=fraction * makespan_s)
    return recorder


def budget_spent() -> Recorder:
    return _budget(0.0)


def budget_mid_run() -> Recorder:
    return _budget(0.5)


def budget_ample() -> Recorder:
    return _budget(100.0)


def _serve(
    federation=None, count=16, rate_qps=4.0, deadline_s=None, seed=16,
    queries=(DMV_SQL,), **options,
) -> Recorder:
    service = MediatorService(
        federation or dmv_fig1()[0], tenants=TENANTS, seed=seed, **options
    )
    spec = WorkloadSpec(
        queries=queries, tenants=TENANTS, count=count, rate_qps=rate_qps,
        seed=seed, deadline_s=deadline_s,
    )
    run_workload(service, generate_arrivals(spec))
    assert service.recorder.metrics is service.metrics
    return service.recorder


def serve_calm() -> Recorder:
    return _serve(rate_qps=0.5)


def serve_churn() -> Recorder:
    return _serve(
        replicate_federation(dmv_fig1()[0], 2),
        count=24, rate_qps=2.0, deadline_s=1.0,
        faults=Faults(churn=ChurnWave(2.0, 8.0, ("R1", "R1~1", "R2", "R2~1"), rate=0.8)),
        shed_policy="none", queue_limit=64,
        resilience=Resilience(
            hedge_delay_s=2.0, breaker=BreakerConfig.default()
        ),
    )


def serve_starved() -> Recorder:
    return _serve(
        count=20, rate_qps=20.0, deadline_s=1.0,
        pool_slots=1, queue_limit=4, shed_policy="none",
    )


def _serve_overloaded(shed_policy: str) -> Recorder:
    return _serve(
        count=20, rate_qps=50.0, deadline_s=1.0, seed=2100,
        pool_slots=1, queue_limit=64, shed_policy=shed_policy,
    )


def serve_deadline_shed() -> Recorder:
    return _serve_overloaded("deadline")


def serve_deadline_noshed() -> Recorder:
    return _serve_overloaded("none")


def serve_anytime() -> Recorder:
    config = SyntheticConfig(n_sources=5, n_entities=120, seed=9)
    return _serve(
        build_synthetic(config),
        queries=tuple(
            synthetic_query(config, m=4, seed=s).to_sql() for s in (1, 2, 3)
        ),
        count=8, rate_qps=5.0, seed=4,
        planning=Planning(budget=8), plan_cache=False, queue_limit=64,
    )


SCENARIOS = [
    semijoins_runtime,
    resilient,
    sanitize,
    vote_quarantine,
    budget_spent,
    budget_mid_run,
    budget_ample,
    serve_calm,
    serve_churn,
    serve_starved,
    serve_deadline_shed,
    serve_deadline_noshed,
    serve_anytime,
]


@pytest.fixture(scope="module")
def recorders() -> dict[str, Recorder]:
    return {scenario.__name__: scenario() for scenario in SCENARIOS}


def assert_log_rebuilds_registry(recorder: Recorder) -> None:
    persisted = EventLog.from_jsonl(recorder.events.to_jsonl())
    rebuilt = metrics_from_events(persisted)
    assert rebuilt.to_json_text() == recorder.metrics.to_json_text()
    assert rebuilt.to_prometheus() == recorder.metrics.to_prometheus()


class TestTheLogIsSufficient:
    @pytest.mark.parametrize("name", [s.__name__ for s in SCENARIOS])
    def test_persisted_log_rebuilds_the_live_registry(self, recorders, name):
        recorder = recorders[name]
        assert len(recorder.events) > 0 and len(recorder.metrics) > 0
        assert_log_rebuilds_registry(recorder)

    def test_scenarios_emit_every_event_type(self, recorders):
        seen = {
            event.type
            for recorder in recorders.values()
            for event in recorder.events
        }
        assert seen == set(EVENT_SCHEMA)

    @given(
        kit=synthetic_kits(),
        query_seed=st.integers(0, 1000),
        fault_rate=st.sampled_from([0.0, 0.2, 0.5]),
        fault_seed=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_engine_runs_rebuild_from_their_log(
        self, kit, query_seed, fault_rate, fault_seed
    ):
        federation, config, m = kit
        recorder = _answer(
            federation,
            [synthetic_query(config, m=m, seed=query_seed)],
            backend="runtime",
            faults=FaultInjector(
                default=FaultProfile.flaky(fault_rate), seed=fault_seed
            ),
        )
        assert_log_rebuilds_registry(recorder)


# ----------------------------------------------------------------------
# Written in one place

ROOT = pathlib.Path(repro.__file__).parent


def _sources(*packages: str) -> dict[str, str]:
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for package in packages
        for path in sorted((ROOT / package).rglob("*.py"))
    }


#: Event class name -> class.
_CLASSES_BY_NAME = {cls.__name__: cls for cls in EVENT_CLASSES.values()}


def _event_constructions():
    """Every call of an event class by name, outside ``obs/events.py``."""
    for name, text in _sources("").items():
        if name == "obs/events.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _CLASSES_BY_NAME
            ):
                yield f"{name}:{node.lineno}", node


def _field_dicts(tree: ast.AST) -> list[int]:
    """Lines of dict displays spelling an event type's fields (with or
    without the ``round`` a recorder stamps)."""
    field_sets = [frozenset(fields) for fields in EVENT_SCHEMA.values()]
    field_sets += [fields - {"round"} for fields in field_sets]
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and all(isinstance(key, ast.Constant) for key in node.keys)
        and frozenset(key.value for key in node.keys) in field_sets
    ]


def _field_dict_builders(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module: keyword ``emit`` calls, ``_Record(...)`` calls and
    event field dict displays — every way to spell an event's fields
    by name."""
    offenders: dict[str, list[str]] = {}
    for name, text in sources.items():
        tree = ast.parse(text)
        found = [f"field dict at {line}" for line in _field_dicts(tree)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called == "_Record" or (called == "emit" and node.keywords):
                found.append(f"{called}(...) at {node.lineno}")
        if found:
            offenders[name] = found
    return offenders


class TestWrittenInOnePlace:
    def test_call_sites_emit_exactly_the_schema_fields_by_name(self):
        # Positionally, that is: ``ts`` and then one argument per schema
        # field, no keywords and no unpacking.
        checked = set()
        for where, call in _event_constructions():
            cls = _CLASSES_BY_NAME[call.func.id]
            assert not call.keywords, where
            assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
            assert len(call.args) == 1 + len(cls.FIELDS), where
            checked.add(cls.type)
        assert checked == set(EVENT_SCHEMA)

    def test_no_module_but_the_schema_builds_an_event_field_dict(self):
        sources = _sources("")
        del sources["obs/events.py"]
        assert _field_dict_builders(sources) == {}

    def test_the_field_dict_check_sees_each_spelling(self):
        text = (
            "log.emit(0.0, 'retry', step=1, source='R1', retries=1, at=2.0)\n"
            "records.append(_Record('retry', fields))\n"
            "fields = {'step': 1, 'source': 'R1', 'retries': 1, 'at': 2.0}\n"
            "other = {'step': 1, 'source': 'R1'}\n"
            "recorder.emit(0.0, 'retry', **fields)\n"
        )
        assert sorted(_field_dict_builders({"m.py": text})["m.py"]) == [
            "_Record(...) at 2",
            "emit(...) at 1",
            "emit(...) at 5",
            "field dict at 3",
        ]

    def test_metric_names_live_in_the_fold_module_only(self):
        sources = _sources("runtime", "mediator", "serve")
        sources["obs/recorder.py"] = (ROOT / "obs/recorder.py").read_text()
        offenders = []
        for name, text in sources.items():
            offenders += [
                f"{name}:{node.lineno}"
                for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith("repro_")
            ]
        assert offenders == []

    def test_every_event_type_has_a_fold(self):
        assert set(EVENT_FOLDS) == set(EVENT_SCHEMA)

    def test_recorder_is_emit_plus_the_two_observer_adaptors(self):
        public = {
            name
            for name, value in vars(Recorder).items()
            if callable(value) and not name.startswith("_")
        }
        assert public == {"record", "emit", "breaker_transition", "quarantine_changed"}

    def test_sequential_executor_builds_no_spans(self):
        text = (ROOT / "mediator/executor.py").read_text()
        assert "AttemptSpan" not in text and "OpSpan" not in text

    def test_sequential_executor_records_nothing(self):
        # The engine is the one path that records, clocks or injects
        # faults: the executor imports nothing from repro.obs (but the
        # type of ExecutionResult.profile, for annotations only) and
        # hands no record to anything.
        tree = ast.parse((ROOT / "mediator/executor.py").read_text())
        typing_only = {
            id(node)
            for block in ast.walk(tree)
            if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
            for node in ast.walk(block)
        }
        imports = [
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in typing_only
            for alias in node.names
        ]
        assert imports and not [name for name in imports if name.startswith("repro.obs")]
        records = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        ]
        assert records == []

    def test_round_is_stamped_from_the_recorder(self):
        recorder = Recorder()
        recorder.round = 3
        recorder.emit(
            1.0, "retry", step=1, source="R1", retries=1, at=2.0
        )
        assert recorder.events.events[-1]["round"] == 3


def _mixed_events(recorder: Recorder, count: int) -> None:
    """``count`` attempt / op / serve / retry events at rising times."""
    for i in range(count):
        ts, source = float(i), f"R{i % 3 + 1}"
        kind = i % 4
        if kind == 0:
            recorder.emit(
                ts, "attempt", step=i % 7, op="sq", planned=source,
                source=source, condition="", attempt=1, start=0.0,
                end=0.25 * (i % 5), fate="ok" if i % 3 else "failed",
                hedge=False, cost=2.0, items_sent=0, items_received=i % 11,
                rows_loaded=i % 2, messages=1,
            )
        elif kind == 1:
            recorder.emit(
                ts, "op", step=i % 7, op="sq", target=f"X{i % 7}",
                source=source, remote=bool(i % 2), condition="",
                queued=0.0, started=0.5, finished=1.0, status="ok",
                output=i % 5,
            )
        elif kind == 2:
            recorder.emit(
                ts, "serve", phase=("admitted", "completed")[i % 2],
                query=i, tenant="gold", queue_depth=i % 4,
                in_flight=i % 3, detail="", latency=0.5,
            )
        else:
            recorder.emit(
                ts, "retry", step=1, source=source, retries=1, at=ts + 1.0
            )


class TestFoldOnRead:
    def test_recording_folds_nothing_until_the_registry_is_read(self):
        recorder = Recorder()
        _mixed_events(recorder, 10_000)
        assert recorder.metrics._metrics == {}
        assert len(recorder.metrics._pending) == 10_000
        live = recorder.metrics.to_json_text()
        assert recorder.metrics._pending == []
        assert live == metrics_from_events(recorder.events).to_json_text()

    @pytest.mark.parametrize(
        "read",
        [
            lambda m: m.counter("repro_retries_total", source="R1"),
            lambda m: m.gauge("repro_serve_in_flight"),
            lambda m: m.histogram("repro_attempt_duration_s"),
            len,
            lambda m: m.to_json(),
            lambda m: m.to_prometheus(),
            lambda m: m._sorted(),
        ],
    )
    def test_every_reader_folds_first(self, read):
        recorder = Recorder()
        _mixed_events(recorder, 40)
        read(recorder.metrics)
        assert recorder.metrics._pending == []
        assert_log_rebuilds_registry(recorder)

    def test_reads_between_emits_fold_in_arrival_order(self):
        recorder = Recorder()
        for count in (5, 1, 13, 0, 21):
            _mixed_events(recorder, count)
            len(recorder.metrics)
        assert_log_rebuilds_registry(recorder)

    def test_a_fold_that_raises_surfaces_at_the_read_once(self):
        recorder = Recorder()
        # A negative count passes the schema; its counter cannot decrease.
        recorder.emit(
            1.0, "run_end", backend="runtime", makespan=1.0, retries=0,
            degraded=0, recovered=0, hedges=0, cost=1.0, items=-1,
        )
        assert len(recorder.events) == 1
        with pytest.raises(ObservabilityError, match="decrease"):
            recorder.metrics.to_json()
        assert recorder.metrics._pending == []
        assert "repro_makespan_s" in recorder.metrics.to_json()
