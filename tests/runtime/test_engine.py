"""Unit tests for the discrete-event concurrent engine."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
import pathlib
import threading

import pytest

import repro
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.errors import ExecutionError, FusionError
from repro.mediator.executor import Executor
from repro.mediator.plan_cache import PlanCache
from repro.mediator.reference import reference_answer
from repro.mediator.schedule import response_time
from repro.mediator.session import Mediator
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.plans.builder import build_filter_plan
from repro.plans.operations import (
    IntersectOp,
    LoadOp,
    LocalSelectionOp,
    SelectionOp,
    UnionOp,
)
from repro.plans.plan import Plan
from repro.runtime.engine import Resilience, RuntimeEngine, _Execution
from repro.runtime.faults import (
    AttemptFate,
    DataFaultProfile,
    FaultInjector,
    FaultProfile,
)
from repro.runtime.health import BreakerConfig, HealthRegistry, QuarantineConfig
from repro.runtime.policy import OnExhaust, RetryPolicy
from repro.runtime.trace import OpStatus
from repro.sources.generators import (
    DMV_FIG1_ANSWER,
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.statistics import ExactStatistics


@pytest.fixture
def dmv_kit():
    federation, query = dmv_fig1()
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    return federation, query, estimator


@pytest.fixture
def synthetic_kit():
    config = SyntheticConfig(
        n_sources=5,
        n_entities=150,
        coverage=(0.3, 0.6),
        overhead_range=(5.0, 20.0),
        receive_range=(1.0, 3.0),
        seed=31,
    )
    federation = build_synthetic(config)
    query = synthetic_query(config, m=3, seed=17)
    estimator = SizeEstimator(
        ExactStatistics(federation), federation.source_names
    )
    return federation, query, estimator


def plans_for(federation, query, estimator):
    cost_model = ChargeCostModel.for_federation(federation, estimator)
    names = federation.source_names
    return {
        "FILTER": build_filter_plan(query, names),
        "SJ": SJOptimizer().optimize(query, names, cost_model, estimator).plan,
        "SJA": SJAOptimizer().optimize(query, names, cost_model, estimator).plan,
    }


class TestZeroFaultCrossValidation:
    """The acceptance criterion: simulated == predicted under zero faults."""

    @pytest.mark.parametrize("kit_name", ["dmv_kit", "synthetic_kit"])
    def test_makespan_matches_schedule(self, kit_name, request):
        federation, query, estimator = request.getfixturevalue(kit_name)
        expected = reference_answer(federation, query)
        engine = RuntimeEngine(federation)
        for label, plan in plans_for(federation, query, estimator).items():
            federation.reset_traffic()
            predicted = response_time(plan, Executor(federation).execute(plan))
            federation.reset_traffic()
            simulated = engine.run(plan)
            assert simulated.makespan_s == pytest.approx(
                predicted.makespan_s, abs=1e-12
            ), f"{label} plan diverged"
            assert simulated.items == expected, f"{label} wrong answer"
            assert simulated.complete

    def test_same_cost_and_messages_as_sequential(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        federation.reset_traffic()
        sequential = Executor(federation).execute(plan)
        federation.reset_traffic()
        concurrent = RuntimeEngine(federation).run(plan)
        assert concurrent.trace.total_cost == pytest.approx(
            sequential.total_cost
        )
        assert concurrent.trace.total_messages == sequential.total_messages

    def test_same_source_ops_never_overlap(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        result = RuntimeEngine(federation).run(plan)
        for spans in result.trace.by_source().values():
            ordered = sorted(spans, key=lambda s: s.started_s)
            for earlier, later in zip(ordered, ordered[1:]):
                assert later.started_s >= earlier.finished_s - 1e-12

    def test_different_sources_overlap(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        result = RuntimeEngine(federation).run(plan)
        first_finish = min(s.finished_s for s in result.trace.remote_spans)
        overlapping = [
            s for s in result.trace.remote_spans if s.started_s < first_finish
        ]
        assert len(overlapping) == len(federation.source_names)


class TestRetries:
    def test_transient_failures_retried_to_success(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.5), seed=5),
            resilience=Resilience(
                policy=RetryPolicy(max_retries=8, backoff_base_s=0.05),
            ),
        )
        result = engine.run(plan)
        assert result.items == DMV_FIG1_ANSWER
        assert result.trace.total_retries > 0
        assert result.complete

    def test_backoff_gap_between_attempts(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        policy = RetryPolicy(max_retries=8, backoff_base_s=0.25)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.5), seed=5),
            resilience=Resilience(policy=policy),
        )
        result = engine.run(plan)
        retried = [s for s in result.trace.remote_spans if s.retries]
        assert retried
        for span in retried:
            for a, b in zip(span.attempts, span.attempts[1:]):
                gap = b.start_s - a.end_s
                assert gap >= policy.backoff_s(a.attempt) - 1e-12

    def test_failed_attempts_are_charged(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        federation.reset_traffic()
        clean_cost = RuntimeEngine(federation).run(plan).trace.total_cost
        federation.reset_traffic()
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(0.5), seed=5),
            resilience=Resilience(
                policy=RetryPolicy(max_retries=8, backoff_base_s=0.05),
            ),
        )
        faulty = engine.run(plan)
        assert faulty.trace.total_retries > 0
        assert faulty.trace.total_cost > clean_cost


class TestDegradationAndFailure:
    def test_skip_degrades_to_partial_answer(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(
                {"R1": FaultProfile.flaky(1.0)}, seed=0
            ),
            resilience=Resilience(policy=RetryPolicy.no_retry()),
        )
        result = engine.run(plan)
        assert not result.complete
        assert result.degraded_steps
        # R1's ops degraded to empty sets: subset of the truth, never more.
        assert result.items <= DMV_FIG1_ANSWER

    def test_fail_mode_raises(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(FaultProfile.flaky(1.0), seed=0),
            resilience=Resilience(
                policy=RetryPolicy.no_retry(on_exhaust=OnExhaust.FAIL),
            ),
        )
        with pytest.raises(ExecutionError, match="failed after 0 retries"):
            engine.run(plan)

    def test_timeout_cuts_off_stalls(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(
                FaultProfile(stall_rate=1.0, stall_s=60.0), seed=0
            ),
            resilience=Resilience(
                policy=RetryPolicy(
                    max_retries=0, timeout_s=2.0, on_exhaust=OnExhaust.SKIP
                ),
            ),
        )
        result = engine.run(plan)
        fates = {
            a.fate for s in result.trace.remote_spans for a in s.attempts
        }
        assert fates == {AttemptFate.TIMEOUT}
        for span in result.trace.remote_spans:
            assert span.attempts[-1].duration_s == pytest.approx(2.0)

    def test_outage_window_fails_fast_then_recovers(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector(
                {"R1": FaultProfile(outages=((0.0, 5.0),))}, seed=0
            ),
            resilience=Resilience(
                policy=RetryPolicy(max_retries=10, backoff_base_s=2.0),
            ),
        )
        result = engine.run(plan)
        assert result.items == DMV_FIG1_ANSWER
        outage_fates = [
            a.fate
            for s in result.trace.remote_spans
            if s.source == "R1"
            for a in s.attempts
        ]
        assert AttemptFate.OUTAGE in outage_fates
        assert outage_fates[-1] is AttemptFate.OK

    def test_degraded_load_yields_empty_relation(self, dmv_kit):
        federation, query, __ = dmv_kit
        c1, c2 = query.conditions
        plan = Plan(
            [
                LoadOp("T1", "R1"),
                LocalSelectionOp("A", c1, "T1"),
                LocalSelectionOp("B", c2, "T1"),
                IntersectOp("X", ("A", "B")),
                SelectionOp("Y", c1, "R2"),
                UnionOp("Z", ("X", "Y")),
            ],
            result="Z",
        )
        engine = RuntimeEngine(
            federation,
            faults=FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0),
            resilience=Resilience(policy=RetryPolicy.no_retry()),
        )
        result = engine.run(plan)
        load_span = result.trace.spans[0]
        assert load_span.status is OpStatus.DEGRADED
        assert load_span.output_size == 0
        # R2's selection still contributes its c1 matches.
        assert result.items == frozenset({"T21"})


class TestDeterminismAndProjection:
    def test_identical_runs_replay_exactly(self, synthetic_kit):
        federation, query, estimator = synthetic_kit
        plan = plans_for(federation, query, estimator)["SJA"]

        def run():
            federation.reset_traffic()
            engine = RuntimeEngine(
                federation,
                faults=FaultInjector(FaultProfile.flaky(0.3), seed=99),
                resilience=Resilience(
                    policy=RetryPolicy(max_retries=3, backoff_base_s=0.1),
                ),
            )
            return engine.run(plan)

        first, second = run(), run()
        assert first.items == second.items
        assert first.makespan_s == second.makespan_s
        assert first.trace.spans == second.trace.spans

    def test_to_execution_result_projection(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        result = RuntimeEngine(federation).run(plan)
        projected = result.to_execution_result()
        assert projected.items == result.items
        assert len(projected.steps) == len(plan)
        assert projected.total_cost == pytest.approx(result.trace.total_cost)
        assert projected.total_messages == result.trace.total_messages

    def test_result_repr_and_summary(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        result = RuntimeEngine(federation).run(plan)
        assert "2 items" in repr(result)
        assert "makespan" in result.summary()


class TestResilienceValue:
    """The six response knobs are one frozen value, validated once."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"hedge_delay_s": -1},
            {"hedge_delay_s": float("nan")},
            {"verify": "maybe"},
            {"breaker": True},
            {"quarantine": True},
            {"policy": None},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_field_raises_a_library_error_at_construction(self, bad):
        with pytest.raises(FusionError):
            Resilience(**bad)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Resilience().hedge_delay_s = 1.0

    def test_engine_reads_every_field_of_the_value(self, dmv_kit):
        federation, __, __ = dmv_kit
        value = Resilience(
            policy=RetryPolicy.no_retry(),
            hedge_delay_s=2.0,
            breaker=BreakerConfig.aggressive(),
            quarantine=QuarantineConfig.default(),
            load_balance=True,
            verify="sanitize",
        )
        engine = RuntimeEngine(federation, value)
        assert engine.resilience is value
        for field in dataclasses.fields(Resilience):
            if field.name not in ("breaker", "quarantine"):
                assert getattr(engine, field.name) is getattr(value, field.name)
        assert engine.health.config is value.breaker
        assert engine.health.quarantine is value.quarantine
        assert engine.verifier is not None

    def test_shared_registry_keeps_its_own_configuration(self, dmv_kit):
        federation, __, __ = dmv_kit
        shared = HealthRegistry()
        engine = RuntimeEngine(
            federation,
            Resilience(breaker=BreakerConfig.default()),
            health=shared,
        )
        assert engine.health is shared and not engine.resilient

    def test_per_run_injector_does_not_touch_the_engine(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(
            federation, Resilience(policy=RetryPolicy.no_retry())
        )
        own = engine.faults
        dead = FaultInjector({"R1": FaultProfile.flaky(1.0)}, seed=0)
        assert engine.run(plan, faults=dead).degraded_steps
        assert dead.attempts > 0 and own.attempts == 0
        assert engine.faults is own
        assert engine.run(plan).items == DMV_FIG1_ANSWER


#: Classes that consume a knob rather than re-declare it.
CONSUMERS = {"HealthRegistry"}
#: ``Executor(max_retries=)`` has no effect; the wall-clock benchmark
#: (benchmarks/e2e/layers.py) passes it, so the keyword stays.
RETRY_COUNTERS = {"RetryPolicy", "Executor"}


def _declarations():
    """``(owner, name)`` for every function parameter and annotated
    class field under ``src/repro``; the owner is the enclosing class,
    or ``module:function`` for free functions."""
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    for stmt in child.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Name
                        ):
                            yield child.name, stmt.target.id
                    yield from visit(child, child.name)
                    continue
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    scope = owner or f"{module}:{getattr(child, 'name', 'lambda')}"
                    args = child.args
                    for arg in args.posonlyargs + args.args + args.kwonlyargs:
                        yield scope, arg.arg
                    yield from visit(child, scope)
                    continue
                yield from visit(child, owner)

        yield from visit(ast.parse(path.read_text()), None)


def _trees(*relative):
    root = pathlib.Path(repro.__file__).parent
    for name in relative:
        target = root / name
        paths = [target] if target.is_file() else sorted(target.rglob("*.py"))
        for path in paths:
            yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def _owners() -> dict[str, set[str]]:
    owners: dict[str, set[str]] = {}
    for owner, name in _declarations():
        owners.setdefault(name, set()).add(owner)
    return owners


class TestResilienceDeclaredOnce:
    def test_each_knob_is_declared_by_resilience_alone(self):
        owners = _owners()
        for knob in ("hedge_delay_s", "load_balance", "quarantine", "breaker"):
            assert owners[knob] - CONSUMERS == {"Resilience"}, knob
        assert {f.name for f in dataclasses.fields(Resilience)} == {
            "policy", "hedge_delay_s", "breaker", "quarantine",
            "load_balance", "verify",
        }

    def test_removed_keywords_stay_removed(self):
        owners = _owners()
        assert "retry_policy" not in owners
        assert "mediator_options" not in owners
        assert owners["max_retries"] <= RETRY_COUNTERS

    def test_one_fault_model_one_retry_loop(self):
        """Faults come from :mod:`repro.runtime.faults` alone and only the
        engine retries: no wrapper hook raises a transient error, and no
        ``while`` loop tries a call until it stops raising a library
        error (a ``try`` that leaves the loop on success).  The serving
        loops that fail a ticket and pop the next one are not retries."""
        assert not hasattr(repro.errors, "SourceUnavailableError")
        assert not hasattr(repro.sources, "FailureInjector")
        parameters = inspect.signature(RemoteSource.__init__).parameters
        assert list(parameters) == ["self", "table", "capabilities", "link"]
        library_errors = {
            name
            for name, value in vars(repro.errors).items()
            if isinstance(value, type) and issubclass(value, Exception)
        }

        def caught(handler):
            kinds = handler.type
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            return {getattr(kind, "id", getattr(kind, "attr", None)) for kind in kinds}

        def leaves_on_success(node):
            return any(
                isinstance(inner, (ast.Break, ast.Return))
                for stmt in node.body + node.orelse
                for inner in ast.walk(stmt)
            )

        loops = [
            f"{name}:{node.lineno}"
            for name, tree in _trees("")
            for loop in ast.walk(tree)
            if isinstance(loop, ast.While)
            for node in ast.walk(loop)
            if isinstance(node, ast.Try)
            and leaves_on_success(node)
            and any(caught(h) & library_errors for h in node.handlers)
        ]
        assert loops == []

    def test_no_bool_sugar_is_coerced_outside_plan_cache_of(self):
        sugared = {"breaker", "quarantine", "plan_cache"}
        found = []
        for name, tree in _trees(""):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                names = {
                    getattr(o, "id", getattr(o, "attr", None)) for o in operands
                }
                bools = [
                    o for o in operands
                    if isinstance(o, ast.Constant) and isinstance(o.value, bool)
                ]
                if bools and names & sugared:
                    found.append(f"{name}:{node.lineno}")
        assert found == []
        assert PlanCache.of(True).capacity == PlanCache().capacity
        assert PlanCache.of(7).capacity == 7
        assert PlanCache.of(False) is None and PlanCache.of(None) is None

    def test_a_mediator_builds_exactly_one_engine(self):
        calls = [
            f"{name}:{node.lineno}"
            for name, tree in _trees("mediator", "runtime/replan.py")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "RuntimeEngine"
        ]
        assert len(calls) == 1 and calls[0].startswith("mediator/session.py")


def _within(seconds, function):
    """``function()``, run in a daemon thread so a hang fails the test
    instead of the suite."""
    box = {}

    def target():
        try:
            box["value"] = function()
        except Exception as exc:  # re-raised in the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _refused_steps(result, source):
    degraded = {
        span.step: span.source
        for span in result.trace.spans
        if span.status is OpStatus.DEGRADED
    }
    assert degraded and set(degraded.values()) == {source}
    return sorted(degraded)


class TestParkedTasksGiveUp:
    """A dispatch refused with nothing in its run left to wake it
    degrades as if its retries were spent — it never hangs the run and
    never ends it with ``runtime deadlock``."""

    def _lying_r1(self, federation, **resilience):
        return RuntimeEngine(
            federation,
            Resilience(verify="sanitize", quarantine=QuarantineConfig(), **resilience),
            faults=FaultInjector(
                {"R1": FaultProfile(data=DataFaultProfile.corrupting(1.0))}, seed=0
            ),
        )

    def test_sticky_quarantine_degrades_instead_of_hanging(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = self._lying_r1(federation)
        assert sorted(engine.run(plan).items) == ["T21"]
        # R1's third tainted answer quarantines it for good mid-run; its
        # next step is refused and used to wait for a lift at t = inf.
        second = _within(10, lambda: engine.run(plan))
        assert engine.health.quarantined_names() == ("R1",)
        assert _refused_steps(second, "R1") == [5]
        assert second.items <= reference_answer(federation, query)
        third = _within(10, lambda: engine.run(plan))
        assert _refused_steps(third, "R1") == [1, 5]
        assert all(
            not span.attempts for span in third.trace.spans if span.source == "R1"
        )

    def test_fail_policy_names_the_refusal(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = self._lying_r1(
            federation, policy=RetryPolicy(on_exhaust=OnExhaust.FAIL)
        )
        engine.run(plan)
        with pytest.raises(ExecutionError, match=r"refused by R1 \(quarantined\)"):
            _within(10, lambda: engine.run(plan))

    def test_probe_held_by_another_run_degrades_instead_of_deadlocking(self, dmv_kit):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        shared = HealthRegistry(BreakerConfig.aggressive())
        shared.record("R1", 0.0, False, 0.1)
        shared.record("R1", 0.0, False, 0.1)
        # Another worker's engine takes R1's one half-open probe; its
        # completion would never reach this run's event heap.
        assert shared.allow("R1", 5.0)
        result = _within(10, lambda: RuntimeEngine(federation, health=shared).run(plan))
        assert _refused_steps(result, "R1") == [1, 5]
        assert result.items <= reference_answer(federation, query)


class _Refusals(HealthRegistry):
    """A registry reporting fixed refusal end times for every source."""

    def __init__(self, reopens, lifts):
        super().__init__()
        self._times = (reopens, lifts)

    def reopens_at(self, source_name):
        return self._times[0]

    def quarantine_lifts_at(self, source_name):
        return self._times[1]


class TestWaitWrittenInOnePlace:
    """Parking, waking, giving up and dispatching each have one path."""

    def test_the_folded_helpers_are_gone(self):
        for name in (
            "_server_may_free", "_give_up_deadline",
            "_handle_dispatch_wake", "_drain_blocked", "_call_wrapper",
        ):
            assert not hasattr(_Execution, name), name

    def test_load_balance_is_read_in_one_method(self):
        (tree,) = [tree for __, tree in _trees("runtime/engine.py")]
        (execution,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "_Execution"
        ]
        readers = [
            method.name
            for method in execution.body
            if isinstance(method, ast.FunctionDef)
            and any(
                isinstance(node, ast.Attribute) and node.attr == "load_balance"
                for node in ast.walk(method)
            )
        ]
        assert readers == ["_members"]

    @pytest.mark.parametrize(
        "reopens, lifts, wake",
        [
            (None, math.inf, None),
            (0.5, math.inf, None),
            (None, None, None),
            (0.5, None, None),
            (3.0, None, 3.0),
            (3.0, math.inf, 3.0),
            (3.0, 4.0, 3.0),
            (None, 4.0, 4.0),
            (0.5, 4.0, 4.0),
        ],
    )
    def test_block_wakes_only_at_a_finite_time(self, dmv_kit, reopens, lifts, wake):
        federation, query, __ = dmv_kit
        plan = build_filter_plan(query, federation.source_names)
        engine = RuntimeEngine(federation, health=_Refusals(reopens, lifts))
        execution = _Execution(engine, plan)
        task = execution.tasks[0]
        execution._block(task, 1.0)
        assert execution.blocked == [task]
        wakes = [(t, payload) for t, __, kind, payload in execution.heap if kind == "dispatch"]
        assert wakes == ([] if wake is None else [(wake, (task,))])


def _engine_methods_where(predicate):
    """``Class.method`` of every engine method with a node matching
    ``predicate``, in source order."""
    (tree,) = [tree for __, tree in _trees("runtime/engine.py")]
    return [
        f"{cls.name}.{method.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and any(predicate(node) for node in ast.walk(method))
    ]


def _calls(attr):
    return lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    )


class TestReplicaChoiceWrittenInOnePlace:
    """A replica is chosen, a confirmation continued and a connection
    owned in one place each."""

    def test_the_merged_helpers_are_gone(self):
        for name in (
            "_confirm_pending", "_start_confirmation", "_confirm_failed",
            "_confirm_target", "_maybe_hedge_on_failure",
        ):
            assert not hasattr(_Execution, name), name
        assert not hasattr(Federation, "substitutes_for")

    def test_health_allow_is_asked_by_dispatch_and_the_chooser(self):
        assert _engine_methods_where(_calls("allow")) == [
            "_Execution._start_attempt", "_Execution._free_replica",
        ]

    def test_one_predicate_says_whose_connection_it_is(self):
        assert _engine_methods_where(_calls("holds")) == [
            "_Execution._free_replica", "_Execution._launch",
            "_Execution._cancel", "_Execution._handle_complete",
        ]
        reads = _engine_methods_where(
            lambda node: isinstance(node, ast.Attribute)
            and node.attr == "slot_released"
            and isinstance(node.ctx, ast.Load)
        )
        assert reads == [
            "_Task.holds", "_Execution._release_slot", "_Execution._finish_remote",
        ]

    def test_replanning_reads_the_engines_substitutability_map(self, monkeypatch):
        federation = replicate_federation(dmv_fig1()[0], 2)
        executor = Mediator(federation, backend="runtime", replan=2).replanner
        assert executor.engine.substitutes_for("R1") == ("R1~1",)  # built once

        def rebuilt(*args, **kwargs):
            raise AssertionError("the substitutability map was rebuilt")

        monkeypatch.setattr(Federation, "substitutability", rebuilt)
        assert executor._replacement("R1", ["R2", "R3"], ["R1"]) == "R1~1"
