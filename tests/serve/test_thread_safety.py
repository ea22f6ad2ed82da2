"""Multi-thread hammer tests for the shared cross-query state.

These are the regression tests for the serving tier's prerequisite
bugfix: `PlanCache`, `ObservedStatistics`, `MetricsRegistry`, and
`HealthRegistry` are shared by every worker of a `MediatorService`,
so their mutations must be internally locked.  Each test spins up
many threads doing interleaved mutations and then checks the exact
invariants a single-threaded run would produce.
"""

from __future__ import annotations

import sys
import threading

from repro.mediator.plan_cache import PlanCache, query_fingerprint
from repro.obs.events import EventLog
from repro.obs.fold import metrics_from_events
from repro.obs.metrics import Histogram, MetricsRegistry, _label_text
from repro.obs.recorder import Recorder
from repro.runtime.health import (
    BreakerConfig,
    BreakerState,
    HealthRegistry,
)
from repro.runtime.trace import RuntimeTrace
from repro.serve.service import MediatorService
from repro.sources.observed import ObservedStatistics
from repro.sources.statistics import ExactStatistics

THREADS = 8
ROUNDS = 200
#: Seconds a hammer may take before its threads count as hung.
JOIN_TIMEOUT_S = 60.0


def hammer(worker):
    """Run ``worker(index)`` on THREADS threads; re-raise any failure."""
    errors = []

    def run(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
        assert not thread.is_alive(), f"{thread.name} still running"
    if errors:
        raise errors[0]


class TestPlanCacheHammer:
    def test_concurrent_get_put_never_corrupts(self, dmv_federation, dmv_query):
        cache = PlanCache(capacity=4)
        statistics = ExactStatistics(dmv_federation)
        source_sets = [
            ("R1",), ("R2",), ("R3",),
            ("R1", "R2"), ("R1", "R3"), ("R2", "R3"),
            ("R1", "R2", "R3"), ("R3", "R2"),
        ]

        def worker(index):
            for round_no in range(ROUNDS):
                sources = source_sets[(index + round_no) % len(source_sets)]
                cache.get(dmv_query, sources, statistics)
                cache.put(
                    dmv_query, sources, statistics, f"plan-{sources}"
                )

        hammer(worker)
        assert len(cache) <= 4
        assert cache.hits + cache.misses == THREADS * ROUNDS
        assert 0.0 <= cache.hit_rate <= 1.0


class TestObservedStatisticsHammer:
    def test_concurrent_observe_and_fingerprint(self):
        log = EventLog()
        log.emit(
            0.0, "attempt",
            round=0, step=1, op="sq", planned="R1", source="R1",
            condition="V = 'x'", attempt=1, start=0.0, end=0.1,
            fate="ok", hedge=False, cost=1.0, items_sent=0,
            items_received=5, rows_loaded=0, messages=2,
        )
        log.emit(
            0.2, "attempt",
            round=0, step=2, op="lq", planned="R2", source="R2",
            condition="", attempt=1, start=0.1, end=0.2,
            fate="ok", hedge=False, cost=2.0, items_sent=0,
            items_received=0, rows_loaded=9, messages=1,
        )
        for step, op, source, condition, start, end, output in (
            (1, "sq", "R1", "V = 'x'", 0.0, 0.1, 5),
            (2, "lq", "R2", "", 0.1, 0.2, 9),
        ):
            log.emit(
                end, "op",
                round=0, step=step, op=op, target=f"X{step}", source=source,
                remote=True, condition=condition, queued=start,
                started=start, finished=end, status="ok", output=output,
            )
        traces = RuntimeTrace.runs(log)
        statistics = ObservedStatistics()

        def worker(index):
            for __ in range(ROUNDS):
                mined = statistics.observe(traces)
                assert mined == 2
                statistics.fingerprint()
                statistics.universe_size()
                statistics.distinct_items("R1")

        hammer(worker)
        assert statistics.observations == THREADS * ROUNDS * 2
        version = int(statistics.fingerprint().rsplit(":v", 1)[1])
        assert version == THREADS * ROUNDS


class TestMetricsRegistryHammer:
    def test_concurrent_counters_and_histograms(self):
        registry = MetricsRegistry()

        def worker(index):
            for round_no in range(ROUNDS):
                registry.counter("hammer_total", thread=str(index)).inc()
                registry.counter("hammer_total", thread="shared").inc()
                registry.gauge("hammer_depth").set(float(round_no))
                registry.histogram("hammer_s").observe(0.1)
                if round_no % 50 == 0:
                    registry.to_json()

        hammer(worker)
        shared = registry.counter("hammer_total", thread="shared")
        assert shared.value == THREADS * ROUNDS
        histogram = registry.histogram("hammer_s")
        assert histogram.count == THREADS * ROUNDS
        assert sum(histogram.counts) == histogram.count


class TestSharedRegistryFoldHammer:
    """Thread mode: every worker's recorder queues events on the one
    service registry while a reader folds and exports it."""

    def test_no_event_is_lost_or_folded_twice(self):
        shared = MetricsRegistry()
        recorders = [Recorder(metrics=shared) for __ in range(THREADS)]
        done = threading.Event()
        reader_errors = []

        def read():
            try:
                while not done.is_set():
                    shared.to_json()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                reader_errors.append(exc)

        def worker(index):
            recorder = recorders[index]
            source = f"R{index % 3 + 1}"
            for round_no in range(ROUNDS):
                ts = float(round_no)
                recorder.emit(
                    ts, "attempt", step=round_no, op="sq", planned=source,
                    source=source, condition="", attempt=1, start=0.0,
                    end=0.5, fate="ok" if round_no % 4 else "failed",
                    hedge=False, cost=1.5, items_sent=1, items_received=2,
                    rows_loaded=round_no % 2, messages=1,
                )
                recorder.emit(
                    ts, "op", step=round_no, op="sq", target="X",
                    source=source, remote=True, condition="", queued=0.0,
                    started=0.25, finished=0.5, status="ok", output=2,
                )
                recorder.emit(
                    ts, "serve", phase="completed", query=round_no,
                    tenant=f"t{index}", queue_depth=0, in_flight=1,
                    detail="", latency=0.75,
                )

        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            try:
                hammer(worker)
            finally:
                done.set()
                reader.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        if reader_errors:
            raise reader_errors[0]

        live = shared.to_json()
        rebuilt = metrics_from_events(
            event for recorder in recorders for event in recorder.events
        )
        compared = 0
        for metric in rebuilt._sorted():
            if metric.kind == "gauge":
                continue  # last writer wins: depends on the interleaving
            entry = live[metric.name + _label_text(metric.labels)]
            if isinstance(metric, Histogram):
                assert entry["counts"] == metric.counts
                assert (entry["count"], entry["sum"]) == (metric.count, metric.sum)
            else:
                assert entry["value"] == metric.value
            compared += 1
        assert compared > 0
        assert len(live) == len(rebuilt)
        assert shared.counter(
            "repro_attempts_total", source="R1", fate="ok"
        ).value == 3 * ROUNDS * 3 / 4


class TestHealthRegistryHammer:
    def test_concurrent_records_and_breaker_transitions(self):
        registry = HealthRegistry(BreakerConfig.default())
        sources = ["R1", "R2", "R3", "R4"]

        def worker(index):
            for round_no in range(ROUNDS):
                source = sources[(index + round_no) % len(sources)]
                now = float(round_no)
                if registry.allow(source, now):
                    ok = (index + round_no) % 3 != 0
                    registry.record(source, now, ok, 0.05)
                else:
                    registry.reopens_at(source)
                registry.state_of(source)
                if round_no % 50 == 0:
                    registry.snapshot()

        hammer(worker)
        snap = registry.snapshot()
        assert set(snap) == set(sources)
        for info in snap.values():
            assert info["attempts"] == info["successes"] + info["failures"]


class TestQuarantineHammer:
    def test_concurrent_quality_records_and_quarantine(self):
        registry = HealthRegistry(None, quarantine=True)
        # Half the sources always lie, half never do; every thread
        # hammers all of them plus the read paths.
        liars = ["L1", "L2"]
        honest = ["H1", "H2"]

        def worker(index):
            for round_no in range(ROUNDS):
                now = float(round_no)
                for name in honest:
                    registry.record_quality(
                        name, now, clean=True, delivered=4, kept=4
                    )
                for name in liars:
                    registry.record_quality(
                        name, now, clean=False, delivered=4, kept=2
                    )
                for name in honest + liars:
                    registry.allow(name, now)
                    registry.quality_score(name)
                    registry.state_of(name)
                if round_no % 50 == 0:
                    registry.quarantined_names()
                    registry.snapshot()

        hammer(worker)
        total = THREADS * ROUNDS
        for name in honest:
            quality = registry.quality_of(name)
            assert quality.answers == total
            assert quality.clean == total
            assert registry.quality_score(name) == 1.0
            assert registry.state_of(name) is not BreakerState.QUARANTINED
        for name in liars:
            quality = registry.quality_of(name)
            assert quality.answers == total
            assert quality.clean == 0
            assert registry.state_of(name) is BreakerState.QUARANTINED
            assert not registry.allow(name, 1e12)
        assert set(registry.quarantined_names()) == set(liars)


class TestSpanLogHammer:
    def test_concurrent_appends_and_exports(self):
        from repro.obs.spans import (
            Span,
            SpanLog,
            derive_trace_id,
            validate_chrome_trace,
        )

        log = SpanLog()

        def worker(index):
            trace = derive_trace_id(99, index)
            for round_no in range(ROUNDS):
                log.add(
                    Span(
                        trace_id=trace,
                        span_id=round_no + 1,
                        parent_id=1 if round_no else None,
                        name="query" if round_no == 0 else "op",
                        category="query" if round_no == 0 else "execute",
                        start_s=float(round_no),
                        end_s=float(round_no) + 0.5,
                    )
                )
                # Concurrent readers must never see torn state.
                assert len(log.for_trace(trace)) >= round_no + 1
                if round_no % 50 == 0:
                    log.to_chrome_trace()

        hammer(worker)
        assert len(log) == THREADS * ROUNDS
        assert len(log.trace_ids()) == THREADS
        assert validate_chrome_trace(log.to_chrome_trace()) == len(log)

    def test_concurrent_service_recorders_share_one_log(self):
        # Thread mode has every worker append to the service's one
        # SpanLog in whole batches — a trace's rendered engine subtree,
        # then its serve skeleton; hammer that exact shape.
        from itertools import groupby

        from repro.obs.events import EventLog
        from repro.obs.spans import (
            SpanLog,
            derive_trace_id,
            execute_spans,
            serve_spans,
            validate_chrome_trace,
        )
        from repro.runtime.trace import RuntimeTrace

        log = SpanLog()
        rounds = ROUNDS // 4
        events = EventLog()
        for step in (1, 2, 3):
            events.emit(
                0.7, "attempt", round=0, step=step, op="sq", planned="R1",
                source="R1", condition="", attempt=1, start=0.0, end=0.5,
                fate="ok", hedge=False, cost=1.0, items_sent=0,
                items_received=0, rows_loaded=0, messages=1,
            )
            events.emit(
                0.7, "op", round=0, step=step, op="sq", target="X1",
                source="R1", remote=True, condition="", queued=0.0,
                started=0.0, finished=0.5, status="ok", output=1,
            )
        run = RuntimeTrace.from_events(events)

        def worker(index):
            for round_no in range(rounds):
                trace = derive_trace_id(index, round_no)
                log.extend(execute_spans(trace, (run,), 0.2)[0])
                log.extend(
                    serve_spans(
                        trace, round_no, "hammer", "done",
                        submitted_s=0.0, planned_s=0.1, plan_elapsed_s=0.0,
                        dispatched_s=0.2, completed_s=1.0,
                    )
                )
                assert len(log.for_trace(trace)) == 13

        hammer(worker)
        assert len(log) == THREADS * rounds * 13
        assert len(log.trace_ids()) == THREADS * rounds
        # A batch lands whole: no other thread's spans ever split the
        # six engine spans or the seven skeleton spans of a trace.
        runs = [
            len(list(group))
            for __, group in groupby(log.spans, key=lambda s: s.trace_id)
        ]
        assert set(runs) <= {6, 7, 13}
        assert validate_chrome_trace(log.to_chrome_trace()) == len(log)


class TestPlanCacheHitFlag:
    """Each served query's hit flag is its own lookup's answer, not a
    reading of the shared counter that a sibling worker also moves."""

    #: Worker A's query: never planned before, so its lookup misses.
    MISS_SQL = (
        "SELECT u1.L FROM U u1, U u2 "
        "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sr'"
    )
    #: Worker B's query: planned once up front, so its lookup hits.
    HIT_SQL = (
        "SELECT u1.L FROM U u1, U u2 "
        "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
    )

    class StagedCache(PlanCache):
        """Once armed, holds a missing lookup until a hitting one has
        answered, so B's hit lands while A's lookup is in flight."""

        def __init__(self):
            super().__init__()
            self.armed = False
            self.miss_waiting = threading.Event()
            self.hit_answered = threading.Event()
            self.answers: dict[str, bool] = {}
            self.timed_out = False

        def get(self, query, sources, statistics):
            result = super().get(query, sources, statistics)
            if self.armed:
                if result is None:
                    self.miss_waiting.set()
                    self.timed_out |= not self.hit_answered.wait(JOIN_TIMEOUT_S)
                else:
                    self.timed_out |= not self.miss_waiting.wait(JOIN_TIMEOUT_S)
                    self.hit_answered.set()
                self.answers[query_fingerprint(query)] = result is not None
            return result

    def test_a_miss_stays_a_miss_while_a_sibling_hits(self, dmv_federation):
        cache = self.StagedCache()
        service = MediatorService(
            dmv_federation, mode="threads", workers=2, plan_cache=cache
        )
        try:
            service.submit(self.HIT_SQL)
            service.drain(timeout_s=JOIN_TIMEOUT_S)
            cache.armed = True
            missed = service.submit(self.MISS_SQL)
            hit = service.submit(self.HIT_SQL)
            service.drain(timeout_s=JOIN_TIMEOUT_S)
        finally:
            service.close()
        assert not cache.timed_out, "the two lookups never overlapped"
        parse = service._make_mediator(Recorder()).parse
        assert cache.answers == {
            query_fingerprint(parse(self.MISS_SQL)): False,
            query_fingerprint(parse(self.HIT_SQL)): True,
        }
        assert (missed.plan_cache_hit, hit.plan_cache_hit) == (False, True)
        labels = {
            event.query: event.cache
            for event in service.recorder.events.of_type("plan")
        }
        assert (labels[missed.seq], labels[hit.seq]) == ("miss", "hit")
        plan_spans = {
            span.trace_id: span.attributes["cache"]
            for span in service.spans
            if span.name == "plan"
        }
        assert plan_spans[missed.trace_id] == "miss"
        assert plan_spans[hit.trace_id] == "hit"
