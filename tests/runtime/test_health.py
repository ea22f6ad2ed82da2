"""Unit tests for per-source health tracking and circuit breakers."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.runtime.engine import Resilience
from repro.runtime.health import (
    BREAKER_MIN_VOLUME,
    HEALTH_WINDOW,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    HealthRegistry,
    SourceHealth,
)


def make_breaker(**kwargs) -> CircuitBreaker:
    config = BreakerConfig(**kwargs)
    return CircuitBreaker(config, SourceHealth())


class TestBreakerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"failure_threshold": 2.5},
            {"failure_rate_to_open": float("nan")},
            {"failure_rate_to_open": -0.1},
            {"failure_rate_to_open": 0.0},
            {"failure_rate_to_open": 1.5},
            {"cooldown_s": -1.0},
            {"cooldown_s": float("inf")},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(CostModelError):
            BreakerConfig(**kwargs)

    def test_presets_valid(self):
        assert BreakerConfig.default().failure_threshold == 3
        aggressive = BreakerConfig.aggressive()
        assert aggressive.failure_threshold == 2
        assert aggressive.cooldown_s == 5.0


class TestSourceHealth:
    def test_rolling_window_statistics(self):
        assert HEALTH_WINDOW == 20
        health = SourceHealth()
        for ok in [False] * 5 + [True] * 17:
            health.record(ok, 1.0)
        # The window holds the last 20: three failures, 17 successes.
        assert health.volume == 20
        assert health.failure_rate == pytest.approx(3 / 20)
        assert health.attempts == 22
        assert health.failures == 5
        assert health.busy_s == pytest.approx(22.0)

    def test_empty_window_rates_are_zero(self):
        health = SourceHealth()
        assert health.failure_rate == 0.0
        assert health.mean_latency_s == 0.0

    def test_mean_latency(self):
        health = SourceHealth()
        health.record(True, 1.0)
        health.record(True, 3.0)
        assert health.mean_latency_s == pytest.approx(2.0)


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures(self):
        breaker = make_breaker(failure_threshold=3)
        for i in range(2):
            breaker.record_failure(float(i), 0.1)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2.0, 0.1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 1

    def test_success_resets_consecutive_count(self):
        breaker = make_breaker(failure_threshold=2)
        breaker.record_failure(0.0, 0.1)
        breaker.record_success(1.0, 0.1)
        breaker.record_failure(2.0, 0.1)
        assert breaker.state is BreakerState.CLOSED

    def test_trips_on_windowed_failure_rate(self):
        assert BREAKER_MIN_VOLUME == 5
        breaker = make_breaker(failure_threshold=100, failure_rate_to_open=0.5)
        # Alternate so consecutive failures never accumulate.
        breaker.record_failure(0.0, 0.1)
        breaker.record_success(1.0, 0.1)
        breaker.record_failure(2.0, 0.1)
        breaker.record_success(3.0, 0.1)
        assert breaker.state is BreakerState.CLOSED  # volume 4 < min 5
        breaker.record_failure(4.0, 0.1)
        assert breaker.state is BreakerState.OPEN  # rate 3/5 >= 0.5

    def test_open_blocks_until_cooldown_then_half_opens(self):
        breaker = make_breaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(5.0, 0.1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.reopens_at_s == pytest.approx(15.0)
        assert not breaker.allow(14.9)
        assert breaker.allow(15.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_limits_probes(self):
        breaker = make_breaker(failure_threshold=1, cooldown_s=0.0)
        breaker.record_failure(0.0, 0.1)
        assert breaker.allow(1.0)  # the one probe
        assert not breaker.allow(1.0)  # second concurrent probe refused
        assert breaker.reopens_at_s is None  # not OPEN: no wake time

    def test_probe_success_closes(self):
        breaker = make_breaker(failure_threshold=1, cooldown_s=0.0)
        breaker.record_failure(0.0, 0.1)
        assert breaker.allow(1.0)
        breaker.record_success(2.0, 0.1)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(2.0)

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = make_breaker(failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0, 0.1)
        assert breaker.allow(10.0)
        breaker.record_failure(11.0, 0.1)
        assert breaker.state is BreakerState.OPEN
        assert breaker.reopens_at_s == pytest.approx(21.0)
        assert breaker.times_opened == 2

    def test_abandon_returns_probe_slot(self):
        breaker = make_breaker(failure_threshold=1, cooldown_s=0.0)
        breaker.record_failure(0.0, 0.1)
        assert breaker.allow(1.0)
        breaker.abandon()  # the probe was cancelled, not answered
        assert breaker.allow(1.0)  # slot is available again


class TestHealthRegistry:
    def test_disabled_registry_tracks_but_always_allows(self):
        registry = HealthRegistry()
        assert not registry.enabled
        for __ in range(10):
            registry.record("R1", 0.0, ok=False, duration_s=0.1)
        assert registry.allow("R1", 0.0)
        assert registry.state_of("R1") is BreakerState.CLOSED
        assert registry.health_of("R1").failures == 10

    def test_enabled_registry_trips_and_reroutes(self):
        registry = HealthRegistry(BreakerConfig(failure_threshold=2))
        registry.record("R1", 0.0, ok=False, duration_s=0.1)
        registry.record("R1", 1.0, ok=False, duration_s=0.1)
        assert registry.state_of("R1") is BreakerState.OPEN
        assert not registry.allow("R1", 1.0)
        assert registry.allow("R2", 1.0)  # other sources unaffected
        assert registry.reopens_at("R1") == pytest.approx(
            1.0 + BreakerConfig().cooldown_s
        )

    def test_report_lists_sources_and_states(self):
        registry = HealthRegistry(BreakerConfig(failure_threshold=1))
        registry.record("R1", 0.0, ok=False, duration_s=0.1)
        registry.record("R2", 0.0, ok=True, duration_s=0.1)
        report = registry.report()
        assert "R1" in report and "R2" in report
        assert "open" in report


class TestSnapshot:
    def test_snapshot_exposes_per_source_health(self):
        registry = HealthRegistry(BreakerConfig(failure_threshold=2))
        registry.record("R1", 0.0, ok=False, duration_s=0.1)
        registry.record("R1", 1.0, ok=False, duration_s=0.3)
        registry.record("R2", 0.0, ok=True, duration_s=0.2)
        snapshot = registry.snapshot()
        assert sorted(snapshot) == ["R1", "R2"]
        r1 = snapshot["R1"]
        assert r1["attempts"] == 2
        assert r1["failures"] == 2
        assert r1["successes"] == 0
        assert r1["failure_rate"] == pytest.approx(1.0)
        assert r1["busy_s"] == pytest.approx(0.4)
        assert r1["state"] == "open"
        assert r1["times_opened"] == 1
        r2 = snapshot["R2"]
        assert r2["failure_rate"] == pytest.approx(0.0)
        assert r2["state"] == "closed"
        assert r2["times_opened"] == 0

    def test_disabled_breaker_reads_closed(self):
        registry = HealthRegistry()
        registry.record("R1", 0.0, ok=False, duration_s=0.1)
        snapshot = registry.snapshot()
        assert snapshot["R1"]["state"] == "closed"
        assert snapshot["R1"]["times_opened"] == 0


class TestTransitionObserver:
    def test_observer_sees_every_transition(self):
        seen = []
        registry = HealthRegistry(
            BreakerConfig(failure_threshold=1, cooldown_s=5.0)
        )
        registry.observer = lambda now_s, source, old, new: seen.append(
            (now_s, source, old, new)
        )
        registry.record("R1", 0.0, ok=False, duration_s=0.1)  # trips
        assert registry.allow("R1", 6.0)  # cooldown over -> half-open
        registry.record("R1", 6.5, ok=True, duration_s=0.1)  # closes
        assert seen == [
            (0.0, "R1", "closed", "open"),
            (6.0, "R1", "open", "half-open"),
            (6.5, "R1", "half-open", "closed"),
        ]

    def test_observer_attachable_after_breaker_exists(self):
        registry = HealthRegistry(BreakerConfig(failure_threshold=1))
        assert registry.breaker_of("R1") is not None
        seen = []
        registry.observer = lambda *args: seen.append(args)
        registry.record("R1", 0.0, ok=False, duration_s=0.1)
        assert len(seen) == 1


class TestQuarantine:
    """Registry-level data-quality quarantine: sticky once tripped."""

    def registry(self) -> HealthRegistry:
        return HealthRegistry(None, quarantine=True)

    def taint(self, registry, name, count, now_s=0.0):
        for __ in range(count):
            registry.record_quality(
                name, now_s, clean=False, delivered=4, kept=2
            )

    def test_config_validation(self):
        # Quarantine is on or off; a former config object or None is
        # rejected instead of silently read as a truth value.
        for value in (None, 1, "on"):
            with pytest.raises(CostModelError, match="quarantine must be a bool"):
                Resilience(quarantine=value)

    def test_clean_answers_never_quarantine(self):
        registry = self.registry()
        for __ in range(20):
            registry.record_quality(
                "R1", 0.0, clean=True, delivered=4, kept=4
            )
        assert registry.quarantined_names() == ()
        assert registry.quality_score("R1") == 1.0

    def test_persistent_taint_trips_after_min_volume(self):
        registry = self.registry()
        self.taint(registry, "R1", 2)
        assert registry.quarantined_names() == ()  # volume 2 < 3
        self.taint(registry, "R1", 1)
        assert registry.quarantined_names() == ("R1",)
        assert registry.state_of("R1") is BreakerState.QUARANTINED

    def test_prior_shields_a_cold_source(self):
        # Two clean pseudo-answers join the score: two clean answers and
        # one bad one score (2 + 2) / (2 + 3) = 0.8, not below the 0.8
        # threshold, though the raw clean fraction is 2/3.
        registry = self.registry()
        for __ in range(2):
            registry.record_quality("R1", 0.0, clean=True, delivered=4, kept=4)
        self.taint(registry, "R1", 1)
        assert registry.quality_score("R1") == pytest.approx(0.8)
        assert registry.quarantined_names() == ()
        self.taint(registry, "R1", 1)  # 4/6 < 0.8
        assert registry.quarantined_names() == ("R1",)

    def test_sticky_quarantine_never_lifts(self):
        registry = self.registry()
        self.taint(registry, "R1", 5)
        assert not registry.allow("R1", 1e12)
        for __ in range(50):  # clean answers from a vote do not release it
            registry.record_quality("R1", 1e12, clean=True, delivered=4, kept=4)
        assert registry.quarantined_names() == ("R1",)
        assert registry.quality_of("R1").times_quarantined == 1

    def test_quality_observer_sees_the_one_enter(self):
        registry = self.registry()
        seen = []
        registry.quality_observer = (
            lambda now, name, action, score, answers: seen.append(
                (now, name, action, answers)
            )
        )
        self.taint(registry, "R1", 4, now_s=1.0)
        registry.allow("R1", 1e12)
        assert seen == [(1.0, "R1", "enter", 3)]

    def test_snapshot_and_report_show_quality(self):
        registry = self.registry()
        self.taint(registry, "R1", 4)
        snapshot = registry.snapshot()["R1"]
        assert snapshot["state"] == "quarantined"
        report = registry.report()
        assert "quarantined" in report
