"""Per-source health tracking and circuit breakers on the virtual clock.

Retrying a dead source buys nothing but wire traffic and makespan; the
classic remedy is a *circuit breaker* per source.  A
:class:`CircuitBreaker` watches the rolling attempt history kept by
:class:`SourceHealth` and moves through three states:

* **CLOSED** — normal operation; every dispatch is allowed.
* **OPEN** — the source tripped (too many consecutive failures, or the
  rolling failure rate crossed the threshold with enough volume).  New
  dispatches are refused, so the engine reroutes them to healthy
  replicas instead of burning the retry budget.
* **HALF_OPEN** — the cooldown elapsed; one probe attempt is let
  through.  A probe success closes the breaker, a probe failure
  re-opens it for another cooldown.

Breakers only see *wire* failures — a source that answers promptly with
stale or corrupt data looks perfectly healthy to them.  The registry
therefore also keeps a per-source **data-quality score** fed by the
answer verifier (:mod:`repro.runtime.verify`): the shrunk fraction of
its verified answers that arrived clean.  With quarantine on, once a source
has served :data:`QUARANTINE_MIN_VOLUME` verified answers and its score
drops below :data:`QUARANTINE_THRESHOLD`, it enters a fourth state,
**QUARANTINED** — every dispatch is refused (like OPEN, but tripped on
quality, not errors) for the rest of the registry's life: quarantine is
sticky.

Everything is driven by the engine's virtual clock and the seeded fault
streams — no wall-clock, no hidden randomness — so runs with breakers
enabled replay byte-identically.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import deque
from dataclasses import dataclass

from repro.errors import CostModelError


#: Recent attempts kept per source for the rolling failure rate.
HEALTH_WINDOW = 20
#: Attempts in the window before the breaker's rate rule may trip.
BREAKER_MIN_VOLUME = 5


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs of one circuit breaker.

    Attributes:
        failure_threshold: Consecutive failures that trip the breaker.
        failure_rate_to_open: Rolling failure rate that trips it (once
            :data:`BREAKER_MIN_VOLUME` attempts are in the window).
        cooldown_s: Virtual time an open breaker waits before allowing
            its one half-open probe.
    """

    failure_threshold: int = 3
    failure_rate_to_open: float = 0.5
    cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if not isinstance(self.failure_threshold, int) or self.failure_threshold < 1:
            raise CostModelError(
                "failure_threshold must be a positive integer, got "
                f"{self.failure_threshold!r}"
            )
        if not (
            math.isfinite(self.failure_rate_to_open)
            and 0.0 < self.failure_rate_to_open <= 1.0
        ):
            raise CostModelError(
                "failure_rate_to_open must be in (0, 1], got "
                f"{self.failure_rate_to_open}"
            )
        if not (math.isfinite(self.cooldown_s) and self.cooldown_s >= 0):
            raise CostModelError(
                f"cooldown_s must be finite and non-negative, got {self.cooldown_s}"
            )

    @staticmethod
    def default() -> "BreakerConfig":
        return BreakerConfig()

    @staticmethod
    def aggressive() -> "BreakerConfig":
        """Trip fast, probe soon — for very flaky federations."""
        return BreakerConfig(
            failure_threshold=2, failure_rate_to_open=0.34, cooldown_s=5.0
        )


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"
    #: Refused on *data quality*, not wire errors; registry-level.
    QUARANTINED = "quarantined"


#: Quarantine trips once the shrunk clean-answer fraction falls below this.
QUARANTINE_THRESHOLD = 0.8
#: Verified answers a source serves before its score may trip quarantine.
QUARANTINE_MIN_VOLUME = 3
#: Pseudo-count of clean answers blended into the score, so one bad
#: answer from a cold source does not instantly quarantine it.
QUALITY_PRIOR_WEIGHT = 2.0


class DataQuality:
    """Per-source data-quality counters fed by the answer verifier."""

    def __init__(self) -> None:
        self.answers = 0
        self.clean = 0
        self.items_delivered = 0
        self.items_kept = 0
        self.times_quarantined = 0

    def record(self, clean: bool, delivered: int, kept: int) -> None:
        self.answers += 1
        if clean:
            self.clean += 1
        self.items_delivered += delivered
        self.items_kept += kept

    @property
    def tainted(self) -> int:
        return self.answers - self.clean

    @property
    def score(self) -> float:
        """Shrunk clean-answer fraction."""
        return (QUALITY_PRIOR_WEIGHT + self.clean) / (
            QUALITY_PRIOR_WEIGHT + self.answers
        )


class SourceHealth:
    """Rolling failure/latency statistics of one source.

    Records the last :data:`HEALTH_WINDOW` attempts as
    ``(ok, duration_s)`` pairs plus lifetime counters; used by the
    breaker's rate rule and by the registry report.
    """

    def __init__(self) -> None:
        self._recent: deque[tuple[bool, float]] = deque(maxlen=HEALTH_WINDOW)
        self.attempts = 0
        self.failures = 0
        self.busy_s = 0.0

    def record(self, ok: bool, duration_s: float) -> None:
        self._recent.append((ok, duration_s))
        self.attempts += 1
        self.busy_s += duration_s
        if not ok:
            self.failures += 1

    @property
    def volume(self) -> int:
        """Attempts currently in the rolling window."""
        return len(self._recent)

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the rolling window (0.0 when empty)."""
        if not self._recent:
            return 0.0
        return sum(1 for ok, __ in self._recent if not ok) / len(self._recent)

    @property
    def mean_latency_s(self) -> float:
        """Mean attempt duration over the rolling window."""
        if not self._recent:
            return 0.0
        return sum(duration for __, duration in self._recent) / len(self._recent)


class CircuitBreaker:
    """One source's breaker state machine on the virtual clock.

    ``notify`` (optional) is called as ``notify(now_s, old, new)`` with
    the state *values* on every transition — the registry uses it to
    forward transitions to an attached telemetry observer.
    """

    def __init__(
        self,
        config: BreakerConfig,
        health: SourceHealth,
        notify=None,
    ):
        self.config = config
        self.health = health
        self.notify = notify
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: float | None = None
        self.probing = False
        self.times_opened = 0

    def _transition(self, now_s: float, new_state: BreakerState) -> None:
        if new_state is self.state:
            return
        old = self.state
        self.state = new_state
        if self.notify is not None:
            self.notify(now_s, old.value, new_state.value)

    @property
    def reopens_at_s(self) -> float | None:
        """When an OPEN breaker becomes probe-able (None if not open)."""
        if self.state is not BreakerState.OPEN:
            return None
        assert self.opened_at_s is not None
        return self.opened_at_s + self.config.cooldown_s

    def allow(self, now_s: float) -> bool:
        """Whether a dispatch to this source may start at ``now_s``.

        Transitions OPEN -> HALF_OPEN once the cooldown has elapsed and
        then admits one probe at a time; callers must follow every
        allowed dispatch with exactly one :meth:`record_success` /
        :meth:`record_failure` (or :meth:`abandon`).
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            reopens = self.reopens_at_s
            assert reopens is not None
            if now_s + 1e-12 < reopens:
                return False
            self._transition(now_s, BreakerState.HALF_OPEN)
            self.probing = False
        # HALF_OPEN: admit one probe at a time.
        if self.probing:
            return False
        self.probing = True
        return True

    def record_success(self, now_s: float, duration_s: float) -> None:
        self.health.record(True, duration_s)
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.probing = False
            self._transition(now_s, BreakerState.CLOSED)
            self.opened_at_s = None

    def abandon(self) -> None:
        """Release an admitted dispatch that never ran to completion.

        Hedged dispatch can cancel an in-flight attempt when its sibling
        wins the race; the attempt then reports neither success nor
        failure, but if it was admitted as a half-open probe its slot
        must be returned or the breaker would starve.
        """
        if self.state is BreakerState.HALF_OPEN:
            self.probing = False

    def record_failure(self, now_s: float, duration_s: float) -> None:
        self.health.record(False, duration_s)
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self.probing = False
            self._trip(now_s)
            return
        if self.state is BreakerState.CLOSED and self._should_trip():
            self._trip(now_s)

    def _should_trip(self) -> bool:
        if self.consecutive_failures >= self.config.failure_threshold:
            return True
        return (
            self.health.volume >= BREAKER_MIN_VOLUME
            and self.health.failure_rate >= self.config.failure_rate_to_open
        )

    def _trip(self, now_s: float) -> None:
        self._transition(now_s, BreakerState.OPEN)
        self.opened_at_s = now_s
        self.times_opened += 1


class HealthRegistry:
    """Health stats and (optional) breakers for every source.

    Created once per :class:`~repro.runtime.engine.RuntimeEngine`, so
    breaker knowledge persists across plans and re-planning rounds run
    on the same engine.  With ``config=None`` the registry still tracks
    health but every dispatch is allowed (breakers disabled).

    The registry is thread-safe: a :class:`~repro.serve.MediatorService`
    shares one registry across every worker so a breaker tripped by one
    query reroutes the next, and ``allow``/``record`` mutate breaker
    state.  A single reentrant lock guards the maps and every state
    machine; individual :class:`SourceHealth`/:class:`CircuitBreaker`
    objects are only ever touched with it held.
    """

    def __init__(
        self, config: BreakerConfig | None = None, quarantine: bool = False
    ):
        self.config = config
        self.quarantine = quarantine
        self._health: dict[str, SourceHealth] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._quality: dict[str, DataQuality] = {}
        self._quarantined: set[str] = set()
        self._lock = threading.RLock()
        #: Optional transition observer, called as
        #: ``observer(now_s, source, old_state, new_state)`` with the
        #: state values.  Checked at call time, so it may be attached
        #: after breakers already exist.
        self.observer = None
        #: Optional quarantine observer, called as
        #: ``quality_observer(now_s, source, "enter", score, answers)``.
        self.quality_observer = None

    @property
    def enabled(self) -> bool:
        return self.config is not None

    def health_of(self, source_name: str) -> SourceHealth:
        with self._lock:
            health = self._health.get(source_name)
            if health is None:
                health = SourceHealth()
                self._health[source_name] = health
            return health

    def breaker_of(self, source_name: str) -> CircuitBreaker | None:
        if self.config is None:
            return None
        with self._lock:
            breaker = self._breakers.get(source_name)
            if breaker is None:

                def notify(now_s, old, new, name=source_name):
                    if self.observer is not None:
                        self.observer(now_s, name, old, new)

                breaker = CircuitBreaker(
                    self.config, self.health_of(source_name), notify=notify
                )
                self._breakers[source_name] = breaker
            return breaker

    def quality_of(self, source_name: str) -> DataQuality:
        with self._lock:
            quality = self._quality.get(source_name)
            if quality is None:
                quality = DataQuality()
                self._quality[source_name] = quality
            return quality

    def record_quality(
        self,
        source_name: str,
        now_s: float,
        *,
        clean: bool,
        delivered: int = 0,
        kept: int = 0,
    ) -> None:
        """Fold one verified answer into the source's quality score.

        Called by the answer verifier for every checked answer; with
        quarantine on, may quarantine the source for good once its score
        falls below :data:`QUARANTINE_THRESHOLD`.
        """
        with self._lock:
            quality = self.quality_of(source_name)
            quality.record(clean, delivered, kept)
            if (
                self.quarantine
                and source_name not in self._quarantined
                and quality.answers >= QUARANTINE_MIN_VOLUME
                and quality.score < QUARANTINE_THRESHOLD
            ):
                self._enter_quarantine(source_name, now_s)

    def _enter_quarantine(self, source_name: str, now_s: float) -> None:
        quality = self.quality_of(source_name)
        breaker = self._breakers.get(source_name)
        old = breaker.state if breaker else BreakerState.CLOSED
        self._quarantined.add(source_name)
        quality.times_quarantined += 1
        if self.observer is not None:
            self.observer(
                now_s, source_name, old.value, BreakerState.QUARANTINED.value
            )
        if self.quality_observer is not None:
            self.quality_observer(
                now_s, source_name, "enter", quality.score, quality.answers
            )

    def quality_score(self, source_name: str) -> float:
        """The source's current shrunk clean-answer fraction."""
        with self._lock:
            quality = self._quality.get(source_name)
            return 1.0 if quality is None else quality.score

    def quarantined_names(self) -> tuple[str, ...]:
        """Currently quarantined sources, sorted."""
        with self._lock:
            return tuple(sorted(self._quarantined))

    def allow(self, source_name: str, now_s: float) -> bool:
        with self._lock:
            if source_name in self._quarantined:
                return False
            breaker = self.breaker_of(source_name)
            return True if breaker is None else breaker.allow(now_s)

    def reopens_at(self, source_name: str) -> float | None:
        with self._lock:
            breaker = self.breaker_of(source_name)
            return None if breaker is None else breaker.reopens_at_s

    def abandon(self, source_name: str) -> None:
        """Return a probe slot for a cancelled (raced-out) dispatch."""
        with self._lock:
            breaker = self.breaker_of(source_name)
            if breaker is not None:
                breaker.abandon()

    def record(
        self, source_name: str, now_s: float, ok: bool, duration_s: float
    ) -> None:
        with self._lock:
            breaker = self.breaker_of(source_name)
            if breaker is None:
                self.health_of(source_name).record(ok, duration_s)
            elif ok:
                breaker.record_success(now_s, duration_s)
            else:
                breaker.record_failure(now_s, duration_s)

    def state_of(self, source_name: str) -> BreakerState:
        with self._lock:
            if source_name in self._quarantined:
                return BreakerState.QUARANTINED
            breaker = self.breaker_of(source_name)
            return BreakerState.CLOSED if breaker is None else breaker.state

    def times_opened(self) -> int:
        """Lifetime breaker openings, summed over every source (the
        ``times_opened`` column of :meth:`snapshot`, without building it)."""
        with self._lock:
            return sum(breaker.times_opened for breaker in self._breakers.values())

    def snapshot(self) -> dict[str, dict]:
        """Per-source health as plain data (tests and telemetry read
        this instead of poking registry internals).

        Keys are the sources seen so far; each value holds lifetime
        ``attempts`` / ``successes`` / ``failures``, rolling-window
        ``failure_rate`` and ``mean_latency_s``, total ``busy_s``, and
        the breaker's ``state`` / ``times_opened`` (a disabled breaker
        reads as permanently closed, never opened).
        """
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for name in sorted(set(self._health) | set(self._quality)):
            health = self._health.get(name) or SourceHealth()
            breaker = self._breakers.get(name)
            quality = self._quality.get(name)
            if name in self._quarantined:
                state = BreakerState.QUARANTINED
            elif breaker:
                state = breaker.state
            else:
                state = BreakerState.CLOSED
            out[name] = {
                "attempts": health.attempts,
                "successes": health.attempts - health.failures,
                "failures": health.failures,
                "failure_rate": health.failure_rate,
                "mean_latency_s": health.mean_latency_s,
                "busy_s": health.busy_s,
                "state": state.value,
                "times_opened": breaker.times_opened if breaker else 0,
                "answers": quality.answers if quality else 0,
                "tainted": quality.tainted if quality else 0,
                "quality_score": quality.score if quality else 1.0,
                "times_quarantined": (
                    quality.times_quarantined if quality else 0
                ),
            }
        return out

    def report(self) -> str:
        """Fixed-width per-source health table."""
        lines = [
            "source   attempts fail  rate   breaker    opened quality"
        ]
        with self._lock:
            for name in sorted(set(self._health) | set(self._quality)):
                health = self._health.get(name) or SourceHealth()
                breaker = self._breakers.get(name)
                quality = self._quality.get(name)
                if name in self._quarantined:
                    state = BreakerState.QUARANTINED.value
                else:
                    state = breaker.state.value if breaker else "-"
                opened = breaker.times_opened if breaker else 0
                score = f"{quality.score:>6.0%}" if quality else "     -"
                lines.append(
                    f"{name:<8} {health.attempts:>8} {health.failures:>4} "
                    f"{health.failure_rate:>5.0%} {state:>10} {opened:>7} "
                    f"{score}"
                )
        return "\n".join(lines)
