"""Fault injection for the concurrent runtime.

The network simulator (:mod:`repro.sources.network`) computes how long a
healthy exchange takes; this module decides what *actually* happens to
each attempt on the simulated wire.  Three failure modes, configurable
per source through a :class:`FaultProfile`:

* **transient errors** — the request dies quickly (connection reset);
  the wrapper reports failure after roughly one round trip;
* **stalls** — the source accepts the request and then hangs for
  ``stall_s`` extra seconds; combined with a per-attempt timeout in the
  :class:`~repro.runtime.policy.RetryPolicy` this is the classic
  "request timed out" failure;
* **slowdowns** — the source is up but degraded; the attempt completes
  correctly, ``slowdown_factor`` times slower.

On top of the wire-level fates, a :class:`DataFaultProfile` describes
*payload-level* faults: answers that arrive on time but are wrong.
A delivered answer may be ``TRUNCATED`` (a seeded fraction of tuples
silently dropped), ``STALE`` (the source serves a divergent stale
snapshot: some true tuples missing, some spurious ones present),
``DUPLICATE`` (tuples delivered more than once), or ``CORRUPT``
(schema/type-violating values).  These are the untrusted-source
failure modes of Dong et al.'s data-fusion setting; the
:mod:`repro.runtime.verify` subsystem detects and repairs them.

All randomness is drawn from per-source streams seeded from one master
seed, so a run is reproducible regardless of how the event loop
interleaves sources.  Data-fault draws use a *sibling* stream
(``"{seed}:{source}:data"``), so enabling payload faults never shifts
the wire-level outcome stream.

A :class:`Faults` value declares one fault setup — wire profiles, data
faults and an optional :class:`ChurnWave` — and :meth:`Faults.injector`
is the one place they are combined into a seeded :class:`FaultInjector`.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, replace

from repro.errors import CostModelError
from repro.relational.relation import Relation
from repro.sources.network import LinkProfile


class AttemptFate(enum.Enum):
    """How one request attempt ended on the simulated wire."""

    OK = "ok"
    TRANSIENT = "transient"
    TIMEOUT = "timeout"
    #: A hedged duplicate whose sibling won the race; the attempt was
    #: abandoned (but its traffic was already on the wire and charged).
    CANCELLED = "cancelled"

    @property
    def failed(self) -> bool:
        return self is not AttemptFate.OK


@dataclass(frozen=True)
class AttemptOutcome:
    """The injector's verdict on one attempt: its fate and duration."""

    fate: AttemptFate
    duration_s: float


class DataFate(enum.Enum):
    """How a *delivered* payload was tampered with (if at all)."""

    TRUNCATED = "truncated"
    STALE = "stale"
    DUPLICATE = "duplicate"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class DataTamper:
    """What the injector did to one delivered payload.

    Attributes:
        fate: The payload fate, or ``None`` for a clean delivery.
        dropped: True tuples silently removed.
        added: Spurious tuples introduced (stale divergence).
        duplicated: Extra duplicate copies delivered.
        corrupted: Values replaced with schema-violating garbage.
        diverged: Rows whose non-merge values were swapped (stale
            snapshots of loaded relations).
    """

    fate: DataFate | None = None
    dropped: int = 0
    added: int = 0
    duplicated: int = 0
    corrupted: int = 0
    diverged: int = 0

    @property
    def tampered(self) -> bool:
        return self.fate is not None


_CLEAN = DataTamper()


@dataclass(frozen=True)
class DataFaultProfile:
    """Payload-fault behaviour of one source.

    Rates are per *delivered* answer; at most one data fate applies to
    any single answer, checked in the fixed order stale, corrupt,
    truncated, duplicate.  Fractions say how much of the answer each
    fate touches.

    Attributes:
        truncated_rate: Probability a delivered answer is missing a
            ``truncated_fraction`` of its tuples.
        stale_rate: Probability the answer is a divergent stale
            snapshot: a ``stale_fraction`` of true tuples missing and a
            comparable number of spurious tuples present.
        duplicate_rate: Probability a ``duplicate_fraction`` of tuples
            are delivered twice.
        corrupt_rate: Probability a ``corrupt_fraction`` of values are
            replaced with schema/type-violating garbage.
    """

    truncated_rate: float = 0.0
    truncated_fraction: float = 0.5
    stale_rate: float = 0.0
    stale_fraction: float = 0.5
    duplicate_rate: float = 0.0
    duplicate_fraction: float = 0.5
    corrupt_rate: float = 0.0
    corrupt_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "truncated_rate",
            "stale_rate",
            "duplicate_rate",
            "corrupt_rate",
        ):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
                raise CostModelError(f"{name} must be in [0, 1], got {rate}")
        for name in (
            "truncated_fraction",
            "stale_fraction",
            "duplicate_fraction",
            "corrupt_fraction",
        ):
            fraction = getattr(self, name)
            if not (math.isfinite(fraction) and 0.0 < fraction <= 1.0):
                raise CostModelError(
                    f"{name} must be in (0, 1], got {fraction}"
                )

    @property
    def healthy(self) -> bool:
        """True when this profile can never tamper with a payload."""
        return (
            self.truncated_rate == 0.0
            and self.stale_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.corrupt_rate == 0.0
        )

    @property
    def expected_delivery(self) -> float:
        """Expected fraction of true tuples that survive delivery.

        Duplicates do not lose tuples; truncation, stale divergence and
        corruption each lose their fraction at their rate.  Used by
        :class:`~repro.runtime.availability.AvailabilityModel` to charge
        expected truncation against ``expected_completeness``.
        """
        survival = 1.0
        survival *= 1.0 - self.truncated_rate * self.truncated_fraction
        survival *= 1.0 - self.stale_rate * self.stale_fraction
        survival *= 1.0 - self.corrupt_rate * self.corrupt_fraction
        return survival

    @staticmethod
    def none() -> "DataFaultProfile":
        """A source that never tampers with its answers."""
        return DataFaultProfile()

    @staticmethod
    def corrupting(rate: float, fraction: float = 0.5) -> "DataFaultProfile":
        """A source emitting type-violating values at ``rate``."""
        return DataFaultProfile(corrupt_rate=rate, corrupt_fraction=fraction)


@dataclass(frozen=True)
class FaultProfile:
    """Failure behaviour of one source.

    Attributes:
        transient_rate: Per-attempt probability of a fast transient error.
        stall_rate: Per-attempt probability the source hangs; the attempt
            takes ``stall_s`` extra seconds (a policy timeout turns this
            into a timeout failure).
        stall_s: How long a stalled attempt hangs beyond its normal time.
        slowdown_rate: Per-attempt probability of a degraded-but-correct
            response.
        slowdown_factor: Duration multiplier for slowed attempts.
        data: Optional payload-fault behaviour — answers that arrive
            but are truncated, stale, duplicated, or corrupt.
    """

    transient_rate: float = 0.0
    stall_rate: float = 0.0
    stall_s: float = 30.0
    slowdown_rate: float = 0.0
    slowdown_factor: float = 4.0
    data: DataFaultProfile | None = None

    def __post_init__(self) -> None:
        for name in ("transient_rate", "stall_rate", "slowdown_rate"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
                raise CostModelError(f"{name} must be in [0, 1], got {rate}")
        if not (math.isfinite(self.stall_s) and self.stall_s >= 0):
            raise CostModelError(
                f"stall_s must be finite and non-negative, got {self.stall_s}"
            )
        if not (math.isfinite(self.slowdown_factor) and self.slowdown_factor >= 1):
            raise CostModelError(
                f"slowdown_factor must be >= 1, got {self.slowdown_factor}"
            )

    @property
    def wire_healthy(self) -> bool:
        """True when this profile can never perturb an attempt's wire fate."""
        return (
            self.transient_rate == 0.0
            and self.stall_rate == 0.0
            and self.slowdown_rate == 0.0
        )

    @property
    def healthy(self) -> bool:
        """True when this profile can never perturb an attempt."""
        return self.wire_healthy and (
            self.data is None or self.data.healthy
        )

    @staticmethod
    def none() -> "FaultProfile":
        """A perfectly healthy source."""
        return FaultProfile()

    @staticmethod
    def flaky(rate: float) -> "FaultProfile":
        """Transient errors only, at the given per-attempt rate."""
        return FaultProfile(transient_rate=rate)

    @staticmethod
    def degraded(rate: float, factor: float = 4.0) -> "FaultProfile":
        """Slowdowns only: correct answers, ``factor`` times slower."""
        return FaultProfile(slowdown_rate=rate, slowdown_factor=factor)


@dataclass(frozen=True)
class ChurnWave:
    """A window of source flakiness crossing a workload mid-stream.

    Queries whose *arrival time* falls inside ``[start_s, end_s)`` see
    the named sources with a :meth:`FaultProfile.flaky` profile of the
    given rate.  Keying on arrival time (not dispatch time) makes the
    affected query set identical across service modes.
    """

    start_s: float
    end_s: float
    sources: tuple[str, ...]
    rate: float = 0.5

    def __post_init__(self) -> None:
        if not (0 <= self.start_s < self.end_s):
            raise CostModelError(
                f"churn window must satisfy 0 <= start < end, got "
                f"[{self.start_s}, {self.end_s})"
            )
        if not self.sources:
            raise CostModelError("churn wave needs at least one source")

    def covers(self, at_s: float) -> bool:
        return self.start_s <= at_s < self.end_s

    def profile(self) -> FaultProfile:
        return FaultProfile.flaky(self.rate)


@dataclass(frozen=True)
class Faults:
    """What the world does to a mediator's sources, declared once.

    Attributes:
        wire: Wire-level behaviour: one :class:`FaultProfile` for every
            source, or a ``{source: FaultProfile}`` mapping (absent
            sources are healthy).
        data: Payload tampering: one :class:`DataFaultProfile` for every
            source (a wire profile that already tampers keeps its own),
            or a ``{source: DataFaultProfile}`` mapping.
        churn: A :class:`ChurnWave` turning its sources flaky for
            queries that arrive inside its window.

    A value holds no seed: :meth:`injector` realises it for one run, so
    a service keeps one workload seed and derives each query's.
    """

    wire: FaultProfile | dict[str, FaultProfile] | None = None
    data: DataFaultProfile | dict[str, DataFaultProfile] | None = None
    churn: ChurnWave | None = None

    def __post_init__(self) -> None:
        for name, kind in (("wire", FaultProfile), ("data", DataFaultProfile)):
            value = getattr(self, name)
            wanted = f"a {kind.__name__}"
            if isinstance(value, dict):
                if not all(isinstance(v, kind) for v in value.values()):
                    raise CostModelError(f"{name} must map sources to {wanted}, got {value!r}")
                # A copy: the caller's map may change, the value may not.
                object.__setattr__(self, name, dict(value))
            elif value is not None and not isinstance(value, kind):
                raise CostModelError(
                    f"{name} must be {wanted}, a {{source: profile}} map or None, got {value!r}"
                )
        if self.churn is not None and not isinstance(self.churn, ChurnWave):
            raise CostModelError(f"churn must be a ChurnWave or None, got {self.churn!r}")

    def injector(self, seed: int, at_s: float = 0.0) -> "FaultInjector":
        """The seeded injector of one run that starts (or, under a
        service, arrives) at ``at_s``: the wire profiles, the churn
        wave's sources overridden while ``at_s`` is inside its window,
        then the payload tampering laid over the result."""
        if isinstance(self.wire, dict):
            profiles, default = dict(self.wire), None
        else:
            profiles, default = {}, self.wire
        if self.churn is not None and self.churn.covers(at_s):
            profiles.update(dict.fromkeys(self.churn.sources, self.churn.profile()))
        if isinstance(self.data, dict):
            for name, data in self.data.items():
                base = profiles.get(name) or default or FaultProfile.none()
                profiles[name] = replace(base, data=data)
        elif self.data is not None:
            default = replace(default or FaultProfile.none(), data=self.data)
            for name, profile in profiles.items():
                if profile.data is None:
                    profiles[name] = replace(profile, data=self.data)
        return FaultInjector(profiles, seed=seed, default=default)


class FaultInjector:
    """Seeded, per-source fault decisions for the runtime engine.

    Args:
        profiles: Either one :class:`FaultProfile` applied to every
            source, or a ``{source_name: FaultProfile}`` mapping (sources
            not in the mapping use ``default``).
        seed: Master seed; each source derives an independent stream, so
            outcomes do not depend on how the event loop interleaves
            sources.
        default: Profile for sources absent from a mapping.
    """

    def __init__(
        self,
        profiles: FaultProfile | dict[str, FaultProfile] | None = None,
        seed: int = 0,
        default: FaultProfile | None = None,
    ):
        if profiles is None:
            profiles = {}
        if isinstance(profiles, FaultProfile):
            self._default = profiles
            self._profiles: dict[str, FaultProfile] = {}
        else:
            self._default = default or FaultProfile.none()
            self._profiles = dict(profiles)
        self.seed = seed
        self._streams: dict[str, random.Random] = {}
        self._data_streams: dict[str, random.Random] = {}
        self.attempts = 0
        # One bucket per kind of *injected* perturbation.  Cancellations
        # are a hedging artifact of the engine, not an injected fault,
        # so they have no bucket here.
        self.injected: dict[str, int] = {
            kind: 0
            for kind in ("transient", "stall", "slowdown")
        }
        self.injected.update({fate.value: 0 for fate in DataFate})

    @staticmethod
    def none() -> "FaultInjector":
        """An injector that never perturbs anything."""
        return FaultInjector(FaultProfile.none())

    def profile_for(self, source_name: str) -> FaultProfile:
        return self._profiles.get(source_name, self._default)

    def _stream(self, source_name: str) -> random.Random:
        stream = self._streams.get(source_name)
        if stream is None:
            # String seeding is hashed with SHA-512 internally, so streams
            # are stable across processes (unlike built-in hash()).
            stream = random.Random(f"{self.seed}:{source_name}")
            self._streams[source_name] = stream
        return stream

    def judge(
        self, source_name: str, base_duration_s: float, link: LinkProfile
    ) -> AttemptOutcome:
        """Decide one attempt's fate.

        ``base_duration_s`` is the healthy duration of the exchange (from
        the network simulator); the outcome's duration replaces it.  A
        failed attempt still takes simulated time: transient errors
        surface after one round trip.
        """
        self.attempts += 1
        profile = self.profile_for(source_name)
        if profile.wire_healthy:
            return AttemptOutcome(AttemptFate.OK, base_duration_s)
        stream = self._stream(source_name)
        # Fixed draw order keeps streams aligned across configurations.
        u_transient = stream.random()
        u_stall = stream.random()
        u_slow = stream.random()
        if u_transient < profile.transient_rate:
            self.injected["transient"] += 1
            return AttemptOutcome(
                AttemptFate.TRANSIENT, link.request_time_s(0, 0)
            )
        duration = base_duration_s
        if u_stall < profile.stall_rate:
            self.injected["stall"] += 1
            duration += profile.stall_s
        if u_slow < profile.slowdown_rate:
            self.injected["slowdown"] += 1
            duration *= profile.slowdown_factor
        return AttemptOutcome(AttemptFate.OK, duration)

    # ------------------------------------------------------------------
    # Payload-level fates

    def _data_stream(self, source_name: str) -> random.Random:
        stream = self._data_streams.get(source_name)
        if stream is None:
            # A sibling of the wire stream: enabling data faults must
            # never shift a source's wire-level outcomes.
            stream = random.Random(f"{self.seed}:{source_name}:data")
            self._data_streams[source_name] = stream
        return stream

    def tamper(
        self,
        source_name: str,
        value: "Relation | frozenset",
        *,
        pool: frozenset = frozenset(),
    ) -> "tuple[Relation | frozenset | tuple, DataTamper]":
        """Maybe tamper with one *delivered* payload.

        ``value`` is an answer that already survived the wire — an item
        set (selection/semijoin) or a :class:`Relation` (load).
        ``pool`` supplies candidate spurious items for stale item-set
        answers (the source's items that did *not* match).  Returns the
        payload as the source actually serves it plus a
        :class:`DataTamper` report; tampered item sets come back as a
        tuple because duplicates are meaningful.
        """
        profile = self.profile_for(source_name).data
        if profile is None or profile.healthy:
            return value, _CLEAN
        stream = self._data_stream(source_name)
        # Fixed draw order, one uniform per fate, every delivery.
        u_stale = stream.random()
        u_corrupt = stream.random()
        u_truncated = stream.random()
        u_duplicate = stream.random()
        fate: DataFate | None = None
        if u_stale < profile.stale_rate:
            fate = DataFate.STALE
        elif u_corrupt < profile.corrupt_rate:
            fate = DataFate.CORRUPT
        elif u_truncated < profile.truncated_rate:
            fate = DataFate.TRUNCATED
        elif u_duplicate < profile.duplicate_rate:
            fate = DataFate.DUPLICATE
        if fate is None:
            return value, _CLEAN
        if isinstance(value, Relation):
            payload, tamper = self._tamper_relation(
                stream, profile, fate, value
            )
        else:
            payload, tamper = self._tamper_items(
                stream, profile, fate, value, pool
            )
        if tamper.tampered:
            self.injected[tamper.fate.value] += 1
        return payload, tamper

    @staticmethod
    def _touch(n: int, fraction: float) -> int:
        """How many of ``n`` tuples a fate touches (at least one)."""
        return max(1, round(n * fraction)) if n else 0

    @staticmethod
    def _corrupt_value(stream: random.Random) -> bytes:
        # bytes are rejected by every DataType, so a corrupt value is
        # detectable against any declared schema.
        return f"corrupt#{stream.getrandbits(32):08x}".encode("ascii")

    def _tamper_items(
        self,
        stream: random.Random,
        profile: DataFaultProfile,
        fate: DataFate,
        items: frozenset,
        pool: frozenset,
    ) -> "tuple[frozenset | tuple, DataTamper]":
        ordered = sorted(items, key=repr)
        n = len(ordered)
        if fate is DataFate.TRUNCATED:
            drop = self._touch(n, profile.truncated_fraction)
            if not drop:
                return items, _CLEAN
            doomed = set(stream.sample(range(n), drop))
            kept = tuple(
                item for i, item in enumerate(ordered) if i not in doomed
            )
            return kept, DataTamper(fate, dropped=drop)
        if fate is DataFate.STALE:
            spurious = sorted(pool - items, key=repr)
            drop = self._touch(n, profile.stale_fraction)
            add = min(
                len(spurious), self._touch(max(n, 1), profile.stale_fraction)
            )
            if not drop and not add:
                return items, _CLEAN
            doomed = set(stream.sample(range(n), drop)) if drop else set()
            kept = [
                item for i, item in enumerate(ordered) if i not in doomed
            ]
            kept.extend(stream.sample(spurious, add))
            return tuple(kept), DataTamper(fate, dropped=drop, added=add)
        if fate is DataFate.CORRUPT:
            bad = self._touch(n, profile.corrupt_fraction)
            if not bad:
                return items, _CLEAN
            doomed = set(stream.sample(range(n), bad))
            payload = tuple(
                self._corrupt_value(stream) if i in doomed else item
                for i, item in enumerate(ordered)
            )
            return payload, DataTamper(fate, corrupted=bad)
        dup = self._touch(n, profile.duplicate_fraction)
        if not dup:
            return items, _CLEAN
        extras = stream.sample(ordered, dup)
        return tuple(ordered) + tuple(extras), DataTamper(
            fate, duplicated=dup
        )

    def _tamper_relation(
        self,
        stream: random.Random,
        profile: DataFaultProfile,
        fate: DataFate,
        relation: Relation,
    ) -> "tuple[Relation, DataTamper]":
        rows = relation.rows
        n = len(rows)
        schema = relation.schema
        if fate is DataFate.TRUNCATED:
            drop = self._touch(n, profile.truncated_fraction)
            if not drop:
                return relation, _CLEAN
            doomed = set(stream.sample(range(n), drop))
            kept = [row for i, row in enumerate(rows) if i not in doomed]
            return relation.derive(kept), DataTamper(fate, dropped=drop)
        if fate is DataFate.STALE:
            # A stale snapshot: pairs of rows have swapped their
            # non-merge values, so downstream selections admit rows
            # they should not and miss rows they should keep.
            pairs = self._touch(n, profile.stale_fraction)
            if n < 2 or not pairs:
                return relation, _CLEAN
            pairs = min(pairs, n // 2)
            chosen = stream.sample(range(n), 2 * pairs)
            mutated = [list(row) for row in rows]
            merge = schema.merge_position
            swap_at = [
                pos for pos in range(len(schema.names)) if pos != merge
            ]
            for k in range(pairs):
                a, b = chosen[2 * k], chosen[2 * k + 1]
                for pos in swap_at:
                    mutated[a][pos], mutated[b][pos] = (
                        mutated[b][pos],
                        mutated[a][pos],
                    )
            return (
                Relation(relation.name, schema, map(tuple, mutated)),
                DataTamper(fate, diverged=2 * pairs),
            )
        if fate is DataFate.CORRUPT:
            bad = self._touch(n, profile.corrupt_fraction)
            if not bad:
                return relation, _CLEAN
            doomed = set(stream.sample(range(n), bad))
            merge = schema.merge_position
            mutated = []
            for i, row in enumerate(rows):
                if i in doomed:
                    row = (
                        row[:merge]
                        + (self._corrupt_value(stream),)
                        + row[merge + 1 :]
                    )
                mutated.append(row)
            return (
                Relation.unchecked(relation.name, schema, mutated),
                DataTamper(fate, corrupted=bad),
            )
        dup = self._touch(n, profile.duplicate_fraction)
        if not dup:
            return relation, _CLEAN
        extras = stream.sample(rows, dup)
        return relation.derive(rows + tuple(extras)), DataTamper(fate, duplicated=dup)

    def summary(self) -> str:
        """One-line account of what was injected."""
        injected = sum(self.injected.values())
        parts = ", ".join(
            f"{count} {kind}"
            for kind, count in self.injected.items()
            if count
        )
        return (
            f"{self.attempts} attempts, {injected} injected faults"
            + (f" ({parts})" if parts else "")
        )
