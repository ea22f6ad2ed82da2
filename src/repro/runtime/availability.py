"""Per-source availability and expected answer completeness.

The optimizers of Sec. 3/4 rank plans by wire cost alone, as if every
source always answered.  Under the fault regimes of :mod:`.faults` the
cheapest plan can route a whole condition through one fragile source and
lose it outright — so the robust planner
(:mod:`repro.optimize.robust`) needs a second ruler: given what we know
about each source's reliability, how much of the true answer do we
*expect* a plan to recover?

Two ingredients:

* An :class:`AvailabilityModel` maps each source name to the
  probability that one engine-level operation against it succeeds.  It
  can be built analytically from a fault injector's profiles plus the
  retry policy (:meth:`AvailabilityModel.from_faults`), empirically from
  a live :class:`~repro.runtime.health.HealthRegistry`
  (:class:`ObservedAvailability` — samples accumulate as runs execute,
  so re-plans see fresher numbers), or blended (observed samples shrink
  toward the analytic prior until there is volume behind them).

* :func:`expected_completeness` propagates those probabilities through a
  plan.  Every remote operation is a *channel* delivering one
  condition's matches from one replica group; an item satisfying the
  condition at several groups survives if any of them answers (skip
  degradation loses items but never invents them, and difference-pruned
  stages re-probe a skipped source's slice downstream, so redundancy
  across groups is preserved).  Per condition::

      survival(c) = (1 - prod_g (1 - p_g * m_cg)) / g(c)

  where ``g`` ranges over the distinct replica groups the plan contacts
  for ``c``, ``m_cg`` is the probability a random universe item matches
  ``c`` at group ``g`` (mirrors hold identical rows, so the group's
  representative speaks for all members), ``p_g`` is the probability at
  least one usable member of ``g`` answers *with intact data* (wire
  success times the member's expected verified-delivery fraction,
  :meth:`AvailabilityModel.p_delivery`), and ``g(c)`` is the same
  expression with every group perfectly available — the fault-free
  recall.  Conditions multiply (the optimizer's own independence
  assumption), giving the plan's overall expected completeness.

  ``p_g`` is where plan shape and executor capability meet: planning an
  operation on a mirror *in addition to* the representative (a
  "dual-path" plan) makes both members usable, and an executor with
  failover (hedging, breakers, re-planning) makes every declared mirror
  usable even when only one is planned.

Approximations, stated once: condition/source independence throughout
(the paper's working assumption); loads that serve several conditions
are treated per condition (the cross-condition correlation of one load
failing is ignored); slowdowns are assumed to finish within the attempt
timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.costs.estimates import SizeEstimator
from repro.errors import CostModelError, PlanValidationError
from repro.plans.operations import (
    LoadOp,
    LocalSelectionOp,
    SelectionOp,
    SemijoinOp,
)
from repro.plans.plan import Plan
from repro.relational.conditions import Condition
from repro.runtime.faults import FaultInjector, FaultProfile
from repro.runtime.policy import RetryPolicy
from repro.sources.registry import Federation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.health import HealthRegistry


def _check_probability(name: str, value: float) -> float:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CostModelError(f"{name} must be in [0, 1], got {value}")
    return value


class AvailabilityModel:
    """Maps source names to per-operation success probabilities.

    Probabilities are kept at *attempt* granularity; :meth:`p_success`
    folds in the retry budget (``retries``), since one engine operation
    gets ``1 + retries`` independent tries before it degrades.

    Orthogonal to *answering* is *answering honestly*: a source whose
    payloads are truncated, stale, or corrupt delivers an operation that
    "succeeds" yet loses verified tuples.  :meth:`p_delivery` captures
    that second axis — the expected fraction of a delivered answer that
    survives verification — so the completeness estimator can charge
    expected truncation against a channel even when the wire is perfect.

    Args:
        attempt_p: Per-source probability that a single attempt
            succeeds; sources absent from the mapping use ``default``.
        default: Attempt success probability for unlisted sources.
        retries: Retry budget the executor grants each operation.
        delivery: Per-source expected fraction of answer tuples that
            survive verification; unlisted sources use
            ``default_delivery``.
        default_delivery: Delivery fraction for unlisted sources.

    Example:
        >>> model = AvailabilityModel({"R1": 0.5}, retries=1)
        >>> model.p_attempt("R1")
        0.5
        >>> model.p_success("R1")  # 1 - 0.5**2
        0.75
        >>> model.p_success("R2")  # unlisted: perfectly available
        1.0
    """

    def __init__(
        self,
        attempt_p: Mapping[str, float] | None = None,
        default: float = 1.0,
        retries: int = 0,
        delivery: Mapping[str, float] | None = None,
        default_delivery: float = 1.0,
    ):
        self._attempt_p = {
            name: _check_probability(f"attempt_p[{name!r}]", p)
            for name, p in (attempt_p or {}).items()
        }
        self.default = _check_probability("default", default)
        if not isinstance(retries, int) or retries < 0:
            raise CostModelError(
                f"retries must be an integer >= 0, got {retries!r}"
            )
        self.retries = retries
        self._delivery = {
            name: _check_probability(f"delivery[{name!r}]", p)
            for name, p in (delivery or {}).items()
        }
        self.default_delivery = _check_probability(
            "default_delivery", default_delivery
        )

    def p_attempt(self, source_name: str) -> float:
        """Probability one attempt against ``source_name`` succeeds."""
        return self._attempt_p.get(source_name, self.default)

    def p_success(self, source_name: str) -> float:
        """Probability one *operation* succeeds within its retry budget."""
        miss = 1.0 - self.p_attempt(source_name)
        return 1.0 - miss ** (1 + self.retries)

    def p_delivery(self, source_name: str) -> float:
        """Expected fraction of the answer that survives verification.

        Retries do not help here: a source serving a stale or truncated
        snapshot serves the same snapshot on the retry, so the delivery
        fraction is charged once per operation, not per attempt.
        """
        return self._delivery.get(source_name, self.default_delivery)

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}={self.p_success(name):.3f}"
            for name in sorted(self._attempt_p)
        )
        return (
            f"{type(self).__name__}({parts or f'default={self.default:.3f}'}"
            f", retries={self.retries})"
        )

    # ------------------------------------------------------------------
    # Builders

    @staticmethod
    def perfect() -> "AvailabilityModel":
        """Every source always answers (the cost-only planner's world)."""
        return AvailabilityModel()

    @staticmethod
    def attempt_success(
        profile: FaultProfile, policy: RetryPolicy | None = None
    ) -> float:
        """Analytic single-attempt success probability under ``profile``.

        Transients always fail the attempt.  A stall fails only when the
        policy's per-attempt timeout would cut it off before the hang
        clears (no timeout means the attempt eventually succeeds,
        just slowly).  Slowdowns return correct answers and are assumed
        to fit the timeout.
        """
        p = 1.0 - profile.transient_rate
        timeout = policy.timeout_s if policy is not None else None
        if timeout is not None and profile.stall_s >= timeout:
            p *= 1.0 - profile.stall_rate
        return p

    @classmethod
    def from_faults(
        cls,
        faults: FaultInjector,
        policy: RetryPolicy | None = None,
        source_names: Sequence[str] = (),
    ) -> "AvailabilityModel":
        """Injected-fault statistics -> analytic availability.

        ``source_names`` pins per-source entries (useful when profiles
        are a per-source mapping); every other source falls back to the
        injector's default profile.
        """
        def delivery_of(profile: FaultProfile) -> float:
            return (
                1.0 if profile.data is None else profile.data.expected_delivery
            )

        default_profile = faults.profile_for("")
        default = cls.attempt_success(default_profile, policy)
        attempt_p = {
            name: cls.attempt_success(faults.profile_for(name), policy)
            for name in source_names
        }
        delivery = {
            name: delivery_of(faults.profile_for(name))
            for name in source_names
        }
        retries = policy.max_retries if policy is not None else 0
        return cls(
            attempt_p,
            default=default,
            retries=retries,
            delivery=delivery,
            default_delivery=delivery_of(default_profile),
        )


class ObservedAvailability(AvailabilityModel):
    """Availability read live from a :class:`HealthRegistry`.

    Empirical per-source success rates, shrunk toward a prior model
    until enough samples accumulate::

        p(s) = (w * prior(s) + successes(s)) / (w + attempts(s))

    The registry reference is live: as the engine records attempts,
    subsequent :meth:`p_attempt` calls see the updated counts, so a
    re-planning round ranks candidates with everything learned during
    the rounds before it.  Determinism is preserved — health state is a
    pure function of the seeded execution.

    Args:
        health: The registry to read (shared with the engine).
        prior: Model supplying prior attempt probabilities (default:
            perfect availability).
        prior_weight: Pseudo-count behind the prior; higher values need
            more samples to move the estimate.
        retries: Retry budget (default: the prior's).
    """

    def __init__(
        self,
        health: "HealthRegistry",
        prior: AvailabilityModel | None = None,
        prior_weight: float = 4.0,
        retries: int | None = None,
    ):
        if not (math.isfinite(prior_weight) and prior_weight > 0):
            raise CostModelError(
                f"prior_weight must be finite and positive, got {prior_weight}"
            )
        self.health = health
        self.prior = prior or AvailabilityModel.perfect()
        self.prior_weight = prior_weight
        super().__init__(
            default=self.prior.default,
            retries=self.prior.retries if retries is None else retries,
        )

    def p_attempt(self, source_name: str) -> float:
        stats = self.health.health_of(source_name)
        successes = stats.attempts - stats.failures
        return (self.prior_weight * self.prior.p_attempt(source_name) + successes) / (
            self.prior_weight + stats.attempts
        )

    def p_delivery(self, source_name: str) -> float:
        quality = self.health.quality_of(source_name)
        kept = quality.items_kept
        delivered = quality.items_delivered
        return (
            self.prior_weight * self.prior.p_delivery(source_name) + kept
        ) / (self.prior_weight + delivered)


# ----------------------------------------------------------------------
# Expected completeness of a plan


@dataclass(frozen=True)
class ConditionSurvival:
    """Expected recall of one condition's matches under the model."""

    condition: Condition
    survival: float
    #: Distinct replica groups the plan contacts for this condition,
    #: each named by its first planned member.
    channels: tuple[str, ...]


@dataclass(frozen=True)
class CompletenessEstimate:
    """Expected answer completeness of one plan."""

    overall: float
    per_condition: tuple[ConditionSurvival, ...]

    def summary(self) -> str:
        parts = ", ".join(
            f"{c.condition.to_sql()}: {c.survival:.3f}"
            for c in self.per_condition
        )
        return f"expected completeness {self.overall:.3f} ({parts})"


def expected_completeness(
    plan: Plan,
    federation: Federation,
    estimator: SizeEstimator,
    availability: AvailabilityModel,
    failover: bool = False,
) -> CompletenessEstimate:
    """Expected fraction of the true answer ``plan`` recovers.

    Args:
        plan: Any plan over ``federation``'s sources (staged, pruned,
            load-rewritten — channels are read off the operations, not
            the stage annotations).
        federation: Supplies the replica-group structure.
        estimator: Supplies per-source match fractions.
        availability: Per-source operation success probabilities.
        failover: True when the executor can transparently serve a
            planned operation from a declared mirror (hedged dispatch,
            breaker rerouting, or re-planning) — every group member then
            counts toward the group's availability, not just the
            planned ones.
    """
    # A group's member tuple is canonical (ungrouped sources get their
    # singleton), so it doubles as the channel key.
    group_key = federation.group_of

    # channels[condition][group_key] = planned sources in that group.
    channels: dict[Condition, dict[tuple, list[str]]] = {}
    order: list[Condition] = []
    load_source: dict[str, str] = {}

    def add_channel(condition: Condition, source_name: str) -> None:
        by_group = channels.get(condition)
        if by_group is None:
            by_group = channels[condition] = {}
            order.append(condition)
        planned = by_group.setdefault(group_key(source_name), [])
        if source_name not in planned:
            planned.append(source_name)

    for op in plan.operations:
        if isinstance(op, (SelectionOp, SemijoinOp)):
            add_channel(op.condition, op.source)
        elif isinstance(op, LoadOp):
            load_source[op.target] = op.source
        elif isinstance(op, LocalSelectionOp):
            source = load_source.get(op.input_register)
            if source is None:
                raise PlanValidationError(
                    f"local selection reads {op.input_register!r} which is "
                    "not a loaded relation"
                )
            add_channel(op.condition, source)

    if plan.query is not None:
        order = [c for c in plan.query.conditions if c in channels]

    # Fault-free recall denominator: the same product over *every*
    # distinct group in the federation (each counted once through its
    # first member — mirrors hold identical rows).
    distinct: dict[tuple, str] = {}
    for name in federation.source_names:
        distinct.setdefault(group_key(name), name)

    per_condition: list[ConditionSurvival] = []
    overall = 1.0
    for condition in order:
        reachable = 1.0
        for representative in distinct.values():
            reachable *= 1.0 - estimator.match_fraction(
                condition, representative
            )
        reachable = 1.0 - reachable
        expected_miss = 1.0
        labels: list[str] = []
        for key, planned in channels[condition].items():
            usable = list(planned)
            if failover:
                for member in key:
                    if member not in usable:
                        usable.append(member)
            group_miss = 1.0
            for member in usable:
                # A member contributes only what it both serves (wire
                # success within the retry budget) and delivers intact
                # (its answers' expected verified fraction).
                group_miss *= 1.0 - (
                    availability.p_success(member)
                    * availability.p_delivery(member)
                )
            p_group = 1.0 - group_miss
            match = estimator.match_fraction(condition, planned[0])
            expected_miss *= 1.0 - p_group * match
            labels.append(planned[0])
        if reachable <= 0.0:
            survival = 1.0
        else:
            survival = min(1.0, (1.0 - expected_miss) / reachable)
        per_condition.append(
            ConditionSurvival(
                condition=condition,
                survival=survival,
                channels=tuple(labels),
            )
        )
        overall *= survival

    return CompletenessEstimate(
        overall=overall, per_condition=tuple(per_condition)
    )
