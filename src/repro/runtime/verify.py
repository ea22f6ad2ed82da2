"""Answer verification on arrival — the data-plane trust boundary.

Wire-level faults (:mod:`repro.runtime.faults`) are visible: an attempt
times out or errors and the engine retries.  Payload-level faults are
not — a truncated, stale, duplicated, or corrupt answer arrives with a
perfectly healthy wire fate, and a mediator that unions it blindly
breaks the repo's zero-spurious-tuples invariant.  This module checks
every delivered answer before the engine accepts it, in the spirit of
Dong et al.'s data fusion: conflicts across overlapping sources are
detected and resolved, not merged.

Two active modes (the engine's ``verify="off"`` simply bypasses this
module and stays byte-identical to the untrusted runtime):

* ``"sanitize"`` — local checks only: every value is validated against
  the serving source's declared schema (type-violating values are
  dropped), and duplicate items are collapsed.  Catches ``CORRUPT`` and
  ``DUPLICATE``; cannot catch tuples that are silently missing or
  plausibly-typed stale values.
* ``"vote"`` — sanitize plus cross-replica confirmation: when the
  serving source belongs to a replica group, the engine fetches the
  same answer from other group members and keeps the values a majority
  agrees on.  With three or more voters a lone stale replica is
  outvoted *and blamed*: its rejected claims and missed values are
  charged to its data-quality score in the
  :class:`~repro.runtime.health.HealthRegistry`, which is what
  eventually quarantines it.

The verifier itself is pure — it never touches the clock, the health
registry, or the recorder — so the engine stays the single place where
state changes happen.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.errors import ExecutionError, SchemaError
from repro.relational.relation import Relation
from repro.sources.registry import Federation

#: The engine/mediator/CLI knob values.
VERIFY_MODES = ("off", "sanitize", "vote")


def validate_mode(mode: str) -> str:
    """Check a ``verify`` knob value, returning it for chaining."""
    if mode not in VERIFY_MODES:
        raise ExecutionError(
            f"verify must be one of {VERIFY_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class AnswerReport:
    """What verification found in one delivered answer.

    Attributes:
        source: The source that served the answer.
        delivered: Tuples as delivered (duplicates included).
        kept: Tuples that survived sanitization.
        corrupt: Schema/type-violating values dropped.
        duplicates: Duplicate tuples collapsed.
        conflicts: Values this source got wrong in a cross-replica vote
            (rejected claims plus missed values); filled in after the
            vote, zero in sanitize mode.
    """

    source: str
    delivered: int
    kept: int
    corrupt: int = 0
    duplicates: int = 0
    conflicts: int = 0

    @property
    def clean(self) -> bool:
        """True when the answer showed no detectable issue."""
        return self.corrupt == 0 and self.duplicates == 0 and self.conflicts == 0

    @property
    def issues(self) -> int:
        return self.corrupt + self.duplicates + self.conflicts

    def with_conflicts(self, conflicts: int) -> "AnswerReport":
        return replace(self, conflicts=self.conflicts + conflicts)


@dataclass(frozen=True)
class VoteResult:
    """Outcome of a cross-replica majority vote.

    Attributes:
        kept: The majority answer (an item set or a :class:`Relation`).
        unanimous: True when every voter served the same answer.
        spurious: Per-source count of claims the majority rejected.
        missing: Per-source count of kept values the source failed to
            deliver.
    """

    kept: Any
    unanimous: bool
    spurious: Mapping[str, int]
    missing: Mapping[str, int]


class AnswerVerifier:
    """Schema validation, dedup, and majority voting over answers.

    Args:
        federation: Supplies each source's declared schema (the merge
            attribute's type is what item values are checked against).
        mode: ``"sanitize"`` or ``"vote"``; ``"off"`` is handled by the
            engine never constructing a verifier at all.
    """

    def __init__(self, federation: Federation, mode: str = "sanitize"):
        validate_mode(mode)
        if mode == "off":
            raise ExecutionError(
                "an AnswerVerifier is never constructed with verify='off'"
            )
        self.federation = federation
        self.mode = mode

    @property
    def votes(self) -> bool:
        return self.mode == "vote"

    @staticmethod
    def claims(value: Any) -> frozenset:
        """The comparable claim set of one sanitized answer.

        Relations vote by their row sets (multiplicity carries no
        information across replicas); item sets vote as themselves.
        """
        if isinstance(value, Relation):
            return frozenset(value.rows)
        return frozenset(value)

    # ------------------------------------------------------------------
    # Sanitization

    def check(
        self, source_name: str, value: Any
    ) -> tuple[Any, AnswerReport]:
        """Sanitize one delivered answer.

        ``value`` is what the source served: an item set (possibly a
        tuple, because duplicates are meaningful on delivery) or a
        :class:`Relation`.  Returns the cleaned value — always a
        ``frozenset`` or a validated :class:`Relation` — plus a report
        of what was dropped.
        """
        schema = self.federation.source(source_name).schema
        if isinstance(value, Relation):
            return self._check_relation(source_name, value, schema)
        return self._check_items(source_name, value, schema)

    def _check_items(
        self, source_name: str, value: Iterable[Any], schema
    ) -> tuple[frozenset, AnswerReport]:
        delivered = (
            tuple(value)
            if isinstance(value, tuple)
            else tuple(sorted(value, key=repr))
        )
        attribute = schema.attribute(schema.merge_attribute)
        kept: set[Any] = set()
        corrupt = 0
        duplicates = 0
        for item in delivered:
            try:
                attribute.validate_value(item)
            except SchemaError:
                corrupt += 1
                continue
            if item in kept:
                duplicates += 1
                continue
            kept.add(item)
        report = AnswerReport(
            source=source_name,
            delivered=len(delivered),
            kept=len(kept),
            corrupt=corrupt,
            duplicates=duplicates,
        )
        return frozenset(kept), report

    def _check_relation(
        self, source_name: str, relation: Relation, schema
    ) -> tuple[Relation, AnswerReport]:
        # Relations are *bags* — a source may legitimately hold several
        # identical rows — so only schema violations are dropped here;
        # injected duplicate rows are indistinguishable from real ones
        # and harmless (the merge-item set ignores multiplicity).
        kept = []
        corrupt = 0
        for row in relation.rows:
            try:
                relation.schema.validate_row(row)
            except SchemaError:
                corrupt += 1
                continue
            kept.append(row)
        # The survivors passed the scan above: no second validation.
        cleaned = (
            relation
            if not corrupt
            else Relation._derived(relation.name, relation.schema, kept, validated=True)
        )
        report = AnswerReport(
            source=source_name,
            delivered=len(relation.rows),
            kept=len(kept),
            corrupt=corrupt,
        )
        return cleaned, report

    # ------------------------------------------------------------------
    # Cross-replica voting

    def vote(self, answers: list[tuple[str, Any]]) -> VoteResult:
        """Majority-vote over sanitized answers from replica-group members.

        With two voters the vote is an intersection (no majority can
        form for a disputed value); with three or more, a lone divergent
        replica is outvoted.  Per-source blame — claims rejected and
        values missed — feeds the quality score that quarantines
        persistently bad sources.
        """
        if len(answers) < 2:
            raise ExecutionError("a vote needs at least two answers")
        relational = isinstance(answers[0][1], Relation)
        claims: list[tuple[str, frozenset]] = [
            (source, self.claims(value)) for source, value in answers
        ]
        majority = len(claims) // 2 + 1
        counts: Counter = Counter()
        for __, claim in claims:
            counts.update(claim)
        kept_elements = frozenset(
            element
            for element, count in counts.items()
            if count >= majority
        )
        spurious: dict[str, int] = {}
        missing: dict[str, int] = {}
        for source, claim in claims:
            rejected = len(claim - kept_elements)
            missed = len(kept_elements - claim)
            if rejected:
                spurious[source] = rejected
            if missed:
                missing[source] = missed
        unanimous = all(claim == claims[0][1] for __, claim in claims)
        if relational:
            first = answers[0][1]
            rows = sorted(kept_elements, key=repr)
            kept_value: Any = Relation(first.name, first.schema, rows)
        else:
            kept_value = kept_elements
        return VoteResult(
            kept=kept_value,
            unanimous=unanimous,
            spurious=spurious,
            missing=missing,
        )
