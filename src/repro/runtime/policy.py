"""Resilience policy: retries, backoff, graceful degradation.

A :class:`RetryPolicy` tells the runtime engine what to do when an
attempt fails: how many times to retry, how long to back off between
attempts, and how long one attempt may run before it is cut off
(``timeout_s``).  Backoff is deterministic exponential: the wait
doubles per retry from ``backoff_base_s`` and is capped at
:data:`BACKOFF_MAX_S`.  The one deadline is the query's own budget
(``budget_s`` of :meth:`~repro.runtime.engine.RuntimeEngine.run`),
which clamps every backoff sleep.

When an operation's retries are spent the policy chooses between two endgames:

* ``OnExhaust.SKIP`` — *graceful degradation*: the operation yields an
  empty result, execution continues, and the answer is a subset of the
  true answer (fusion plans only ever intersect and union item sets, so
  a skipped source loses answers but never invents them);
* ``OnExhaust.FAIL`` — surface an
  :class:`~repro.errors.ExecutionError`, for callers that prefer a hard
  error over a partial answer.

:func:`completeness_report` quantifies the degradation by comparing an
executed answer with the reference evaluator's ground truth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import CostModelError
from repro.mediator.reference import reference_answer
from repro.query.fusion import FusionQuery
from repro.sources.registry import Federation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.trace import RuntimeTrace


class OnExhaust(enum.Enum):
    """What to do once an operation's retry budget is spent."""

    SKIP = "skip"  # degrade: empty result, keep executing
    FAIL = "fail"  # raise ExecutionError


#: Growth factor of the backoff wait per further retry.
BACKOFF_MULTIPLIER = 2.0
#: Cap on a single backoff wait, in virtual seconds.
BACKOFF_MAX_S = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff configuration for the runtime engine.

    Attributes:
        max_retries: Retries allowed per operation (0 = single attempt).
        backoff_base_s: Wait before the first retry.
        timeout_s: Per-attempt cutoff; an attempt still running at this
            point fails as a timeout.  ``None`` disables the cutoff.
        on_exhaust: Degrade (:attr:`OnExhaust.SKIP`) or raise.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.1
    timeout_s: float | None = None
    on_exhaust: OnExhaust = OnExhaust.SKIP

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise CostModelError(
                f"max_retries must be an integer >= 0, got {self.max_retries!r}"
            )
        if not (math.isfinite(self.backoff_base_s) and self.backoff_base_s >= 0):
            raise CostModelError(
                "backoff_base_s must be finite and non-negative, got "
                f"{self.backoff_base_s}"
            )
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0
        ):
            raise CostModelError(
                f"timeout_s must be finite and positive, got {self.timeout_s}"
            )
        if not isinstance(self.on_exhaust, OnExhaust):
            raise CostModelError(
                f"on_exhaust must be an OnExhaust member, got "
                f"{self.on_exhaust!r}"
            )

    def backoff_s(self, retry_number: int) -> float:
        """Wait before retry ``retry_number`` (1-based), capped."""
        if retry_number < 1:
            raise ValueError(f"retry_number must be >= 1, got {retry_number}")
        wait = self.backoff_base_s * BACKOFF_MULTIPLIER ** (retry_number - 1)
        return min(wait, BACKOFF_MAX_S)

    def clamped_backoff_s(
        self, retry_number: int, remaining_s: float | None
    ) -> float | None:
        """Backoff wait clamped to the caller's remaining query budget.

        Exponential backoff is oblivious to any *query-level* deadline:
        left unclamped, the sleeps alone can overshoot a budget that the
        attempts themselves would have respected.  Given the remaining
        budget this returns ``min(backoff, remaining)``, or ``None`` when
        no usable time is left (the retry would start at or after the
        deadline and could only be cancelled).  ``remaining_s=None``
        means "no query budget" and degrades to :meth:`backoff_s`.
        """
        wait = self.backoff_s(retry_number)
        if remaining_s is None:
            return wait
        if wait >= remaining_s:
            # Sleeping would consume the whole remainder: the retry
            # would wake at (or past) the deadline with nothing left.
            return None
        return min(wait, remaining_s)

    def may_retry(self, retries_done: int) -> bool:
        """Whether another retry fits the retry budget."""
        return retries_done < self.max_retries

    @staticmethod
    def no_retry(on_exhaust: OnExhaust = OnExhaust.SKIP) -> "RetryPolicy":
        """Single attempt per operation; degrade (or fail) immediately."""
        return RetryPolicy(max_retries=0, on_exhaust=on_exhaust)

    @staticmethod
    def default() -> "RetryPolicy":
        """Three retries, exponential backoff from 100 ms, degrade."""
        return RetryPolicy()


@dataclass(frozen=True)
class CompletenessReport:
    """How much of the true answer a (possibly degraded) run recovered.

    Skipping a dead source can only *lose* answers in fusion plans, so
    ``spurious`` should stay empty; it is reported anyway as a safety
    check on that invariant.  When built from a runtime trace the report
    also distinguishes operations lost to skips (``skipped_ops``) from
    operations rescued by a replica (``recovered_ops``) — the difference
    between the two is exactly what replication buys.
    """

    expected: frozenset[Any]
    answered: frozenset[Any]
    #: Remote operations that degraded (retry budget spent, no replica).
    skipped_ops: int = 0
    #: Remote operations served by a substitute of their planned source.
    recovered_ops: int = 0

    @property
    def missing(self) -> frozenset[Any]:
        return self.expected - self.answered

    @property
    def spurious(self) -> frozenset[Any]:
        return self.answered - self.expected

    @property
    def completeness(self) -> float:
        """Recall: fraction of true answers recovered (1.0 when exact)."""
        if not self.expected:
            return 1.0
        return len(self.expected & self.answered) / len(self.expected)

    @property
    def exact(self) -> bool:
        return self.answered == self.expected

    def summary(self) -> str:
        text = (
            f"{len(self.answered)}/{len(self.expected)} answers, "
            f"completeness {self.completeness:.2f}"
            + (f", {len(self.spurious)} spurious!" if self.spurious else "")
        )
        if self.skipped_ops or self.recovered_ops:
            text += (
                f" ({self.skipped_ops} ops skipped, "
                f"{self.recovered_ops} recovered via replicas)"
            )
        return text


def completeness_report(
    federation: Federation,
    query: FusionQuery,
    answered: frozenset[Any],
    trace: "RuntimeTrace | None" = None,
) -> CompletenessReport:
    """Compare an executed answer against the reference evaluator.

    Passing the runtime trace attributes the loss: how many remote
    operations were skipped outright versus recovered via replicas.
    """
    return CompletenessReport(
        expected=reference_answer(federation, query),
        answered=answered,
        skipped_ops=len(trace.degraded_steps) if trace is not None else 0,
        recovered_ops=len(trace.recovered_steps) if trace is not None else 0,
    )
