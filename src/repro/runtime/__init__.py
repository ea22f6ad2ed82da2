"""Concurrent runtime: discrete-event execution with faults and retries.

The paper's conclusion names "minimizing the response time of a query in
a parallel execution model" as future work; :mod:`repro.mediator.schedule`
analyzes that model statically.  This package *executes* it: a
deterministic discrete-event engine (:mod:`~repro.runtime.engine`) runs
plans concurrently on a virtual clock, a fault layer
(:mod:`~repro.runtime.faults`) makes sources flaky the way Internet
sources are, a policy layer (:mod:`~repro.runtime.policy`) retries with
exponential backoff and degrades gracefully, and a trace layer
(:mod:`~repro.runtime.trace`) records per-operation spans with an ASCII
timeline.  Everything is seeded and replayable.

On top of the engine sit the replica-aware resilience layers: per-source
health tracking and circuit breakers (:mod:`~repro.runtime.health`),
and hedged dispatch onto substitutable sources (:class:`Resilience`);
the mediator re-plans around dead sources between engine rounds
(:meth:`repro.mediator.session.Mediator.answer` with ``replan=N``).

Faults are not only wire-level: the injector can also tamper with the
*payload* of a successful answer (truncation, stale snapshots,
duplicates, corrupt values — :class:`~repro.runtime.faults.DataFaultProfile`),
and the answer-verification layer (:mod:`~repro.runtime.verify`)
validates, sanitizes, and cross-replica-votes those answers, feeding a
per-source quality score that can quarantine a lying source for good
(``Resilience(quarantine=True)``).  One
:class:`~repro.runtime.faults.Faults` value declares a whole fault
setup — wire profiles, data faults, a churn wave — and
:meth:`~repro.runtime.faults.Faults.injector` realises it with a seed.
"""

from repro.runtime.availability import (
    AvailabilityModel,
    CompletenessEstimate,
    ConditionSurvival,
    ObservedAvailability,
    expected_completeness,
)
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import (
    AttemptFate,
    AttemptOutcome,
    ChurnWave,
    DataFate,
    DataFaultProfile,
    DataTamper,
    FaultInjector,
    FaultProfile,
    Faults,
)
from repro.runtime.health import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DataQuality,
    HealthRegistry,
    SourceHealth,
)
from repro.runtime.policy import (
    CompletenessReport,
    OnExhaust,
    RetryPolicy,
    completeness_report,
)
from repro.runtime.trace import AttemptSpan, OpSpan, OpStatus, RuntimeTrace
from repro.runtime.verify import (
    VERIFY_MODES,
    AnswerReport,
    AnswerVerifier,
    VoteResult,
    validate_mode,
)

__all__ = [
    "Resilience",
    "RuntimeEngine",
    "FaultInjector",
    "FaultProfile",
    "Faults",
    "ChurnWave",
    "AttemptFate",
    "AttemptOutcome",
    "DataFate",
    "DataFaultProfile",
    "DataTamper",
    "AnswerVerifier",
    "AnswerReport",
    "VoteResult",
    "VERIFY_MODES",
    "validate_mode",
    "DataQuality",
    "RetryPolicy",
    "OnExhaust",
    "CompletenessReport",
    "completeness_report",
    "RuntimeTrace",
    "OpSpan",
    "AttemptSpan",
    "OpStatus",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "HealthRegistry",
    "SourceHealth",
    "AvailabilityModel",
    "ObservedAvailability",
    "CompletenessEstimate",
    "ConditionSurvival",
    "expected_completeness",
]
