"""Exception hierarchy shared across the fusion-query reproduction.

Every error raised by the library derives from :class:`FusionError`, so
callers can catch one type at the API boundary.  Subclasses are split by
subsystem (schema/data, query, source, planning, execution) because the
mediator reacts differently to each: a :class:`CapabilityError` is an
infinite-cost route, a :class:`PlanValidationError` a programming bug.
A transient source fault raises nothing: the runtime engine judges each
wire attempt (:mod:`repro.runtime.faults`) and retries it.
"""

from __future__ import annotations


class FusionError(Exception):
    """Base class for all errors raised by this library."""

    #: What an engine run had recorded when this error ended it.
    records: tuple = ()


class SchemaError(FusionError):
    """A relation, row, or attribute violates its declared schema."""


class ConditionError(FusionError):
    """A condition is malformed or references unknown attributes."""


class ParseError(FusionError):
    """A condition string or SQL query could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.text = text
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position} in {text!r})"
        super().__init__(message)


class QueryError(FusionError):
    """A fusion query is malformed (e.g. no conditions, bad merge attribute)."""


class NotAFusionQueryError(QueryError):
    """A SQL statement does not match the fusion-query pattern of Sec. 2.2."""


class SourceError(FusionError):
    """Base class for errors reported by a source/wrapper."""


class CapabilityError(SourceError):
    """An operation was requested that the source cannot support at all.

    This corresponds to the paper's "infinite cost" rule (Sec. 2.3): if a
    source supports neither semijoin queries nor passed-binding selections,
    no plan may route a semijoin through it.
    """


class UnknownSourceError(SourceError):
    """A plan or query referenced a source that is not registered."""


class StatisticsError(FusionError):
    """Statistics were requested that have not been collected."""


class CostModelError(FusionError):
    """A cost model was queried inconsistently (e.g. negative sizes)."""


class PlanValidationError(FusionError):
    """A plan is structurally invalid (undefined register, wrong types...)."""


class OptimizationError(FusionError):
    """The optimizer could not produce any finite-cost plan."""


class ExecutionError(FusionError):
    """Plan execution failed at the mediator."""


class ObservabilityError(FusionError):
    """Telemetry misuse: bad metric registration or an invalid event."""


class ServiceError(FusionError):
    """Base class for errors raised by the serving tier (:mod:`repro.serve`)."""


class AdmissionError(ServiceError):
    """A query was refused admission — backpressure, not a bug.

    Carries the tenant and a machine-readable ``reason`` so callers (and
    the load generator) can distinguish shedding modes without string
    matching.
    """

    reason = "rejected"

    def __init__(self, tenant: str, message: str):
        self.tenant = tenant
        super().__init__(message)


class QueueFullError(AdmissionError):
    """The service's bounded run queue is full; retry later."""

    reason = "queue_full"

    def __init__(self, tenant: str, queued: int, limit: int):
        super().__init__(
            tenant,
            f"run queue full ({queued}/{limit}); query from tenant "
            f"{tenant!r} shed",
        )


class QuotaExceededError(AdmissionError):
    """The tenant already has its full quota of outstanding queries."""

    reason = "quota"

    def __init__(self, tenant: str, outstanding: int, quota: int):
        super().__init__(
            tenant,
            f"tenant {tenant!r} at quota ({outstanding}/{quota} "
            "outstanding queries)",
        )


class DeadlineInfeasibleError(AdmissionError):
    """The query's deadline cannot be met, so it is shed at admission.

    Raised by latency-aware load shedding: the predicted completion time
    (queue wait from recent per-tenant service times plus the plan's
    predicted makespan) already misses the caller's deadline, so running
    the query would only waste capacity that on-time queries need.  Also
    raised for a deadline that is unusable on arrival (zero, negative,
    or non-finite).
    """

    reason = "deadline"

    def __init__(
        self, tenant: str, deadline_s: float, predicted_s: float | None = None
    ):
        self.deadline_s = deadline_s
        self.predicted_s = predicted_s
        if predicted_s is None:
            message = (
                f"deadline {deadline_s!r}s is unusable for tenant "
                f"{tenant!r} (must be finite and positive)"
            )
        else:
            message = (
                f"predicted completion {predicted_s:.3f}s misses the "
                f"{deadline_s:.3f}s deadline for tenant {tenant!r}; shed"
            )
        super().__init__(tenant, message)


class ServiceClosedError(AdmissionError):
    """The service is shutting down and accepts no new queries."""

    reason = "closed"

    def __init__(self, tenant: str = ""):
        super().__init__(tenant, "service is closed")


class UnknownTenantError(ServiceError):
    """A query named a tenant the service was not configured with."""
