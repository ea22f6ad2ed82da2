"""Seeded workload generation and the load-generator harness.

A workload is a Poisson arrival process over a pool of fusion-query SQL
texts, split across weighted tenants; a service may add a *churn wave*
(:class:`~repro.runtime.faults.ChurnWave`, part of its
:class:`~repro.runtime.faults.Faults`) — a window of the workload
timeline during which chosen sources turn flaky, modeling the fact that
internet sources degrade while traffic keeps coming.  Everything
derives from one workload seed: arrival times, tenant assignment, query
choice, and (via :func:`repro.serve.service.derive_seed`) every query's
private fault stream — so a deterministic-mode run replays
byte-identically.

:func:`run_workload` drives either service mode with the same arrival
list and folds the outcome into a :class:`WorkloadReport` with the
headline serving numbers: queries/sec, p50/p95/p99 latency, per-tenant
admission shares, and shedding counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import AdmissionError, CostModelError
from repro.obs.spans import PHASES
from repro.serve.deadline import valid_deadline
from repro.serve.tenants import TenantSpec


@dataclass(frozen=True)
class Arrival:
    """One generated query arrival."""

    at_s: float
    tenant: str
    sql: str
    deadline_s: float | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to regenerate one workload exactly.

    Attributes:
        queries: Pool of fusion-query SQL texts drawn from uniformly.
        tenants: Tenant roster; arrival tenants are drawn with
            probability proportional to ``weight``.
        count: Number of arrivals to generate.
        rate_qps: Mean arrival rate (Poisson process).
        seed: Master seed for arrival times, tenant draws, and query
            choice.
        deadline_s: End-to-end answer deadline attached to every
            arrival (``None`` = no deadlines).
    """

    queries: tuple[str, ...]
    tenants: tuple[TenantSpec, ...] = (TenantSpec("default"),)
    count: int = 50
    rate_qps: float = 2.0
    seed: int = 0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.queries:
            raise CostModelError("workload needs at least one query")
        if self.count < 1:
            raise CostModelError(f"count must be >= 1, got {self.count}")
        if not self.rate_qps > 0:
            raise CostModelError(
                f"rate_qps must be positive, got {self.rate_qps}"
            )
        if self.deadline_s is not None and not valid_deadline(
            self.deadline_s
        ):
            raise CostModelError(
                f"deadline_s must be finite and positive, "
                f"got {self.deadline_s}"
            )


def generate_arrivals(spec: WorkloadSpec) -> list[Arrival]:
    """The workload's arrival list — pure function of the spec."""
    rng = random.Random(f"workload:{spec.seed}")
    names = [tenant.name for tenant in spec.tenants]
    weights = [tenant.weight for tenant in spec.tenants]
    arrivals = []
    now = 0.0
    for __ in range(spec.count):
        now += rng.expovariate(spec.rate_qps)
        tenant = rng.choices(names, weights=weights, k=1)[0]
        sql = spec.queries[rng.randrange(len(spec.queries))]
        arrivals.append(
            Arrival(
                at_s=round(now, 6),
                tenant=tenant,
                sql=sql,
                deadline_s=spec.deadline_s,
            )
        )
    return arrivals


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not 0 <= q <= 100:
        raise CostModelError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class WorkloadReport:
    """Outcome of one workload run against a service."""

    mode: str
    submitted: int
    completed: int
    failed: int
    rejected: dict[str, int]
    duration_s: float
    latencies_s: list[float] = field(default_factory=list)
    admitted_by_tenant: dict[str, int] = field(default_factory=dict)
    latency_by_tenant: dict[str, list[float]] = field(default_factory=dict)
    max_in_flight: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    deadline_misses: int = 0
    partial_answers: int = 0
    #: Per-phase critical-path seconds, one entry per completed query
    #: (empty when the service ran with tracing off).  Keys follow
    #: :data:`repro.obs.spans.PHASES`.
    phase_latencies_s: dict[str, list[float]] = field(default_factory=dict)
    #: Heaviest ``phase[@detail]`` blocking contributors across the
    #: whole run, as (label, total seconds), largest first.
    critical_contributors: list[tuple[str, float]] = field(
        default_factory=list
    )

    @property
    def qps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def shed_queue(self) -> int:
        """Arrivals refused because the run queue was full."""
        return self.rejected.get("queue_full", 0)

    @property
    def shed_quota(self) -> int:
        """Arrivals refused by a per-tenant quota."""
        return self.rejected.get("quota", 0)

    @property
    def shed_deadline(self) -> int:
        """Arrivals shed because their deadline was unusable or
        predicted infeasible."""
        return self.rejected.get("deadline", 0)

    @property
    def p50_s(self) -> float:
        return percentile(self.latencies_s, 50)

    @property
    def p95_s(self) -> float:
        return percentile(self.latencies_s, 95)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies_s, 99)

    def phase_percentiles(self) -> dict[str, tuple[float, float, float]]:
        """p50/p95/p99 of per-query critical-path seconds, by phase.

        Only phases observed at least once appear, in
        :data:`~repro.obs.spans.PHASES` order — so the dominant tail
        phase is readable straight off the p99 column.
        """
        out: dict[str, tuple[float, float, float]] = {}
        for phase in PHASES:
            values = self.phase_latencies_s.get(phase, [])
            if not values or not any(v > 0 for v in values):
                continue
            out[phase] = (
                percentile(values, 50),
                percentile(values, 95),
                percentile(values, 99),
            )
        return out

    def dominant_phase(self, q: float = 99) -> str:
        """The phase with the largest percentile-``q`` contribution."""
        best, best_value = "", -1.0
        for phase in PHASES:
            values = self.phase_latencies_s.get(phase, [])
            value = percentile(values, q) if values else 0.0
            if value > best_value:
                best, best_value = phase, value
        return best

    def phase_breakdown(self) -> str:
        """Critical-path attribution as a text table (p50/p95/p99 per
        phase plus the top blocking contributors)."""
        rows = self.phase_percentiles()
        if not rows:
            return "phase breakdown: no traced queries"
        lines = ["critical-path latency by phase (s):"]
        lines.append(
            f"  {'phase':<14} {'p50':>8} {'p95':>8} {'p99':>8}"
        )
        for phase, (p50, p95, p99) in rows.items():
            lines.append(
                f"  {phase:<14} {p50:>8.3f} {p95:>8.3f} {p99:>8.3f}"
            )
        if self.critical_contributors:
            lines.append("top critical-path contributors (total blocked s):")
            for label, seconds in self.critical_contributors:
                lines.append(f"  {label:<24} {seconds:>8.3f}")
        return "\n".join(lines)

    def summary(self) -> str:
        shed = sum(self.rejected.values())
        text = (
            f"{self.completed}/{self.submitted} completed "
            f"({self.failed} failed, {shed} shed) in "
            f"{self.duration_s:.3f}s — {self.qps:.2f} q/s, latency "
            f"p50 {self.p50_s:.3f}s / p95 {self.p95_s:.3f}s / "
            f"p99 {self.p99_s:.3f}s, max in-flight {self.max_in_flight}"
        )
        if self.shed_deadline or self.deadline_misses or self.partial_answers:
            text += (
                f"; deadlines: {self.shed_deadline} shed, "
                f"{self.deadline_misses} missed, "
                f"{self.partial_answers} partial answers"
            )
        return text


def run_workload(service, arrivals: Sequence[Arrival]) -> WorkloadReport:
    """Feed an arrival list through a service and report the outcome.

    Works with both modes: under the virtual clock each arrival's
    ``at_s`` advances simulated time; under threads arrivals are
    submitted as fast as the queue accepts them (their spacing already
    shaped the churn assignment at generation time) and the run is
    drained before measuring.
    """
    deterministic = service.mode == "deterministic"
    rejected: dict[str, int] = {}
    tickets = []
    for arrival in arrivals:
        try:
            if deterministic:
                ticket = service.submit(
                    arrival.sql,
                    tenant=arrival.tenant,
                    at_s=arrival.at_s,
                    deadline_s=arrival.deadline_s,
                )
            else:
                ticket = service.submit(
                    arrival.sql,
                    tenant=arrival.tenant,
                    deadline_s=arrival.deadline_s,
                )
        except AdmissionError as exc:
            rejected[exc.reason] = rejected.get(exc.reason, 0) + 1
            continue
        tickets.append(ticket)
    if deterministic:
        duration = service.run_until_idle()
    else:
        service.drain()
        duration = service.elapsed_s
    done = [t for t in tickets if t.status == "done"]
    failed = [t for t in tickets if t.status == "failed"]
    latency_by_tenant: dict[str, list[float]] = {}
    for ticket in done:
        latency_by_tenant.setdefault(ticket.tenant, []).append(
            ticket.latency_s
        )
    phase_latencies: dict[str, list[float]] = {}
    contributors: list[tuple[str, float]] = []
    if getattr(service, "spans", None) is not None:
        from repro.obs.spans import top_contributors

        for ticket in done + failed:
            for phase, seconds in ticket.phases.items():
                phase_latencies.setdefault(phase, []).append(seconds)
        contributors = top_contributors(service.blocked_s, limit=5)
    cache = service.plan_cache
    return WorkloadReport(
        mode=service.mode,
        submitted=len(arrivals),
        completed=len(done),
        failed=len(failed),
        rejected=rejected,
        duration_s=duration,
        latencies_s=[t.latency_s for t in done],
        admitted_by_tenant=dict(service.admission.admitted_total),
        latency_by_tenant=latency_by_tenant,
        max_in_flight=service.max_in_flight,
        plan_cache_hits=cache.hits if cache is not None else 0,
        plan_cache_misses=cache.misses if cache is not None else 0,
        deadline_misses=sum(1 for t in done if t.deadline_missed),
        partial_answers=sum(1 for t in done if t.partial),
        phase_latencies_s=phase_latencies,
        critical_contributors=contributors,
    )
