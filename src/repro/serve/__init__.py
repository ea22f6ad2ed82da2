"""repro.serve — a concurrent multi-query serving tier over the mediator.

Public surface:

* :class:`~repro.serve.service.MediatorService` — admit, schedule, and
  execute many fusion queries over one federation, in a replayable
  virtual-clock mode or a wall-clock thread-pool mode.
* :class:`~repro.serve.tenants.TenantSpec` /
  :class:`~repro.serve.tenants.FairScheduler` — weighted-fair
  (stride) dispatch across tenants.
* :class:`~repro.serve.admission.AdmissionController` — bounded run
  queue, per-tenant quotas, and latency-aware deadline shedding with
  typed refusals.
* :mod:`~repro.serve.deadline` — end-to-end query deadlines
  (:class:`Deadline`) and the queue-wait/completion predictor
  (:class:`QueueWaitEstimator`) behind ``shed_policy="deadline"``.
* :class:`~repro.serve.pools.SourcePools` — bounded per-source
  connection slots.
* :mod:`~repro.serve.workload` — seeded workload generation
  (:class:`WorkloadSpec`) and the load-generator harness
  (:func:`run_workload`, :class:`WorkloadReport`).
  :class:`ChurnWave` (a mid-workload window of source flakiness) is
  :class:`repro.runtime.faults.ChurnWave`, re-exported here.
"""

from repro.runtime.faults import ChurnWave
from repro.serve.admission import AdmissionController
from repro.serve.deadline import (
    SHED_POLICIES,
    Deadline,
    QueueWaitEstimator,
    valid_deadline,
)
from repro.serve.pools import SourcePools
from repro.serve.service import MediatorService, QueryTicket, derive_seed
from repro.serve.tenants import FairScheduler, TenantSpec
from repro.serve.workload import (
    Arrival,
    WorkloadReport,
    WorkloadSpec,
    generate_arrivals,
    percentile,
    run_workload,
)

__all__ = [
    "AdmissionController",
    "Arrival",
    "ChurnWave",
    "Deadline",
    "FairScheduler",
    "MediatorService",
    "QueryTicket",
    "QueueWaitEstimator",
    "SHED_POLICIES",
    "SourcePools",
    "TenantSpec",
    "WorkloadReport",
    "WorkloadSpec",
    "derive_seed",
    "generate_arrivals",
    "percentile",
    "run_workload",
    "valid_deadline",
]
