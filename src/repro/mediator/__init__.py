"""The mediator runtime: executing plans against the federation.

* :mod:`~repro.mediator.executor` — evaluates a plan operation by
  operation against the remote sources, with retry on injected transient
  failures, per-step tracing, and actual-cost accounting from the
  simulated network;
* :mod:`~repro.mediator.reference` — the correctness oracle: materialize
  ``U`` and evaluate the fusion query definition directly;
* :mod:`~repro.mediator.plan_cache` — the LRU :class:`PlanCache`
  (canonical query fingerprint + statistics fingerprint) that lets
  repeated fusion queries skip optimization entirely;
* :mod:`~repro.mediator.adaptive` — the stage log that
  ``Mediator.answer_adaptive`` returns (one record per stage run);
* :mod:`~repro.mediator.session` — the :class:`Mediator` facade a
  downstream user talks to: register a federation, hand it SQL or a
  :class:`~repro.query.fusion.FusionQuery`, get the fused answer (and
  optionally the second-phase full records).
"""

from repro.mediator.executor import ExecutionResult, Executor, StepTrace
from repro.mediator.plan_cache import PlanCache
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator, MediatorAnswer

__all__ = [
    "Executor",
    "ExecutionResult",
    "StepTrace",
    "reference_answer",
    "Mediator",
    "MediatorAnswer",
    "PlanCache",
]
