"""Reproduction of "Fusion Queries over Internet Databases" (EDBT 1998).

A fusion query searches autonomous, overlapping Internet sources for the
entities (merge-attribute values) that satisfy a set of conditions —
possibly at *different* sources.  This library reproduces the paper's
full stack:

* a simulated federation of autonomous sources behind wrappers with
  selection / semijoin / load operations, capability tiers, and
  per-source network charges (:mod:`repro.sources`);
* the fusion-query model with SQL parsing and pattern detection
  (:mod:`repro.query`);
* the general cost model of Sec. 2.4 with concrete and calibrated
  instances (:mod:`repro.costs`);
* first-class plans spanning the Sec. 2.5 taxonomy — filter, semijoin,
  semijoin-adaptive, simple, extended (:mod:`repro.plans`);
* the FILTER / SJ / SJA optimizers of Sec. 3, the SJA+ postoptimizer of
  Sec. 4, greedy variants, brute-force validators, and the Sec. 5
  join-over-union baseline (:mod:`repro.optimize`);
* a mediator runtime that executes plans, accounts actual costs, and
  verifies answers against a materialized-U oracle
  (:mod:`repro.mediator`);
* a deterministic discrete-event *concurrent* runtime with fault
  injection, retry policies, and execution tracing
  (:mod:`repro.runtime`);
* a multi-query serving tier with admission control, per-tenant
  weighted-fair scheduling, per-source connection pools, and a seeded
  load generator (:mod:`repro.serve`).

Quickstart:
    >>> import repro
    >>> federation, query = repro.dmv_fig1()
    >>> mediator = repro.Mediator(federation)
    >>> sorted(mediator.answer(query).items)
    ['J55', 'T21']
"""

from repro.query.fusion import FusionQuery
from repro.query.sqlparse import is_fusion_query, parse_fusion_query
from repro.relational.parser import parse_condition
from repro.relational.schema import Attribute, DataType, Schema
from repro.relational.relation import Relation
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.generators import (
    SyntheticConfig,
    bibliographic_federation,
    bibliographic_query,
    build_synthetic,
    dmv_fig1,
    synthetic_query,
)
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.statistics import (
    ExactStatistics,
    HistogramStatistics,
    SampledStatistics,
)
from repro.sources.table_source import TableSource
from repro.costs.charge import ChargeCostModel
from repro.costs.calibrated import CalibratedCostModel
from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel, UniformCostModel
from repro.plans.builder import build_filter_plan, build_staged_plan
from repro.plans.classify import PlanClass, classify
from repro.plans.cost import estimate_plan_cost
from repro.plans.plan import Plan
from repro.optimize import (
    FilterOptimizer,
    GreedySJAOptimizer,
    JoinOverUnionOptimizer,
    Planning,
    SJAOptimizer,
    SJAPlusOptimizer,
    SJOptimizer,
    SelectivityOrderOptimizer,
    search_ordering,
)
from repro.mediator.executor import Executor
from repro.mediator.plan_cache import PlanCache
from repro.mediator.reference import reference_answer
from repro.mediator.session import Mediator
from repro.mediator.schedule import estimated_response_time, response_time
from repro.mediator.phases import PhaseStrategy, answer_with_records
from repro.optimize.response_time import ResponseTimeSJAOptimizer
from repro.costs.correlation import CorrelatedSizeEstimator, CorrelationModel
from repro.runtime import (
    BreakerConfig,
    CompletenessReport,
    FaultInjector,
    FaultProfile,
    Faults,
    HealthRegistry,
    OnExhaust,
    Resilience,
    RetryPolicy,
    RuntimeEngine,
    RuntimeTrace,
    completeness_report,
)
from repro.sources.generators import replicate_federation
from repro.io import load_federation, save_federation
from repro.serve import (
    ChurnWave,
    MediatorService,
    QueryTicket,
    TenantSpec,
    WorkloadReport,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
)

__version__ = "1.0.0"

__all__ = [
    "FusionQuery",
    "parse_fusion_query",
    "is_fusion_query",
    "parse_condition",
    "Attribute",
    "DataType",
    "Schema",
    "Relation",
    "SourceCapabilities",
    "SemijoinSupport",
    "LinkProfile",
    "TableSource",
    "RemoteSource",
    "Federation",
    "SyntheticConfig",
    "build_synthetic",
    "synthetic_query",
    "dmv_fig1",
    "bibliographic_federation",
    "bibliographic_query",
    "ExactStatistics",
    "SampledStatistics",
    "HistogramStatistics",
    "CostModel",
    "UniformCostModel",
    "ChargeCostModel",
    "CalibratedCostModel",
    "SizeEstimator",
    "Plan",
    "PlanClass",
    "classify",
    "build_filter_plan",
    "build_staged_plan",
    "estimate_plan_cost",
    "FilterOptimizer",
    "SJOptimizer",
    "SJAOptimizer",
    "SJAPlusOptimizer",
    "GreedySJAOptimizer",
    "SelectivityOrderOptimizer",
    "JoinOverUnionOptimizer",
    "search_ordering",
    "Planning",
    "Executor",
    "Mediator",
    "PlanCache",
    "reference_answer",
    "response_time",
    "estimated_response_time",
    "PhaseStrategy",
    "answer_with_records",
    "ResponseTimeSJAOptimizer",
    "CorrelationModel",
    "CorrelatedSizeEstimator",
    "RuntimeEngine",
    "RuntimeTrace",
    "FaultInjector",
    "FaultProfile",
    "Faults",
    "Resilience",
    "RetryPolicy",
    "OnExhaust",
    "CompletenessReport",
    "completeness_report",
    "BreakerConfig",
    "HealthRegistry",
    "replicate_federation",
    "load_federation",
    "save_federation",
    "MediatorService",
    "QueryTicket",
    "TenantSpec",
    "ChurnWave",
    "WorkloadSpec",
    "WorkloadReport",
    "generate_arrivals",
    "run_workload",
]
