"""End-to-end telemetry for the fusion-query mediator.

Execution used to be observable only through the ad-hoc ASCII renderers
(:class:`~repro.runtime.trace.RuntimeTrace`, ``HealthRegistry.report``).
This package makes observation a first-class subsystem with **one
source and its folds**, all on the runtime's *virtual* clock so every
output is deterministic and replayable.

The source is :mod:`~repro.obs.events` — a structured event log: every
wrapper query, semijoin send-set, retry, hedge, breaker transition,
re-plan round and serve-lifecycle step as a JSONL record with a stable,
validated schema (:data:`~repro.obs.events.EVENT_SCHEMA`), held in
memory as one typed record per event, whose class is generated from
the schema and whose constructor is the schema check.  The engine,
executor, health registry, re-planner and serving tier build those
records on the :class:`~repro.obs.recorder.Recorder`'s clock and round
and hand them to it; the recorder appends the same objects.  With no
recorder attached (the default) nothing is exported; the engine still
folds its trace from the same records it would have handed over.

Everything else is a pure function of the event stream, so it can be
rebuilt from a persisted JSONL file as well as from a live log:

* :mod:`~repro.obs.fold` — the metric catalogue: one small fold per
  event type into the counters, gauges and fixed-bucket histograms of
  :mod:`~repro.obs.metrics` (JSON and Prometheus exporters, scored by
  the SLOs of :mod:`~repro.obs.slo`).  A recorder with a registry
  attached queues each event on it, and the registry applies the fold
  when it is next read;
  :func:`~repro.obs.fold.metrics_from_events` applies it to a log,
  and both export the same bytes;
* the runtime's own trace — :meth:`RuntimeTrace.from_events
  <repro.runtime.trace.RuntimeTrace.from_events>` is the one fold of a
  run's records, live or read back from JSONL
  (:meth:`~repro.runtime.trace.RuntimeTrace.runs` splits a log into its
  runs), so a persisted log renders the ASCII timeline byte for byte.

Three views read that trace, not the events: causal span trees
(:mod:`~repro.obs.spans`: :func:`~repro.obs.spans.execute_spans`
renders a query's traces as the op / attempt / backoff / hedge /
marker subtree of its span tree, :func:`~repro.obs.spans.serve_spans`
adds the admission / queue / plan / pool / execute / merge skeleton
from the ticket's timestamps, as immutable slotted records exportable
as Chrome trace-event JSON; one critical-path core,
:func:`~repro.obs.spans.critical_path`, attributes end-to-end latency
to phases exactly, fed at completion from the skeleton and the
rendering's grouping and by :func:`~repro.obs.spans.analyze_trace`
from persisted spans; a workload report reads the tiling done at
completion — the per-phase seconds on each ticket and the service's
running ``phase[@detail]`` totals — and tiles nothing again), the
per-step / per-source / per-condition
:class:`~repro.obs.profile.QueryProfile` (one trace per re-plan round;
predicted vs observed cost), and
:class:`repro.sources.observed.ObservedStatistics`, which closes the
loop: ``observe(traces)`` mines runs for cardinalities and selectivities,
letting a mediator plan from what it has *watched happen*.
"""

from repro.obs.events import (
    EVENT_SCHEMA,
    Event,
    EventLog,
    validate_record,
)
from repro.obs.fold import fold_event, metrics_from_events
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    traffic_metrics_observer,
)
from repro.obs.profile import QueryProfile
from repro.obs.recorder import Recorder
from repro.obs.slo import (
    SLOMonitor,
    SLOSpec,
    SLOStatus,
    parse_slo_spec,
)
from repro.obs.spans import (
    CriticalPath,
    PhaseSlice,
    Span,
    SpanLog,
    analyze_log,
    analyze_trace,
    derive_trace_id,
    execute_spans,
    serve_spans,
    top_contributors,
    validate_chrome_trace,
)

__all__ = [
    "EVENT_SCHEMA",
    "Event",
    "EventLog",
    "validate_record",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "fold_event",
    "metrics_from_events",
    "traffic_metrics_observer",
    "QueryProfile",
    "Recorder",
    "SLOMonitor",
    "SLOSpec",
    "SLOStatus",
    "parse_slo_spec",
    "CriticalPath",
    "PhaseSlice",
    "Span",
    "SpanLog",
    "analyze_log",
    "analyze_trace",
    "derive_trace_id",
    "execute_spans",
    "serve_spans",
    "top_contributors",
    "validate_chrome_trace",
]
