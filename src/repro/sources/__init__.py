"""Simulated autonomous Internet sources and their wrappers.

The paper's setting is a mediator talking to autonomous sources over the
Internet through wrappers that export ``sq`` (selection) and ``sjq``
(semijoin) queries (Sec. 2.1).  We have no network, so this package
simulates the whole stack in-process:

* :mod:`~repro.sources.table_source` — the autonomous database engine
  itself (an in-memory relation with selection/semijoin/load evaluation);
* :mod:`~repro.sources.capabilities` — what each wrapper supports
  (native semijoins, passed bindings, full loads — Sec. 2.3);
* :mod:`~repro.sources.network` — per-message overhead, per-item
  transfer charges, latency, and traffic accounting;
* :mod:`~repro.sources.remote` — the wrapper a mediator actually talks
  to: capability checks + network charging;
* :mod:`~repro.sources.registry` — a :class:`Federation` of sources
  forming the union view ``U``;
* :mod:`~repro.sources.statistics` — exact / sampled / histogram
  statistics feeding the cost functions (refs [5, 15, 25]);
* :mod:`~repro.sources.sampling` — query-sampling cost calibration in
  the style of Zhu & Larson [25];
* :mod:`~repro.sources.generators` — the DMV example of Fig. 1 and
  synthetic workload generators with controllable overlap, selectivity,
  and heterogeneity.
"""

from repro.sources.capabilities import SourceCapabilities
from repro.sources.network import LinkProfile, TrafficLog, TrafficRecord
from repro.sources.table_source import TableSource
from repro.sources.remote import RemoteSource
from repro.sources.registry import Federation

__all__ = [
    "SourceCapabilities",
    "LinkProfile",
    "TrafficLog",
    "TrafficRecord",
    "TableSource",
    "RemoteSource",
    "Federation",
]
