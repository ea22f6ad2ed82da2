"""Query profiles: per-step / per-source / per-condition rollups.

A :class:`QueryProfile` is a view of one query's runtime traces — one
:class:`~repro.runtime.trace.RuntimeTrace` per round — in the three
shapes an operator actually asks for after a query:

* **per step** — the rounds' :class:`~repro.runtime.trace.OpSpan` rows:
  what each plan operation cost, how long it spent on the wire vs.
  end-to-end (queue + backoff included), and how it ended;
* **per source** — traffic moved (messages, items shipped and received,
  rows bulk-loaded), attempts and hedges, connection-busy seconds;
* **per condition** — selection items fetched, semijoin binding items
  shipped, and items *confirmed* (survivors received back) for every
  fusion condition.

The per-source and per-condition rollups are one pass over the rounds'
:class:`~repro.runtime.trace.AttemptSpan` records.  Rounds run back to
back on one clock, so the makespan and the cost are sums over them.

When the planner's prediction is supplied, the profile also reports
predicted vs. observed cost in total and per source — the gap that
:class:`repro.sources.observed.ObservedStatistics` exists to close.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.runtime.faults import AttemptFate
from repro.runtime.trace import OpSpan, RuntimeTrace


@dataclass(frozen=True)
class SourceProfile:
    """One source's observed totals across the query's rounds."""

    source: str
    attempts: int
    failures: int
    hedges: int
    busy_s: float
    cost: float
    items_sent: int
    items_received: int
    rows_loaded: int
    messages: int


@dataclass(frozen=True)
class ConditionProfile:
    """One fusion condition's observed totals across all sources."""

    condition: str
    sq_items: int  # items returned by selection queries
    shipped: int  # semijoin binding items shipped to sources
    confirmed: int  # semijoin survivors received back
    cost: float


@dataclass(frozen=True)
class QueryProfile:
    """Per-step / per-source / per-condition view of one query's rounds.

    Attributes:
        traces: One trace per round, in order (one for a plain run).
        items: How many items the query's answer holds.
        predicted_cost / predicted_by_source: The planner's estimate of
            the first round's plan, in total and per source.
        sources: Per serving source, in name order.
        conditions: Per fusion condition, in SQL order.
        wire_s: Connection-busy seconds summed over every attempt.
    """

    traces: tuple[RuntimeTrace, ...]
    items: int
    predicted_cost: float | None = None
    predicted_by_source: dict[str, float] = field(default_factory=dict)
    sources: tuple[SourceProfile, ...] = field(init=False)
    conditions: tuple[ConditionProfile, ...] = field(init=False)
    wire_s: float = field(init=False)

    def __post_init__(self) -> None:
        """Roll the attempts up in one pass.  A condition gets a row
        once a semijoin shipped its bindings or an attempt succeeded."""
        sources: dict[str, list] = {}
        conditions: dict[str, list] = {}
        wire_s = 0.0
        for trace in self.traces:
            for span in trace.spans:
                condition = span.condition
                kind = span.operation.kind.value
                for attempt in span.attempts:
                    duration = attempt.duration_s
                    ok = attempt.fate is AttemptFate.OK
                    wire_s += duration
                    name = attempt.source or span.source
                    row = (  # in SourceProfile's field order
                        1, not ok, attempt.hedge, duration, attempt.cost,
                        attempt.items_sent, attempt.items_received,
                        attempt.rows_loaded, attempt.messages,
                    )
                    totals = sources.get(name, _NO_TRAFFIC)
                    sources[name] = list(map(operator.add, totals, row))
                    if not condition or not (ok or kind == "sjq"):
                        continue
                    sums = conditions.setdefault(condition, [0, 0, 0, 0.0])
                    if kind == "sjq":
                        sums[1] += attempt.items_sent
                    if ok:
                        sums[3] += attempt.cost
                        if kind == "sq":
                            sums[0] += attempt.items_received
                        elif kind == "sjq":
                            sums[2] += attempt.items_received
        object.__setattr__(self, "wire_s", wire_s)
        object.__setattr__(self, "sources", tuple(
            SourceProfile(name, *row) for name, row in sorted(sources.items())
        ))
        object.__setattr__(self, "conditions", tuple(
            ConditionProfile(name, *row)
            for name, row in sorted(conditions.items())
        ))

    @property
    def steps(self) -> tuple[OpSpan, ...]:
        """Every round's operation spans, round by round."""
        return tuple(span for trace in self.traces for span in trace.spans)

    @property
    def makespan_s(self) -> float:
        """Virtual time of the query: its rounds run back to back."""
        return sum(trace.makespan_s for trace in self.traces)

    @property
    def total_cost(self) -> float:
        return sum(trace.total_cost for trace in self.traces)

    # ------------------------------------------------------------------
    # Rendering

    def render(self) -> str:
        """Fixed-width report in the style of :mod:`repro.bench.report`."""
        lines = [self._headline(), ""]
        steps = self.steps
        if steps:
            lines.append(
                "step  op         source   attempts    cost  wire s"
                "  span s  output  status"
            )
            for step in sorted(
                steps, key=lambda s: (s.step, s.operation.kind.value)
            ):
                lines.append(
                    f"{step.step:>4}  {step.operation.kind.value:<10} "
                    f"{step.source or '-':<8} "
                    f"{len(step.attempts):>8} {step.cost:>7.1f} "
                    f"{step.busy_s:>7.3f} "
                    f"{step.finished_s - step.queued_s:>7.3f} "
                    f"{step.output_size:>7}  {step.status.value}"
                )
            lines.append("")
        if self.sources:
            lines.append(
                "source   attempts  fail  hedge  busy s    cost    sent"
                "    recv    rows  msgs"
            )
            for src in self.sources:
                note = ""
                predicted = self.predicted_by_source.get(src.source)
                if predicted is not None:
                    note = f"  (predicted {predicted:.1f})"
                lines.append(
                    f"{src.source:<8} {src.attempts:>8} {src.failures:>5} "
                    f"{src.hedges:>6} {src.busy_s:>7.3f} {src.cost:>7.1f} "
                    f"{src.items_sent:>7} {src.items_received:>7} "
                    f"{src.rows_loaded:>7} {src.messages:>5}{note}"
                )
            lines.append("")
        if self.conditions:
            lines.append(
                "condition                      sq items  shipped"
                "  confirmed    cost"
            )
            for cond in self.conditions:
                lines.append(
                    f"{cond.condition:<30} {cond.sq_items:>8} "
                    f"{cond.shipped:>8} {cond.confirmed:>10} "
                    f"{cond.cost:>7.1f}"
                )
        return "\n".join(lines).rstrip()

    def _headline(self) -> str:
        total_cost = self.total_cost
        text = f"profile: {self.items} items, cost {total_cost:.1f}"
        if self.predicted_cost is not None:
            ratio = (
                total_cost / self.predicted_cost
                if self.predicted_cost
                else float("inf")
            )
            text += (
                f" (predicted {self.predicted_cost:.1f}, "
                f"observed/predicted {ratio:.2f})"
            )
        text += (
            f"; makespan {self.makespan_s:.3f}s, wire {self.wire_s:.3f}s"
        )
        return text


#: A source's :class:`SourceProfile` totals before its first attempt.
_NO_TRAFFIC = (0, 0, 0, 0.0, 0.0, 0, 0, 0, 0)
