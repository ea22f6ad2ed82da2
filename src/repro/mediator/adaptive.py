"""The records of adaptive execution (mid-query reoptimization).

The Sec. 3 optimizers commit to a plan using *estimated* intermediate
sizes, and the paper notes that with autonomous sources "we often have
no information about the dependence of conditions".
:meth:`repro.mediator.session.Mediator.answer_adaptive` removes that
bet: each round plans one stage by the SJA stage rule at the *observed*
``|X_{i-1}|`` and runs it on the mediator's engine.  It returns an
:class:`AdaptiveResult`: one :class:`AdaptiveStage` per stage and the
:class:`StagedExecution` record of their engine runs.

Example:
    >>> from repro.sources.generators import dmv_fig1
    >>> from repro.mediator.session import Mediator
    >>> federation, query = dmv_fig1()
    >>> result = Mediator(federation).answer_adaptive(query)
    >>> result.summary()
    '2 items, actual cost 68.0, 2 stages'
    >>> [(stage.input_size, stage.output_size) for stage in result.stages]
    [(0, 3), (3, 2)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.mediator.executor import ExecutionResult
from repro.relational.conditions import Condition


@dataclass
class AdaptiveStage:
    """What one adaptively chosen stage did."""

    condition: Condition
    choices: dict[str, str]  # source -> 'sq' | 'sjq'
    estimated_cost: float
    actual_cost: float
    input_size: int
    output_size: int


class StagedExecution(ExecutionResult):
    """One trace per stage.  Each stage's answer is the next one's
    input, so a loss in *any* stage may shorten the answer: ``degraded``
    and ``incomplete_conditions`` (so ``complete`` and ``partial``) read
    every trace, and no stage is a re-plan."""

    @property
    def degraded(self) -> int:
        return sum(
            len(trace.degraded_steps) + len(trace.deadline_steps) for trace in self.traces
        )

    @property
    def incomplete_conditions(self) -> tuple[str, ...]:
        return tuple(
            condition for trace in self.traces for condition in trace.incomplete_conditions
        )

    @property
    def replans(self) -> int:
        return 0


@dataclass
class AdaptiveResult:
    """Answer, stage log and run record of one adaptive execution:
    ``execution.traces`` holds one engine trace per stage run;
    ``verified`` is the oracle check's outcome (None without
    ``verify=True``)."""

    items: frozenset[Any]
    execution: StagedExecution
    stages: list[AdaptiveStage]
    stages_skipped: int
    verified: bool | None = None

    @property
    def terminated_early(self) -> bool:
        """True when an empty prefix ended the run before every stage."""
        return self.stages_skipped > 0

    @property
    def total_cost(self) -> float:
        return sum(stage.actual_cost for stage in self.stages)

    def ordering(self) -> list[Condition]:
        return [stage.condition for stage in self.stages]

    def summary(self) -> str:
        checked = {None: "", True: " (verified)", False: " (MISMATCH!)"}[self.verified]
        text = f"{len(self.items)} items{checked}, actual cost {self.total_cost:.1f}, "
        text += f"{len(self.stages)} stages"
        if self.terminated_early:
            text += f", stopped early ({self.stages_skipped} stages skipped)"
        if not self.execution.complete:
            text += f"; PARTIAL: {self.execution.degraded} operations lost"
        return text
