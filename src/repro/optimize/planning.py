"""How a mediator plans: one frozen :class:`Planning` value, the only
code that turns planner settings into an optimizer
(:meth:`Planning.optimizer_for`)."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.errors import CostModelError
from repro.optimize.base import Optimizer
from repro.optimize.filter import FilterOptimizer
from repro.optimize.greedy import GreedySJAOptimizer
from repro.optimize.robust import RobustOptimizer
from repro.optimize.search import DEFAULT_BEAM_WIDTH, PlanningBudget
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.runtime.availability import AvailabilityModel, ObservedAvailability

if TYPE_CHECKING:
    from repro.runtime.engine import RuntimeEngine
    from repro.runtime.faults import FaultInjector

#: Planners with a fixed ordering rule: nothing to search.
_FIXED = {"filter": FilterOptimizer, "greedy": GreedySJAOptimizer}
_SEARCHED = {"sj": SJOptimizer, "sja": SJAOptimizer, "sja+": SJAPlusOptimizer}

#: Every planner name ``Planning.optimizer`` accepts.
OPTIMIZERS = ("filter", "greedy", "robust", "sj", "sja", "sja+")

#: Every ``Planning.search`` value; a ``budget`` selects the anytime one.
SEARCHES = ("auto", "exhaustive", "dp", "bnb", "beam")


@dataclass(frozen=True)
class Planning:
    """How a mediator finds its plans: which planner, which ordering
    search, and how much search one query may spend.

    Validated at construction: a field either takes effect or the value
    raises :class:`CostModelError` naming it.  ``Mediator``,
    ``MediatorService`` and the CLI take the value unchanged; what
    planning *reads* — statistics, plan cache, cost model — are
    collaborators and stay mediator arguments.

    Attributes:
        optimizer: ``"filter"``, ``"greedy"``, ``"sj"``, ``"sja"``,
            ``"sja+"`` (default) or ``"robust"`` — a completeness-aware
            :class:`~repro.optimize.robust.RobustOptimizer` reading the
            mediator's faults and live health — or an
            :class:`Optimizer` instance, used as is and configured
            directly (it takes no other field).
        search: Ordering search (:mod:`repro.optimize.search`):
            ``"auto"``, ``"exhaustive"``, ``"dp"``, ``"bnb"`` or
            ``"beam"``.
        beam_width: Beam width of ``search="beam"``.
        budget: Anytime planning: at most this many branch-and-bound
            subset expansions per query, then the best plan so far,
            flagged ``budget_exhausted``.  Needs ``search`` ``"auto"``
            or ``"bnb"``; a serving tier re-arms it per query.
        robustness: The λ of ``"robust"``: the wire cost one unit of
            expected completeness is worth.

    Example:
        >>> Planning(optimizer="filter", search="dp")
        Traceback (most recent call last):
        ...
        repro.errors.CostModelError: search has no effect: 'filter' searches no orderings
    """

    optimizer: str | Optimizer = "sja+"
    search: str = "auto"
    beam_width: int = DEFAULT_BEAM_WIDTH
    budget: int | None = None
    robustness: float = 1.0

    def __post_init__(self) -> None:
        name = self.optimizer
        if isinstance(name, Optimizer):
            for setting in fields(self)[1:]:
                if getattr(self, setting.name) != setting.default:
                    raise CostModelError(
                        f"{setting.name} cannot configure an Optimizer "
                        "instance; configure the instance itself"
                    )
            return
        budget = self.budget
        for setting, valid, wanted in (
            ("optimizer", name in OPTIMIZERS, f"an Optimizer or one of {OPTIMIZERS}"),
            ("search", self.search in SEARCHES, f"one of {SEARCHES}"),
            ("beam_width", isinstance(self.beam_width, int) and self.beam_width >= 1,
             "an integer >= 1"),
            ("budget", budget is None or isinstance(budget, int) and budget >= 1,
             "an integer >= 1 or None"),
            ("robustness", isinstance(self.robustness, (int, float))
             and math.isfinite(self.robustness) and self.robustness >= 0,
             "finite and >= 0"),
        ):
            if not valid:
                raise CostModelError(
                    f"{setting} must be {wanted}, got {getattr(self, setting)!r}"
                )
        for setting, wasted, why in (
            ("search", name in _FIXED and self.search != "auto",
             f"{name!r} searches no orderings"),
            ("budget", budget is not None and name in _FIXED,
             f"{name!r} searches no orderings"),
            ("budget", budget is not None and self.search not in ("auto", "bnb"),
             f"it bounds a branch-and-bound search, not {self.search!r}"),
            ("beam_width", self.beam_width != DEFAULT_BEAM_WIDTH and self.search != "beam",
             f"search is {self.search!r}, not 'beam'"),
            ("robustness", self.robustness != 1.0 and name != "robust",
             f"it is the λ of 'robust', not of {name!r}"),
        ):
            if wasted:
                raise CostModelError(f"{setting} has no effect: {why}")

    def optimizer_for(
        self,
        engine: RuntimeEngine,
        faults: FaultInjector | None = None,
        replans: int = 0,
    ) -> Optimizer:
        """A fresh optimizer for one mediator running on ``engine``, with
        its own :class:`PlanningBudget` (thread-mode workers re-arm
        theirs without racing); an instance is returned as is.  Only
        ``"robust"`` reads the rest: the mediator's fault injector
        (``faults``; None plans for a perfect world), the engine's live
        health, and whether the engine or ``replans`` re-planning rounds
        reach declared mirrors on their own."""
        name = self.optimizer
        if isinstance(name, Optimizer):
            return name
        if name in _FIXED:
            return _FIXED[name]()
        settings = dict(
            search=self.search if self.budget is None else "anytime",
            beam_width=self.beam_width,
            planning_budget=self.budget and PlanningBudget(self.budget),
        )
        if name != "robust":
            return _SEARCHED[name](**settings)
        names = engine.federation.source_names
        prior = (
            AvailabilityModel.perfect()
            if faults is None
            else AvailabilityModel.from_faults(faults, engine.policy, names)
        )
        return RobustOptimizer(
            engine.federation,
            # The prior, sharpened live by the health registry.
            availability=ObservedAvailability(engine.health, prior=prior),
            robustness=self.robustness,
            # The planner credits mirrors the executor reaches on its
            # own (hedging, breakers, re-planning) instead of
            # duplicating work.
            failover=engine.resilient or replans > 0,
            **settings,
        )
