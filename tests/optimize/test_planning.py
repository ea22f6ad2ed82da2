"""``Planning``: the planner settings are one value, declared once, and a
setting either takes effect or is refused when the value is built."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import itertools
import pathlib

import pytest

import repro
from repro import cli
from repro.errors import CostModelError
from repro.mediator.session import Mediator
from repro.optimize import (
    FilterOptimizer,
    GreedySJAOptimizer,
    RobustOptimizer,
    SJAOptimizer,
    SJAPlusOptimizer,
    SJOptimizer,
)
from repro.optimize.planning import OPTIMIZERS, SEARCHES, Planning
from repro.optimize.search import DEFAULT_BEAM_WIDTH, PlanningBudget
from repro.serve import MediatorService
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    dmv_fig1,
    replicate_federation,
    synthetic_query,
)

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)

#: The keywords ``Planning`` replaced on the two constructors.
PLANNER_KEYWORDS = {
    "optimizer", "search", "beam_width", "robustness", "planning_budget",
}


class TestPlanningWrittenInOnePlace:
    def test_constructors_take_one_planning_value(self):
        for constructor in (Mediator, MediatorService):
            parameters = set(inspect.signature(constructor).parameters)
            assert "planning" in parameters, constructor
            assert not parameters & PLANNER_KEYWORDS, constructor

    def test_no_optimizer_is_built_outside_planning(self):
        root = pathlib.Path(repro.__file__).parent
        paths = [
            *sorted((root / "mediator").rglob("*.py")),
            *sorted((root / "serve").rglob("*.py")),
            root / "cli.py",
        ]
        built = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")).endswith(
                "Optimizer"
            )
        ]
        assert built == []

    def test_the_cli_optimizer_factory_is_gone(self):
        for name in ("_OPTIMIZERS", "_SEARCHABLE", "_make_optimizer", "_planning_options"):
            assert not hasattr(cli, name), name

    def test_the_cli_flags_are_the_planning_fields(self):
        fields = {field.name for field in dataclasses.fields(Planning)}
        parser = cli._build_parser()
        subcommands = parser._subparsers._group_actions[0].choices
        declared = {
            name: {action.dest for action in sub._actions} & fields
            for name, sub in subcommands.items()
        }
        assert declared["query"] == fields - {"budget"}
        assert declared["explain"] == {"optimizer", "search", "beam_width"}
        assert declared["workload"] == {"budget"}


class TestIgnoredSettingsAreRefused:
    """The five combinations the old keywords accepted and then dropped."""

    def test_service_budget_beside_an_optimizer_instance(self, dmv_federation):
        with pytest.raises(CostModelError, match="^budget "):
            MediatorService(
                dmv_federation,
                planning=Planning(optimizer=SJAOptimizer(), budget=1),
            )

    def test_a_budget_makes_the_search_anytime(self, dmv_federation):
        mediator = Mediator(dmv_federation, planning=Planning(budget=1))
        result = mediator.plan(DMV_SQL)
        assert result.search_strategy == "anytime"
        assert result.budget_exhausted

    def test_search_beside_an_optimizer_instance(self):
        with pytest.raises(CostModelError, match="^search "):
            Planning(optimizer=SJAOptimizer(), search="dp")

    def test_cli_search_on_filter_exits_2(self, tmp_path, capsys):
        spec = str(tmp_path / "dmv.json")
        assert cli.main(["export-dmv", spec]) == 0
        capsys.readouterr()
        argv = ["explain", spec, DMV_SQL, "--optimizer", "filter", "--search", "dp"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: search ")

    def test_cli_robustness_needs_the_robust_planner(self, tmp_path, capsys):
        spec = str(tmp_path / "dmv.json")
        assert cli.main(["export-dmv", spec]) == 0
        query = ["query", spec, DMV_SQL, "--runtime", "--fault-rate", "0.3"]
        capsys.readouterr()
        assert cli.main([*query, "--robustness-lambda", "5.0"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: robustness ")
        assert cli.main(
            [*query, "--optimizer", "robust", "--robustness-lambda", "5.0"]
        ) == 0
        assert "robust ranking (λ=5)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "settings, field",
        [
            (dict(optimizer="sja", beam_width=2), "beam_width"),
            (dict(optimizer="sja+", search="dp", budget=8), "budget"),
            (dict(optimizer="greedy", budget=8), "budget"),
            (dict(optimizer="sj", robustness=5.0), "robustness"),
            (dict(optimizer="robust", robustness=-1.0), "robustness"),
            (dict(optimizer="sja++"), "optimizer"),
            (dict(search="anytime"), "search"),
            (dict(optimizer="sja", search="beam", beam_width=0), "beam_width"),
            (dict(budget=0), "budget"),
        ],
    )
    def test_every_refusal_names_its_field(self, settings, field):
        with pytest.raises(CostModelError, match=f"^{field} "):
            Planning(**settings)

    def test_the_value_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Planning().search = "dp"


def _hand_built(planning: Planning, federation):
    """The optimizer a caller would have built by hand for ``planning``."""
    name = planning.optimizer
    if name == "filter":
        return FilterOptimizer()
    if name == "greedy":
        return GreedySJAOptimizer()
    settings = dict(
        search="anytime" if planning.budget else planning.search,
        beam_width=planning.beam_width,
        planning_budget=planning.budget and PlanningBudget(planning.budget),
    )
    if name == "robust":
        return RobustOptimizer(federation, robustness=planning.robustness, **settings)
    return {"sj": SJOptimizer, "sja": SJAOptimizer, "sja+": SJAPlusOptimizer}[name](
        **settings
    )


def _kits():
    federation, query = dmv_fig1()
    yield federation, query
    config = SyntheticConfig(n_sources=4, n_entities=90, seed=5)
    yield build_synthetic(config), synthetic_query(config, m=4, seed=6)
    config = SyntheticConfig(
        n_sources=3, n_entities=60, seed=11,
        native_fraction=0.5, emulated_fraction=0.5,
    )
    yield (
        replicate_federation(build_synthetic(config), 2),
        synthetic_query(config, m=3, seed=2),
    )


def _grid():
    """Every Planning over names × searches × budgets × beam widths,
    split into the values that exist and the combinations refused."""
    valid, refused = [], 0
    for name, search, budget, width in itertools.product(
        OPTIMIZERS, SEARCHES, (None, 1, 64), (DEFAULT_BEAM_WIDTH, 2)
    ):
        try:
            valid.append(
                Planning(optimizer=name, search=search, budget=budget, beam_width=width)
            )
        except CostModelError:
            refused += 1
    return valid, refused


class TestPlanningGrid:
    def test_every_valid_planning_plans_like_its_hand_built_optimizer(self):
        valid, refused = _grid()
        # Per searching planner: 5 searches, + budgets 1 / 64 under auto
        # and bnb, + a narrower beam; filter / greedy take no setting.
        assert (len(valid), refused) == (4 * 10 + 2, 180 - 42)
        for federation, query in _kits():
            sources = federation.representative_names
            for planning in valid:
                mediator = Mediator(federation, planning=planning)
                got = mediator.plan(query)
                want = _hand_built(planning, federation).optimize(
                    query, sources, mediator.cost_model, mediator.estimator
                )
                assert (
                    got.plan.pretty(),
                    got.estimated_cost,
                    got.optimizer,
                    got.search_strategy,
                    got.subsets_considered,
                    got.budget_exhausted,
                ) == (
                    want.plan.pretty(),
                    want.estimated_cost,
                    want.optimizer,
                    want.search_strategy,
                    want.subsets_considered,
                    want.budget_exhausted,
                ), planning

    def test_each_mediator_owns_its_budget(self, dmv_federation):
        planning = Planning(budget=64)
        first = Mediator(dmv_federation, planning=planning)
        second = Mediator(dmv_federation, planning=planning)
        assert first.planning is second.planning is planning
        assert first.planning_budget.max_subsets == 64
        assert first.planning_budget is not second.planning_budget

    def test_an_instance_is_used_as_is(self, dmv_federation):
        optimizer = SJAOptimizer(search="dp")
        mediator = Mediator(dmv_federation, planning=Planning(optimizer=optimizer))
        assert mediator.optimizer is optimizer
