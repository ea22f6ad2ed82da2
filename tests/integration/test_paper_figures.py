"""Integration tests reproducing the paper's figures end to end.

Each test corresponds to a figure of the paper and to one of the
benchmark targets in ``benchmarks/`` (see DESIGN.md's experiment index);
here we assert the *facts*, the benchmarks print the *artifacts*.
"""

from __future__ import annotations

import math

import pytest

from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.mediator.executor import Executor
from repro.mediator.session import Mediator
from repro.optimize.filter import FilterOptimizer
from repro.optimize.postopt import apply_difference_pruning
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.optimize.sja_plus import SJAPlusOptimizer
from repro.plans.builder import (
    StagedChoice,
    build_staged_plan,
    uniform_choices,
)
from repro.plans.classify import PlanClass, classify
from repro.plans.operations import OpKind, SemijoinOp
from repro.query.fusion import FusionQuery
from repro.sources.generators import DMV_FIG1_ANSWER, dmv_fig1
from repro.sources.network import LinkProfile
from repro.sources.statistics import ExactStatistics
from repro.optimize.planning import Planning


class TestFig1DMVExample:
    """Fig. 1: the three DMV relations and the dui ∧ sp fusion query."""

    def test_answer_is_j55_and_t21(self):
        federation, query = dmv_fig1()
        mediator = Mediator(federation, verify=True)
        assert mediator.answer(query).items == DMV_FIG1_ANSWER

    def test_plan_p1_from_the_introduction(self):
        """The paper's P1: fetch all dui items everywhere, union, then
        semijoin the set to every source for sp."""
        federation, query = dmv_fig1()
        plan = build_staged_plan(
            query,
            [0, 1],
            uniform_choices(2, 3, [False, True]),
            federation.source_names,
        )
        execution = Executor(federation).execute(plan)
        assert execution.items == DMV_FIG1_ANSWER
        # X1 = all dui items = {J55, T80, T21} (the introduction's X1).
        x1_step = next(
            step for step in execution.steps if step.operation.target == "X1"
        )
        assert x1_step.output_size == 3

    def test_every_optimizer_gets_the_paper_answer(self):
        federation, query = dmv_fig1()
        for optimizer in (
            FilterOptimizer(),
            SJOptimizer(),
            SJAOptimizer(),
            SJAPlusOptimizer(),
        ):
            mediator = Mediator(federation, planning=Planning(optimizer=optimizer), verify=True)
            assert mediator.answer(query).items == DMV_FIG1_ANSWER


class TestFig2PlanClasses:
    """Fig. 2: the filter / semijoin / semijoin-adaptive example plans."""

    @pytest.fixture
    def query3(self):
        return FusionQuery.from_strings("L", ["V = 'a'", "V = 'b'", "V = 'c'"])

    def test_three_classes_distinguished(self, query3):
        from repro.plans.builder import build_filter_plan

        sources = ["R1", "R2"]
        filter_plan = build_filter_plan(query3, sources)
        semijoin_plan = build_staged_plan(
            query3, [0, 1, 2], uniform_choices(3, 2, [False, True, False]),
            sources,
        )
        adaptive_plan = build_staged_plan(
            query3,
            [0, 1, 2],
            [
                [StagedChoice.SELECTION] * 2,
                [StagedChoice.SEMIJOIN, StagedChoice.SELECTION],
                [StagedChoice.SELECTION] * 2,
            ],
            sources,
        )
        assert classify(filter_plan) is PlanClass.FILTER
        assert classify(semijoin_plan) is PlanClass.SEMIJOIN
        assert classify(adaptive_plan) is PlanClass.SEMIJOIN_ADAPTIVE
        # Step counts as printed in the figure: 11 / 10 / 11.
        assert (len(filter_plan), len(semijoin_plan), len(adaptive_plan)) == (
            11, 10, 11,
        )


class TestFig3SJ:
    """Fig. 3: SJ explores m! orderings with per-stage uniform choices."""

    def test_search_statistics(self):
        federation, query = dmv_fig1()
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        result = SJOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert result.orderings_considered == math.factorial(query.arity)
        assert classify(result.plan) in (
            PlanClass.SEMIJOIN, PlanClass.FILTER,
        )


class TestFig4SJA:
    """Fig. 4: SJA decides per source and never loses to SJ."""

    def test_sja_beats_sj_with_heterogeneous_links(self):
        # Make R1's link cheap for semijoins and R2/R3 ruinous for them.
        federation, query = dmv_fig1()
        federation.source("R1").link = LinkProfile(
            request_overhead=0.5, per_item_send=0.01, per_item_receive=30.0
        )
        federation.source("R2").link = LinkProfile(
            request_overhead=1.0, per_item_send=500.0, per_item_receive=1.0
        )
        federation.source("R3").link = LinkProfile(
            request_overhead=1.0, per_item_send=500.0, per_item_receive=1.0
        )
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        sja = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        sj = SJOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert sja.estimated_cost <= sj.estimated_cost
        execution = Executor(federation).execute(sja.plan)
        assert execution.items == DMV_FIG1_ANSWER


class TestFig5Postoptimization:
    """Fig. 5: difference pruning and source loading on the Fig. 1 query."""

    def test_difference_pruning_on_a_p1_style_plan(self):
        federation, query = dmv_fig1()
        # P1 with stage 2 = semijoins at R2 and R3 but selection at R1 —
        # the setup of the Sec. 4 difference example.
        plan = build_staged_plan(
            query,
            [0, 1],
            [
                [StagedChoice.SELECTION] * 3,
                [
                    StagedChoice.SELECTION,
                    StagedChoice.SEMIJOIN,
                    StagedChoice.SEMIJOIN,
                ],
            ],
            federation.source_names,
        )
        pruned = apply_difference_pruning(plan)
        assert pruned.count_by_kind()[OpKind.DIFFERENCE] == 2
        execution = Executor(federation).execute(pruned)
        assert execution.items == DMV_FIG1_ANSWER
        # The pruned semijoin to R2 must not re-send T21 (confirmed at
        # R1, which returned {T21} for sp among X1).
        r2_semijoin = next(
            step
            for step in execution.steps
            if isinstance(step.operation, SemijoinOp)
            and step.operation.source == "R2"
        )
        r2_record = [
            record
            for record in federation.source("R2").traffic
            if record.operation == "sjq"
        ][-1]
        assert r2_record.items_sent == 2  # X1 − {T21} = {J55, T80}

    def test_sja_plus_loads_tiny_sources(self):
        federation, query = dmv_fig1()
        mediator = Mediator(
            federation, planning=Planning(optimizer=SJAPlusOptimizer()), verify=True
        )
        answer = mediator.answer(query)
        assert answer.items == DMV_FIG1_ANSWER
        # With Fig. 1's 3-row sources, loading everything wins.
        assert answer.plan.count_by_kind().get(OpKind.LOAD, 0) == 3
