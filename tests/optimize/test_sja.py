"""Unit tests for the SJA algorithm (Fig. 4)."""

from __future__ import annotations

import math


from repro.mediator.executor import Executor
from repro.mediator.reference import reference_answer
from repro.optimize.sj import SJOptimizer
from repro.optimize.sja import SJAOptimizer
from repro.plans.classify import is_semijoin_adaptive_plan
from repro.sources.capabilities import SourceCapabilities
from repro.sources.generators import dmv_fig1
from repro.costs.charge import ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.sources.statistics import ExactStatistics
from tests.costs.table_model import TableCostModel


class TestSearch:
    def test_considers_all_orderings(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        result = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert result.orderings_considered == math.factorial(query.arity)

    def test_plan_is_adaptive_class(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        result = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert is_semijoin_adaptive_plan(result.plan)

    def test_executed_answer_matches_reference(self, synthetic_setup):
        federation, query, model, estimator = synthetic_setup
        result = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        execution = Executor(federation).execute(result.plan)
        assert execution.items == reference_answer(federation, query)


class TestDominance:
    def test_never_worse_than_sj(self, synthetic_setup):
        """The Sec. 3 claim: optimal SJA <= optimal SJ, always."""
        federation, query, model, estimator = synthetic_setup
        sja = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        sj = SJOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        assert sja.estimated_cost <= sj.estimated_cost + 1e-9

    def test_strictly_better_with_heterogeneous_sources(
        self, dmv_query, dmv_estimator
    ):
        """Sec. 2.5's motivating scenario: cheap semijoins at one source,
        ruinous at the others — SJA mixes, SJ cannot."""
        c1, c2 = dmv_query.conditions
        model = TableCostModel(
            default_sq=100.0,
            sjq_table={
                (c2, "R1"): (1.0, 0.01),
                (c2, "R2"): (10_000.0, 10.0),
                (c2, "R3"): (10_000.0, 10.0),
                (c1, "R1"): (1.0, 0.01),
                (c1, "R2"): (10_000.0, 10.0),
                (c1, "R3"): (10_000.0, 10.0),
            },
        )
        sources = ["R1", "R2", "R3"]
        sja = SJAOptimizer().optimize(dmv_query, sources, model, dmv_estimator)
        sj = SJOptimizer().optimize(dmv_query, sources, model, dmv_estimator)
        assert sja.estimated_cost < sj.estimated_cost
        # And the SJA plan is genuinely mixed in its second stage.
        stage2 = [
            op.kind.value
            for op in sja.plan.remote_operations
            if op.condition == sja.plan.stages[1].condition
        ]
        assert set(stage2) == {"sq", "sjq"}


class TestCapabilityAwareness:
    def test_avoids_unsupported_semijoins(self):
        """Sources without semijoin support get selections (infinite sjq
        cost), even when semijoins win elsewhere."""
        federation, query = dmv_fig1(
            capabilities=SourceCapabilities.minimal()
        )
        # minimal() also disables loads; selection still works.
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        result = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        kinds = {op.kind.value for op in result.plan.remote_operations}
        assert kinds == {"sq"}
        assert math.isfinite(result.estimated_cost)

    def test_mixed_capability_federation(self):
        from repro.sources.network import LinkProfile

        federation, query = dmv_fig1(
            # expensive answers make semijoins attractive where possible
            link=LinkProfile(request_overhead=1.0, per_item_receive=100.0),
        )
        # Disable semijoins at R2 only.
        federation.source("R2").capabilities = SourceCapabilities.minimal()
        estimator = SizeEstimator(
            ExactStatistics(federation), federation.source_names
        )
        model = ChargeCostModel.for_federation(federation, estimator)
        result = SJAOptimizer().optimize(
            query, federation.source_names, model, estimator
        )
        r2_kinds = {
            op.kind.value
            for op in result.plan.remote_operations
            if op.source == "R2"
        }
        assert r2_kinds == {"sq"}
        execution = Executor(federation).execute(result.plan)
        assert execution.items == reference_answer(federation, query)
