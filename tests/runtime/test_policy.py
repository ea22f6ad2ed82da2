"""Unit tests for retry policies and the completeness report."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.runtime.engine import Resilience
from repro.runtime.policy import (
    BACKOFF_MAX_S,
    CompletenessReport,
    OnExhaust,
    RetryPolicy,
    completeness_report,
)
from repro.sources.generators import DMV_FIG1_ANSWER, dmv_fig1


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        # Doubling from the 0.1 s base, capped at BACKOFF_MAX_S = 5.0.
        policy = RetryPolicy()
        schedule = [policy.backoff_s(retry) for retry in range(1, 9)]
        assert schedule == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0])
        assert BACKOFF_MAX_S == 5.0

    def test_backoff_rejects_zeroth_retry(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)

    def test_may_retry_counts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.may_retry(0)
        assert policy.may_retry(1)
        assert not policy.may_retry(2)

    def test_no_retry_profile(self):
        policy = RetryPolicy.no_retry()
        assert policy.max_retries == 0
        assert policy.on_exhaust is OnExhaust.SKIP
        assert not policy.may_retry(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"backoff_base_s": float("inf")},
            {"timeout_s": 0.0},
            {"timeout_s": float("nan")},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(CostModelError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": 1.5},
            {"max_retries": "3"},
            {"on_exhaust": "skip"},
        ],
    )
    def test_wrongly_typed_fields_rejected(self, kwargs):
        with pytest.raises(CostModelError):
            RetryPolicy(**kwargs)


class TestCompletenessReport:
    def test_exact_answer(self):
        report = CompletenessReport(
            expected=frozenset({"a", "b"}), answered=frozenset({"a", "b"})
        )
        assert report.exact
        assert report.completeness == 1.0
        assert not report.missing
        assert not report.spurious

    def test_partial_answer(self):
        report = CompletenessReport(
            expected=frozenset({"a", "b", "c", "d"}),
            answered=frozenset({"a", "b"}),
        )
        assert report.completeness == pytest.approx(0.5)
        assert report.missing == frozenset({"c", "d"})
        assert "2/4 answers" in report.summary()

    def test_spurious_flagged_in_summary(self):
        report = CompletenessReport(
            expected=frozenset({"a"}), answered=frozenset({"a", "z"})
        )
        assert report.spurious == frozenset({"z"})
        assert "spurious!" in report.summary()

    def test_empty_expected_is_vacuously_complete(self):
        report = CompletenessReport(
            expected=frozenset(), answered=frozenset()
        )
        assert report.completeness == 1.0
        assert report.exact

    def test_against_reference(self):
        federation, query = dmv_fig1()
        report = completeness_report(federation, query, DMV_FIG1_ANSWER)
        assert report.exact
        partial = completeness_report(federation, query, frozenset({"J55"}))
        assert partial.completeness == pytest.approx(0.5)


class TestCompletenessAccounting:
    def run_with(self, engine_kwargs):
        from repro.plans.builder import build_filter_plan
        from repro.runtime.engine import RuntimeEngine
        from repro.sources.generators import replicate_federation

        federation, query = dmv_fig1()
        federation = replicate_federation(federation, 2)
        plan = build_filter_plan(query, federation.representative_names)
        engine = RuntimeEngine(federation, **engine_kwargs)
        result = engine.run(plan)
        return completeness_report(
            federation, query, result.items, trace=result.trace
        )

    def test_skipped_ops_counted(self):
        from repro.runtime.faults import FaultInjector, FaultProfile

        report = self.run_with(
            dict(
                faults=FaultInjector(
                    {"R1": FaultProfile.flaky(1.0)}, seed=0
                ),
                resilience=Resilience(policy=RetryPolicy.no_retry()),
            )
        )
        assert report.skipped_ops > 0
        assert report.recovered_ops == 0
        assert "ops skipped" in report.summary()

    def test_recovered_ops_counted(self):
        from repro.runtime.faults import FaultInjector, FaultProfile

        report = self.run_with(
            dict(
                faults=FaultInjector(
                    {"R1": FaultProfile.flaky(1.0)}, seed=0
                ),
                resilience=Resilience(
                    policy=RetryPolicy.no_retry(), hedge_delay_s=5.0
                ),
            )
        )
        assert report.exact
        assert report.skipped_ops == 0
        assert report.recovered_ops > 0
        assert "recovered via replicas" in report.summary()

    def test_clean_run_reports_neither(self):
        report = self.run_with({})
        assert report.exact
        assert report.skipped_ops == 0
        assert report.recovered_ops == 0
        assert "skipped" not in report.summary()
