"""Unit tests for query-sampling cost calibration."""

from __future__ import annotations

import pytest

from repro.errors import StatisticsError
from repro.sources.generators import (
    SyntheticConfig,
    build_synthetic,
    synthetic_conditions,
)
from repro.sources.sampling import (
    FittedLinkParameters,
    ProbeObservation,
    calibrate_federation,
    fit_parameters,
    probe_source,
)


@pytest.fixture
def setup():
    config = SyntheticConfig(
        n_sources=3,
        n_entities=300,
        overhead_range=(5.0, 30.0),
        send_range=(0.5, 2.0),
        receive_range=(0.5, 2.0),
        seed=4,
    )
    federation = build_synthetic(config)
    conditions = synthetic_conditions(config, 4, seed=8)
    return federation, conditions


class TestFit:
    def test_fit_recovers_linear_model_exactly(self):
        observations = [
            ProbeObservation("sq", s, r, 7.0 + 1.5 * s + 0.5 * r)
            for s, r in [(0, 5), (0, 9), (3, 2), (10, 1), (20, 8)]
        ]
        fitted = fit_parameters(observations)
        assert fitted.request_overhead == pytest.approx(7.0, abs=1e-6)
        assert fitted.per_item_send == pytest.approx(1.5, abs=1e-6)
        assert fitted.per_item_receive == pytest.approx(0.5, abs=1e-6)
        assert fitted.residual == pytest.approx(0.0, abs=1e-6)

    def test_fit_requires_observations(self):
        with pytest.raises(StatisticsError):
            fit_parameters([ProbeObservation("sq", 0, 1, 5.0)])

    def test_predict(self):
        fitted = FittedLinkParameters(10.0, 2.0, 3.0, 0.0, 5)
        assert fitted.predict(2, 3) == 10 + 4 + 9

    def test_parameters_clamped_non_negative(self):
        observations = [
            ProbeObservation("sq", s, r, 1.0)  # constant cost
            for s, r in [(0, 5), (1, 1), (2, 8), (4, 0)]
        ]
        fitted = fit_parameters(observations)
        assert fitted.request_overhead >= 0
        assert fitted.per_item_send >= 0
        assert fitted.per_item_receive >= 0


class TestProbing:
    def test_probe_source_collects_observations(self, setup):
        federation, conditions = setup
        source = federation.source(federation.source_names[0])
        observations = probe_source(
            source, conditions, federation.all_items(), seed=0
        )
        assert len(observations) >= len(conditions)
        assert any(obs.operation == "sjq" for obs in observations)

    def test_probe_requires_conditions(self, setup):
        federation, __ = setup
        source = federation.source(federation.source_names[0])
        with pytest.raises(StatisticsError):
            probe_source(source, [], federation.all_items())


class TestCalibration:
    def test_calibration_recovers_true_link_parameters(self, setup):
        federation, conditions = setup
        fitted = calibrate_federation(federation, conditions, seed=0)
        for source in federation:
            learned = fitted[source.name]
            # The simulated charge model *is* linear, so the fit should be
            # essentially exact.
            assert learned.request_overhead == pytest.approx(
                source.link.request_overhead, rel=0.05, abs=0.5
            )
            assert learned.residual < 1e-6

    def test_emulated_sources_calibrate_via_binding_probes(self):
        """Selection-only wrappers still yield enough observations: each
        emulated binding is its own probe request (regression for the
        tutorial's mixed-capability federation)."""
        from repro.sources.capabilities import SourceCapabilities
        from repro.sources.generators import dmv_fig1

        federation, query = dmv_fig1(
            capabilities=SourceCapabilities.selection_only()
        )
        fitted = calibrate_federation(
            federation, list(query.conditions), seed=0
        )
        for name in federation.source_names:
            assert fitted[name].probes >= 3
            assert fitted[name].request_overhead >= 0

    def test_calibration_cleans_probe_traffic(self, setup):
        federation, conditions = setup
        calibrate_federation(federation, conditions, seed=0)
        assert federation.total_messages() == 0


def _observation_sets():
    """Every probe set the calibration fixtures of the suite fit."""
    from repro.sources.capabilities import SourceCapabilities
    from repro.sources.generators import dmv_fig1

    sets = {
        "exact": [
            ProbeObservation("sq", s, r, 7.0 + 1.5 * s + 0.5 * r)
            for s, r in [(0, 5), (0, 9), (3, 2), (10, 1), (20, 8)]
        ],
        "constant": [
            ProbeObservation("sq", s, r, 1.0)
            for s, r in [(0, 5), (1, 1), (2, 8), (4, 0)]
        ],
    }
    configs = {
        # tests/sources/test_sampling.py and tests/costs/test_calibrated.py
        "sampling": (SyntheticConfig(
            n_sources=3, n_entities=300, overhead_range=(5.0, 30.0),
            send_range=(0.5, 2.0), receive_range=(0.5, 2.0), seed=4,
        ), 8),
        "calibrated": (SyntheticConfig(
            n_sources=4, n_entities=300, overhead_range=(5.0, 40.0),
            send_range=(0.5, 2.0), receive_range=(0.5, 2.0), seed=17,
        ), 23),
    }
    for name, (config, seed) in configs.items():
        federation = build_synthetic(config)
        conditions = synthetic_conditions(config, 4, seed=seed)
        for index, source in enumerate(federation):
            sets[f"{name}:{source.name}"] = probe_source(
                source, conditions, federation.all_items(), seed=index
            )
    federation, query = dmv_fig1(
        capabilities=SourceCapabilities.selection_only()
    )
    for index, source in enumerate(federation):
        sets[f"fig1-selection-only:{source.name}"] = probe_source(
            source, list(query.conditions), federation.all_items(), seed=index
        )
    return sets


_OBSERVATION_SETS = _observation_sets()


class TestPurePythonFit:
    @pytest.mark.parametrize(
        "observations",
        list(_OBSERVATION_SETS.values()),
        ids=list(_OBSERVATION_SETS),
    )
    def test_agrees_with_numpy_lstsq(self, observations):
        np = pytest.importorskip("numpy")
        design = np.array(
            [[1.0, o.items_sent, o.items_received] for o in observations]
        )
        target = np.array([o.cost for o in observations])
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        clamped = np.clip(solution, 0.0, None)
        residual = float(np.sqrt(np.mean((design @ clamped - target) ** 2)))
        fitted = fit_parameters(observations)
        got = (
            fitted.request_overhead,
            fitted.per_item_send,
            fitted.per_item_receive,
        )
        scale = float(np.abs(target).max())
        for mine, theirs in zip(got, clamped):
            assert mine == pytest.approx(float(theirs), rel=1e-9, abs=1e-9 * scale)
        assert fitted.residual == pytest.approx(residual, rel=1e-9, abs=1e-9 * scale)

    def test_a_column_that_is_always_zero_gets_coefficient_zero(self):
        observations = [
            ProbeObservation("sq", 0, r, 4.0 + 2.0 * r) for r in (1, 3, 7)
        ]
        fitted = fit_parameters(observations)
        assert fitted.per_item_send == 0.0
        assert fitted.request_overhead == pytest.approx(4.0)
        assert fitted.per_item_receive == pytest.approx(2.0)

    def test_dependent_columns_raise(self):
        observations = [
            ProbeObservation("sjq", s, s, 1.0 + s) for s in (1, 2, 3)
        ]
        with pytest.raises(StatisticsError, match="linearly dependent"):
            fit_parameters(observations)
