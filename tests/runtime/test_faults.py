"""Unit tests for the fault-injection layer."""

from __future__ import annotations

import pytest

from repro.errors import CostModelError
from repro.relational.relation import Relation
from repro.relational.schema import dmv_schema
from repro.runtime.faults import (
    AttemptFate,
    DataFate,
    DataFaultProfile,
    FaultInjector,
    FaultProfile,
)
from repro.sources.network import LinkProfile


LINK = LinkProfile(latency_s=0.1, items_per_s=1000.0)


class TestFaultProfile:
    def test_none_is_healthy(self):
        assert FaultProfile.none().healthy

    def test_flaky_and_degraded_are_not_healthy(self):
        assert not FaultProfile.flaky(0.1).healthy
        assert not FaultProfile.degraded(0.1).healthy

    def test_zero_rate_flaky_is_healthy(self):
        assert FaultProfile.flaky(0.0).healthy

    @pytest.mark.parametrize("rate", [-0.1, 1.1, float("nan")])
    def test_invalid_rates_rejected(self, rate):
        with pytest.raises(CostModelError):
            FaultProfile(transient_rate=rate)

    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(CostModelError):
            FaultProfile(slowdown_rate=0.5, slowdown_factor=0.5)


class TestFaultInjector:
    def test_healthy_profile_never_perturbs(self):
        injector = FaultInjector.none()
        for __ in range(50):
            outcome = injector.judge("S", 1.0, LINK)
            assert outcome.fate is AttemptFate.OK
            assert outcome.duration_s == 1.0
        assert injector.attempts == 50
        assert sum(injector.injected.values()) == 0

    def test_always_transient(self):
        injector = FaultInjector(FaultProfile.flaky(1.0), seed=0)
        outcome = injector.judge("S", 1.0, LINK)
        assert outcome.fate is AttemptFate.TRANSIENT
        # Fails after one empty round trip, not the full exchange.
        assert outcome.duration_s == pytest.approx(LINK.request_time_s(0, 0))

    def test_stall_extends_duration(self):
        injector = FaultInjector(
            FaultProfile(stall_rate=1.0, stall_s=30.0), seed=0
        )
        outcome = injector.judge("S", 1.0, LINK)
        assert outcome.fate is AttemptFate.OK  # policy turns it into timeout
        assert outcome.duration_s == pytest.approx(31.0)

    def test_slowdown_multiplies_duration(self):
        injector = FaultInjector(FaultProfile.degraded(1.0, 4.0), seed=0)
        outcome = injector.judge("S", 1.0, LINK)
        assert outcome.fate is AttemptFate.OK
        assert outcome.duration_s == pytest.approx(4.0)

    def test_per_source_streams_are_independent_and_deterministic(self):
        def draw(seed):
            injector = FaultInjector(FaultProfile.flaky(0.5), seed=seed)
            return [
                injector.judge(name, 1.0, LINK).fate
                for name in ("A", "B", "A", "B", "A")
            ]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8) or draw(7) != draw(9)

    def test_interleaving_does_not_change_a_sources_stream(self):
        a_only = FaultInjector(FaultProfile.flaky(0.5), seed=3)
        fates_alone = [
            a_only.judge("A", 1.0, LINK).fate for __ in range(6)
        ]
        mixed = FaultInjector(FaultProfile.flaky(0.5), seed=3)
        fates_mixed = []
        for __ in range(6):
            fates_mixed.append(mixed.judge("A", 1.0, LINK).fate)
            mixed.judge("B", 1.0, LINK)  # interleaved traffic
        assert fates_alone == fates_mixed

    def test_per_source_mapping_with_default(self):
        injector = FaultInjector(
            {"A": FaultProfile.flaky(1.0)},
            seed=0,
            default=FaultProfile.none(),
        )
        assert injector.judge("A", 1.0, LINK).fate.failed
        assert not injector.judge("B", 1.0, LINK).fate.failed

    def test_summary_counts(self):
        injector = FaultInjector(FaultProfile.flaky(1.0), seed=0)
        injector.judge("A", 1.0, LINK)
        injector.judge("A", 1.0, LINK)
        assert "2 attempts" in injector.summary()
        assert "2 injected faults" in injector.summary()
        assert "transient" in injector.summary()

    def test_stalls_and_slowdowns_are_counted(self):
        stalls = FaultInjector(
            FaultProfile(stall_rate=1.0, stall_s=30.0), seed=0
        )
        stalls.judge("A", 1.0, LINK)
        assert stalls.injected["stall"] == 1
        slow = FaultInjector(FaultProfile.degraded(1.0, 4.0), seed=0)
        slow.judge("A", 1.0, LINK)
        assert slow.injected["slowdown"] == 1
        assert "slowdown" in slow.summary()


class TestDataFaultProfile:
    def test_none_is_healthy(self):
        assert DataFaultProfile.none().healthy

    def test_any_rate_is_unhealthy(self):
        assert not DataFaultProfile(stale_rate=0.1).healthy
        assert not DataFaultProfile.corrupting(0.1).healthy

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_invalid_rates_rejected(self, rate):
        with pytest.raises(CostModelError):
            DataFaultProfile(stale_rate=rate)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(CostModelError):
            DataFaultProfile(corrupt_rate=0.5, corrupt_fraction=0.0)

    def test_expected_delivery_charges_lossy_fates(self):
        assert DataFaultProfile.none().expected_delivery == 1.0
        # Duplicates lose nothing.
        assert (
            DataFaultProfile(duplicate_rate=1.0).expected_delivery == 1.0
        )
        lossy = DataFaultProfile(truncated_rate=0.5, truncated_fraction=0.5)
        assert lossy.expected_delivery == pytest.approx(0.75)


class TestDataTamper:
    ITEMS = frozenset({"J55", "T21", "T80", "S07"})
    POOL = frozenset({"A01", "B02", "J55"})

    def injector(self, seed=0, **rates):
        profile = FaultProfile(data=DataFaultProfile(**rates))
        return FaultInjector(profile, seed=seed)

    def test_no_data_profile_never_tampers(self):
        injector = FaultInjector(FaultProfile.flaky(0.5), seed=0)
        payload, tamper = injector.tamper("A", self.ITEMS)
        assert payload is self.ITEMS
        assert not tamper.tampered

    def test_corrupt_replaces_values_with_bytes(self):
        injector = self.injector(corrupt_rate=1.0)
        payload, tamper = injector.tamper("A", self.ITEMS)
        assert tamper.fate is DataFate.CORRUPT
        corrupt = [value for value in payload if isinstance(value, bytes)]
        assert len(corrupt) == tamper.corrupted > 0
        assert injector.injected["corrupt"] == 1

    def test_truncated_drops_tuples(self):
        injector = self.injector(truncated_rate=1.0, truncated_fraction=0.5)
        payload, tamper = injector.tamper("A", self.ITEMS)
        assert tamper.fate is DataFate.TRUNCATED
        assert len(payload) == len(self.ITEMS) - tamper.dropped
        assert set(payload) < self.ITEMS

    def test_stale_adds_spurious_from_pool(self):
        injector = self.injector(stale_rate=1.0)
        payload, tamper = injector.tamper("A", self.ITEMS, pool=self.POOL)
        assert tamper.fate is DataFate.STALE
        spurious = set(payload) - self.ITEMS
        assert len(spurious) == tamper.added > 0
        # Only never-matching pool items are candidates.
        assert spurious <= self.POOL - self.ITEMS

    def test_duplicate_appends_copies(self):
        injector = self.injector(duplicate_rate=1.0)
        payload, tamper = injector.tamper("A", self.ITEMS)
        assert tamper.fate is DataFate.DUPLICATE
        assert isinstance(payload, tuple)
        assert len(payload) == len(self.ITEMS) + tamper.duplicated
        assert set(payload) == self.ITEMS

    def test_at_most_one_fate_stale_first(self):
        injector = self.injector(stale_rate=1.0, corrupt_rate=1.0)
        for __ in range(5):
            __, tamper = injector.tamper("A", self.ITEMS, pool=self.POOL)
            assert tamper.fate is DataFate.STALE

    def test_same_seed_same_tampering(self):
        def run(seed):
            injector = self.injector(seed=seed, stale_rate=0.5,
                                     corrupt_rate=0.5)
            return [
                injector.tamper("A", self.ITEMS, pool=self.POOL)
                for __ in range(8)
            ]

        assert run(3) == run(3)
        assert run(3) != run(4) or run(3) != run(5)

    def test_data_stream_does_not_shift_wire_fates(self):
        # The acceptance bar for replay: adding payload faults must
        # leave a source's wire-level outcomes byte-identical.
        wire_only = FaultInjector(FaultProfile.flaky(0.5), seed=9)
        plain = [
            wire_only.judge("A", 1.0, LINK).fate for __ in range(10)
        ]
        both = FaultInjector(
            FaultProfile(
                transient_rate=0.5,
                data=DataFaultProfile(stale_rate=0.5, corrupt_rate=0.5),
            ),
            seed=9,
        )
        mixed = []
        for __ in range(10):
            mixed.append(both.judge("A", 1.0, LINK).fate)
            both.tamper("A", self.ITEMS, pool=self.POOL)
        assert plain == mixed

    def test_interleaving_does_not_change_a_sources_data_stream(self):
        def tampers(interleave):
            injector = self.injector(seed=5, stale_rate=0.5,
                                     corrupt_rate=0.5)
            out = []
            for __ in range(6):
                out.append(
                    injector.tamper("A", self.ITEMS, pool=self.POOL)
                )
                if interleave:
                    injector.tamper("B", self.ITEMS, pool=self.POOL)
            return out

        assert tampers(False) == tampers(True)

    def relation(self):
        rows = [
            ("J55", "dui", 1990),
            ("T21", "sp", 1991),
            ("T80", "dui", 1992),
            ("S07", "parking", 1993),
        ]
        return Relation("R", dmv_schema(), rows)

    def test_relation_stale_swaps_non_merge_values(self):
        injector = self.injector(stale_rate=1.0)
        payload, tamper = injector.tamper("A", self.relation())
        assert tamper.fate is DataFate.STALE
        assert tamper.diverged > 0
        # Merge keys survive; non-merge values moved between rows.
        assert {row[0] for row in payload.rows} == {
            row[0] for row in self.relation().rows
        }
        assert set(payload.rows) != set(self.relation().rows)

    def test_relation_corrupt_is_schema_violating(self):
        injector = self.injector(corrupt_rate=1.0)
        payload, tamper = injector.tamper("A", self.relation())
        assert tamper.fate is DataFate.CORRUPT
        bad = [
            row for row in payload.rows if isinstance(row[0], bytes)
        ]
        assert len(bad) == tamper.corrupted > 0
