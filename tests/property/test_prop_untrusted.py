"""Property tests for data-fault streams and verified replay.

Two replay guarantees back the untrusted-answers work:

* per-source data-fault streams are *interleaving-independent* — what
  the injector does to source A's payloads cannot depend on how much
  traffic other sources saw in between; and
* a verified run is a pure function of the workload seed — the same
  seed produces a byte-identical event stream, confirmation fetches
  and votes included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventLog, Recorder
from repro.plans.builder import build_filter_plan
from repro.runtime.engine import Resilience, RuntimeEngine
from repro.runtime.faults import (
    DataFaultProfile,
    FaultInjector,
    FaultProfile,
)
from repro.sources.generators import dmv_fig1, replicate_federation

ITEMS = frozenset({"J55", "T21", "T80", "S07"})
POOL = frozenset({"A01", "B02"})

#: Every fate armed, so the per-delivery draws all matter.
NOISY = DataFaultProfile(
    stale_rate=0.3,
    corrupt_rate=0.3,
    truncated_rate=0.3,
    duplicate_rate=0.3,
)


def injector(seed: int) -> FaultInjector:
    return FaultInjector(FaultProfile(data=NOISY), seed=seed)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    schedule=st.lists(
        st.sampled_from(["A", "B", "C"]), min_size=1, max_size=30
    ),
)
def test_data_streams_are_interleaving_independent(seed, schedule):
    # Tamper per the interleaved schedule, keeping each source's
    # sequence of outcomes; then replay each source alone.
    mixed = injector(seed)
    per_source: dict[str, list] = {}
    for name in schedule:
        per_source.setdefault(name, []).append(
            mixed.tamper(name, ITEMS, pool=POOL)
        )
    for name, outcomes in per_source.items():
        alone = injector(seed)
        replayed = [
            alone.tamper(name, ITEMS, pool=POOL)
            for __ in range(len(outcomes))
        ]
        assert replayed == outcomes


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_wire_fates_unchanged_by_data_faults(seed):
    from repro.sources.network import LinkProfile

    link = LinkProfile(latency_s=0.1, items_per_s=1000.0)
    wire_only = FaultInjector(FaultProfile.flaky(0.5), seed=seed)
    with_data = FaultInjector(
        FaultProfile(transient_rate=0.5, data=NOISY), seed=seed
    )
    for __ in range(8):
        expected = wire_only.judge("A", 1.0, link)
        actual = with_data.judge("A", 1.0, link)
        with_data.tamper("A", ITEMS, pool=POOL)
        assert actual == expected


def verified_event_stream(seed: int) -> str:
    federation, query = dmv_fig1()
    federation = replicate_federation(federation, 2)
    profiles = {
        f"R{i}~1": FaultProfile(
            data=DataFaultProfile(stale_rate=0.6, corrupt_rate=1.0)
        )
        for i in (1, 2, 3)
    }
    recorder = Recorder(events=EventLog())
    engine = RuntimeEngine(
        federation,
        faults=FaultInjector(profiles, seed=seed),
        resilience=Resilience(load_balance=True, verify="vote"),
        recorder=recorder,
    )
    plan = build_filter_plan(query, federation.representative_names)
    for __ in range(2):
        engine.run(plan)
    assert recorder.events is not None
    return recorder.events.to_jsonl()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200))
def test_verified_runs_replay_byte_identically(seed):
    assert verified_event_stream(seed) == verified_event_stream(seed)
