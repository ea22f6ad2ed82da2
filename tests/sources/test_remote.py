"""Unit tests for the remote-source wrapper (network + capabilities)."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.errors import CapabilityError, SourceUnavailableError
from repro.mediator.session import Mediator
from repro.obs import Recorder
from repro.relational.items import ItemSet, items_of
from repro.relational.parser import parse_condition
from repro.relational.relation import Relation
from repro.relational.schema import dmv_schema
from repro.sources.capabilities import SourceCapabilities
from repro.sources.generators import SyntheticConfig, build_synthetic, synthetic_query
from repro.sources.network import LinkProfile
from repro.sources.remote import FailureInjector, RemoteSource
from repro.sources.table_source import TableSource

ROWS = [("J55", "dui", 1993), ("T21", "sp", 1994), ("T80", "dui", 1993)]
LINK = LinkProfile(request_overhead=10, per_item_send=1, per_item_receive=1)


def make_source(capabilities=None, failure=None):
    return RemoteSource(
        TableSource(Relation("R1", dmv_schema(), ROWS)),
        capabilities=capabilities,
        link=LINK,
        failure=failure,
    )


class TestSelection:
    def test_selection_answer_and_charge(self):
        source = make_source()
        answer = source.selection(parse_condition("V = 'dui'"))
        assert answer == frozenset({"J55", "T80"})
        assert source.traffic.message_count == 1
        assert source.traffic.total_cost == 10 + 2  # overhead + 2 received

    def test_reset_traffic(self):
        source = make_source()
        source.selection(parse_condition("V = 'dui'"))
        source.reset_traffic()
        assert source.traffic.message_count == 0
        assert source.table.counters.selections == 0


class TestNativeSemijoin:
    def test_single_request(self):
        source = make_source()
        answer = source.semijoin(
            parse_condition("V = 'dui'"), frozenset({"J55", "T21", "T80"})
        )
        assert answer == frozenset({"J55", "T80"})
        assert source.traffic.message_count == 1
        # overhead + 3 sent + 2 received
        assert source.traffic.total_cost == 10 + 3 + 2

    def test_empty_binding_set_costs_nothing(self):
        source = make_source()
        assert source.semijoin(parse_condition("V = 'dui'"), frozenset()) == (
            frozenset()
        )
        assert source.traffic.message_count == 0

    def test_batching_splits_requests(self):
        source = make_source(
            capabilities=SourceCapabilities(max_semijoin_batch=2)
        )
        answer = source.semijoin(
            parse_condition("V = 'dui'"), frozenset({"J55", "T21", "T80"})
        )
        assert answer == frozenset({"J55", "T80"})
        assert source.traffic.message_count == 2  # ceil(3 / 2)

    def test_batched_equals_unbatched_answer(self):
        condition = parse_condition("D = 1993")
        items = frozenset({"J55", "T80", "T21", "XX"})
        unbatched = make_source().semijoin(condition, items)
        batched = make_source(
            capabilities=SourceCapabilities(max_semijoin_batch=1)
        ).semijoin(condition, items)
        assert unbatched == batched


class TestBindingSetsAsTheyAre:
    """An uncapped native semijoin ships the binding set itself — no sort,
    no copy — and a capped one keeps its ``repr``-ordered batches; either
    way the wire sees exactly the requests it always did."""

    def test_one_request_with_the_bindings_themselves(self, monkeypatch):
        source = make_source()
        sent = []
        semijoin = TableSource.semijoin
        monkeypatch.setattr(
            TableSource,
            "semijoin",
            lambda self, condition, items: sent.append(items) or semijoin(self, condition, items),
        )
        bindings = items_of(["J55", "T21", "T80", "XX"])
        answer = source.semijoin(parse_condition("V = 'dui'"), bindings)
        assert sent == [bindings] and sent[0] is bindings
        assert type(answer) is ItemSet and answer == {"J55", "T80"}
        capped = make_source(capabilities=SourceCapabilities(max_semijoin_batch=3))
        sent.clear()
        assert capped.semijoin(parse_condition("V = 'dui'"), bindings) == answer
        assert [sorted(batch) for batch in sent] == [["J55", "T21", "T80"], ["XX"]]

    # sha256 prefixes of the traffic records + JSONL events of three SJA+
    # queries, as produced before binding sets were shipped as they are.
    GOLDEN = {
        (None, "sequential"): "5e5519c0790159e6",
        (None, "runtime"): "9110ba1f674075c7",
        (7, "sequential"): "8638c794c0e18281",
        (7, "runtime"): "456a3c3f257326a7",
    }

    @pytest.mark.parametrize("batch, backend", sorted(GOLDEN, key=repr))
    def test_traffic_and_events_are_unchanged(self, batch, backend):
        config = SyntheticConfig(n_sources=4, n_entities=300, seed=2511)
        federation = build_synthetic(config)
        if batch is not None:
            for source in federation:
                source.capabilities = replace(source.capabilities, max_semijoin_batch=batch)
        recorder = Recorder()
        mediator = Mediator(federation, backend=backend, recorder=recorder)
        for seed in (1, 2, 3):
            mediator.answer(synthetic_query(config, m=3, seed=seed))
        records = [record for source in federation for record in source.traffic]
        assert {record.operation for record in records} == {"sq", "sjq"}
        text = repr(records) + recorder.events.to_jsonl()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.GOLDEN[batch, backend]


class TestEmulatedSemijoin:
    def test_emulated_matches_native_answer(self):
        condition = parse_condition("V = 'dui'")
        items = frozenset({"J55", "T21", "T80"})
        native = make_source().semijoin(condition, items)
        emulated_source = make_source(
            capabilities=SourceCapabilities.selection_only()
        )
        assert emulated_source.semijoin(condition, items) == native

    def test_emulated_charges_per_binding(self):
        source = make_source(
            capabilities=SourceCapabilities.selection_only()
        )
        source.semijoin(parse_condition("V = 'dui'"), frozenset({"J55", "T21"}))
        assert source.traffic.message_count == 2
        operations = {record.operation for record in source.traffic}
        assert operations == {"sjq-emulated"}

    def test_unsupported_raises(self):
        source = make_source(capabilities=SourceCapabilities.minimal())
        with pytest.raises(CapabilityError):
            source.semijoin(parse_condition("V = 'dui'"), frozenset({"J55"}))


class TestLoadAndFetch:
    def test_load_charges_per_row(self):
        source = make_source()
        relation = source.load()
        assert len(relation) == 3
        record = source.traffic.records[-1]
        assert record.operation == "lq"
        assert record.rows_loaded == 3

    def test_load_unsupported(self):
        source = make_source(
            capabilities=SourceCapabilities(supports_load=False)
        )
        with pytest.raises(CapabilityError):
            source.load()

    def test_fetch_rows_restricts_to_items(self):
        source = make_source()
        rows = source.fetch_rows(frozenset({"J55"}))
        assert rows.items() == frozenset({"J55"})
        record = source.traffic.records[-1]
        assert record.operation == "fetch"
        assert record.items_sent == 1
        assert record.rows_loaded == 1


class TestFailureInjection:
    def test_injector_is_deterministic(self):
        a = FailureInjector(failure_rate=0.5, seed=1)
        b = FailureInjector(failure_rate=0.5, seed=1)

        def failure_pattern(injector):
            pattern = []
            for __ in range(20):
                try:
                    injector.maybe_fail("R1")
                    pattern.append(False)
                except SourceUnavailableError:
                    pattern.append(True)
            return pattern

        assert failure_pattern(a) == failure_pattern(b)

    def test_max_failures_bound(self):
        injector = FailureInjector(failure_rate=1.0, seed=0, max_failures=2)
        failures = 0
        for __ in range(10):
            try:
                injector.maybe_fail("R1")
            except SourceUnavailableError:
                failures += 1
        assert failures == 2
        assert injector.injected_failures == 2

    def test_rate_zero_never_fails(self):
        source = make_source(failure=FailureInjector(0.0, seed=3))
        for __ in range(5):
            source.selection(parse_condition("V = 'dui'"))
        assert source.traffic.message_count == 5

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            FailureInjector(failure_rate=1.5)

    def test_failed_request_charges_nothing(self):
        source = make_source(
            failure=FailureInjector(1.0, seed=0, max_failures=1)
        )
        with pytest.raises(SourceUnavailableError):
            source.selection(parse_condition("V = 'dui'"))
        assert source.traffic.message_count == 0
        # next attempt succeeds (max_failures exhausted)
        source.selection(parse_condition("V = 'dui'"))
        assert source.traffic.message_count == 1
