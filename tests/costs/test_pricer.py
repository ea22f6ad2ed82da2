"""The semijoin pricer: ``sjq_cost`` with ``(condition, source)`` resolved.

Three contracts.  Model side: ``sjq_pricer(c, s)(x)`` is *bit-equal* to
``sjq_cost(c, s, x)`` for every shipped model and for a subclass that
never heard of pricers — and the one
charge-shaped formula still computes what the two pre-pricer
``sjq_cost`` bodies computed (kept below as the oracle).  Optimizer
side: the stage rules, which now read resolved terms, price every stage
the searches can visit exactly as the per-source-per-stage model calls
they replaced (also kept below).  Price table: every cell of
``sjq_price_table(conditions, sources, sizes)`` is the pricer's answer,
bit for bit, with numpy and without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.calibrated import CalibratedCostModel
from repro.costs.charge import _NUMPY_MIN_CELLS, ChargeCostModel
from repro.costs.estimates import SizeEstimator
from repro.costs.model import CostModel, UniformCostModel
from repro.errors import CostModelError
from repro.optimize.response_time import ResponseTimeStagedProblem
from repro.optimize.search import (
    StagedEstimatorProblem,
    StageOutcome,
    _SubsetContext,
    search_ordering,
)
from repro.optimize.sj import SJStagedProblem
from repro.optimize.sja import SJAStagedProblem
from repro.bench.harness import make_kit
from repro.plans.builder import StagedChoice
from repro.relational.columnar import numpy_available, set_numpy_enabled
from repro.relational.parser import parse_condition
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.generators import SyntheticConfig
from repro.sources.network import LinkProfile
from repro.sources.sampling import FittedLinkParameters
from tests.costs.table_model import TableCostModel

CONDITION = parse_condition("V = 'dui'")
OTHER = parse_condition("V = 'sp'")
SOURCE = "S"
TIERS = tuple(SemijoinSupport)
BATCHES = (None, 1, 7)
SIZES = (0, 0.3, 1, 6.999, 7, 7.001, 1e6)
BAD_SIZES = (-1, math.nan, math.inf)


# ----------------------------------------------------------------------
# (a) every model: the pricer is sjq_cost, to the bit


class _FixedStatistics:
    """One source holding ``distinct`` of 1000 items, one selectivity."""

    def __init__(self, distinct: int, selectivity: float):
        self.distinct = distinct
        self.fixed_selectivity = selectivity

    def cardinality(self, source_name):
        return self.distinct

    def distinct_items(self, source_name):
        return self.distinct

    def universe_size(self):
        return 1000

    def selectivity(self, source_name, condition):
        return self.fixed_selectivity


class _ThreeMethodsOnly(CostModel):
    """What a third-party model looks like: no pricer of its own."""

    def __init__(self, inner: CostModel):
        self.inner = inner

    def sq_cost(self, condition, source_name):
        return self.inner.sq_cost(condition, source_name)

    def sjq_cost(self, condition, source_name, input_size):
        return self.inner.sjq_cost(condition, source_name, input_size)

    def lq_cost(self, source_name):
        return self.inner.lq_cost(source_name)


def _pre_pricer_charge_sjq(charges, capabilities, estimator, input_size):
    """``ChargeCostModel.sjq_cost`` / ``CalibratedCostModel.sjq_cost`` as
    they were written before the pricer (one body per model, identical
    but for the name of the charges dict)."""
    if capabilities.semijoin is SemijoinSupport.UNSUPPORTED:
        return math.inf
    if input_size == 0:
        return 0.0
    received = estimator.sjq_output_size(CONDITION, SOURCE, input_size)
    if capabilities.semijoin is SemijoinSupport.EMULATED:
        return (
            input_size * (charges.request_overhead + charges.per_item_send)
            + received * charges.per_item_receive
        )
    batch = capabilities.max_semijoin_batch
    requests = 1 if batch is None else math.ceil(math.ceil(input_size) / batch)
    return (
        requests * charges.request_overhead
        + input_size * charges.per_item_send
        + received * charges.per_item_receive
    )


charge = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


@given(
    overhead=charge,
    send=charge,
    receive=charge,
    distinct=st.integers(0, 1000),
    selectivity=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_pricer_is_bit_equal_to_sjq_cost(
    overhead, send, receive, distinct, selectivity
):
    estimator = SizeEstimator(_FixedStatistics(distinct, selectivity), [SOURCE])
    link = LinkProfile(overhead, send, receive)
    fitted = FittedLinkParameters(overhead, send, receive, residual=0.0, probes=9)
    for tier, batch in product(TIERS, BATCHES):
        capabilities = SourceCapabilities(semijoin=tier, max_semijoin_batch=batch)
        charge_shaped = [
            ChargeCostModel(
                {SOURCE: link}, {SOURCE: capabilities}, estimator, {SOURCE: distinct}
            ),
            CalibratedCostModel(
                {SOURCE: fitted}, {SOURCE: capabilities}, estimator, {SOURCE: distinct}
            ),
        ]
        plain = [
            UniformCostModel(sq=overhead, sjq_fixed=send, sjq_per_item=receive),
            TableCostModel(sjq_table={(CONDITION, SOURCE): (send, receive)}),
            *charge_shaped,
        ]
        models = [
            *plain,
            *(_ThreeMethodsOnly(model) for model in plain),
        ]
        for model in models:
            pricer = model.sjq_pricer(CONDITION, SOURCE)
            for size in SIZES:
                assert (
                    pricer(size).hex()
                    == model.sjq_cost(CONDITION, SOURCE, size).hex()
                ), (type(model).__name__, tier, batch, size)
            for size in BAD_SIZES:
                with pytest.raises(CostModelError, match="input size"):
                    pricer(size)
                with pytest.raises(CostModelError, match="input size"):
                    model.sjq_cost(CONDITION, SOURCE, size)
        for model, charges in zip(charge_shaped, (link, fitted)):
            for size in SIZES:
                assert (
                    model.sjq_cost(CONDITION, SOURCE, size).hex()
                    == _pre_pricer_charge_sjq(
                        charges, capabilities, estimator, size
                    ).hex()
                ), (type(model).__name__, tier, batch, size)


def test_a_pricer_resolves_its_pair_once():
    # What the optimizer buys: however many sizes are priced, the
    # statistics behind the match fraction are read when the pricer is
    # made, not per size.
    statistics = _FixedStatistics(400, 0.25)
    reads = []
    selectivity = statistics.selectivity
    statistics.selectivity = lambda *args: reads.append(args) or selectivity(*args)
    estimator = SizeEstimator(statistics, [SOURCE])
    model = ChargeCostModel(
        {SOURCE: LinkProfile()},
        {SOURCE: SourceCapabilities(max_semijoin_batch=7)},
        estimator,
        {SOURCE: 400},
    )
    pricer = model.sjq_pricer(CONDITION, SOURCE)
    priced = [pricer(size) for size in SIZES]
    assert len(reads) == 1
    assert priced == [model.sjq_cost(CONDITION, SOURCE, size) for size in SIZES]


# ----------------------------------------------------------------------
# (b) the stage rules over terms against the raw model


class _RawModelRule(StagedEstimatorProblem):
    """The stage rules as they were before terms: one ``sq_cost`` and one
    ``sjq_cost`` call per source per stage.  Kept here as the oracle."""

    def first_stage(self, index: int) -> StageOutcome:
        condition = self.conditions[index]
        cost = sum(
            self.cost_model.sq_cost(condition, source)
            for source in self.source_names
        )
        return StageOutcome(
            cost, (StagedChoice.SELECTION,) * len(self.source_names)
        )


class _RawModelSJ(_RawModelRule):
    def later_stage(self, index: int, prefix_size: float) -> StageOutcome:
        condition = self.conditions[index]
        selection_cost = sum(
            self.cost_model.sq_cost(condition, source)
            for source in self.source_names
        )
        semijoin_cost = sum(
            self.cost_model.sjq_cost(condition, source, prefix_size)
            for source in self.source_names
        )
        n = len(self.source_names)
        if selection_cost < semijoin_cost:
            return StageOutcome(selection_cost, (StagedChoice.SELECTION,) * n)
        return StageOutcome(semijoin_cost, (StagedChoice.SEMIJOIN,) * n)


class _RawModelSJA(_RawModelRule):
    def later_stage(self, index: int, prefix_size: float) -> StageOutcome:
        condition = self.conditions[index]
        cost = 0.0
        choices = []
        for source in self.source_names:
            selection_cost = self.cost_model.sq_cost(condition, source)
            semijoin_cost = self.cost_model.sjq_cost(
                condition, source, prefix_size
            )
            if selection_cost < semijoin_cost:
                choices.append(StagedChoice.SELECTION)
                cost += selection_cost
            else:
                choices.append(StagedChoice.SEMIJOIN)
                cost += semijoin_cost
        return StageOutcome(cost, tuple(choices))


class _RawModelResponseTime(ResponseTimeStagedProblem):
    """The shipped time arithmetic with the finiteness probe put back on
    ``cost_model.sjq_cost`` — the only line of the rule that changed."""

    def later_stage(self, index: int, prefix_size: float) -> StageOutcome:
        condition = self.conditions[index]
        frontier = 0.0
        choices = []
        for source in self.source_names:
            choice, duration = self._source_timing(
                condition,
                source,
                prefix_size,
                lambda size, source=source: self.cost_model.sjq_cost(
                    condition, source, size
                ),
            )
            choices.append(choice)
            frontier = max(frontier, duration)
        return StageOutcome(frontier, tuple(choices))


TIER_MIXES = (
    {"native_fraction": 0.5, "emulated_fraction": 0.25},
    {"native_fraction": 0.34, "emulated_fraction": 0.33},
    {"native_fraction": 1.0, "emulated_fraction": 0.0},
    {"native_fraction": 0.0, "emulated_fraction": 0.5},
)


@functools.lru_cache(maxsize=None)  # planned against, never executed
def _seeded_kit(seed: int):
    """Kit ``seed`` of 40: m 2–7, n 2–16, the three tiers mixed; every
    other kit caps its native sources' semijoin batch at 3."""
    m = 2 + seed % 6
    n = (2, 3, 5, 8, 12, 16)[(seed // 6) % 6]
    kit = make_kit(
        SyntheticConfig(
            n_sources=n,
            n_entities=60,
            coverage=(0.3, 0.8),
            rows_per_entity=(1, 2),
            overhead_range=(2.0, 30.0),
            send_range=(0.5, 2.0),
            receive_range=(0.5, 2.0),
            seed=7000 + seed,
            **TIER_MIXES[seed % len(TIER_MIXES)],
        ),
        m=m,
    )
    if seed % 2:
        capabilities = kit.cost_model.capabilities
        for name, declared in capabilities.items():
            capabilities[name] = replace(declared, max_semijoin_batch=3)
    return kit, m


def _rule_pairs(kit):
    arguments = (
        kit.query.conditions, kit.source_names, kit.cost_model, kit.estimator
    )
    return (
        (SJStagedProblem(*arguments), _RawModelSJ(*arguments)),
        (SJAStagedProblem(*arguments), _RawModelSJA(*arguments)),
        (
            ResponseTimeStagedProblem(*arguments, kit.federation),
            _RawModelResponseTime(*arguments, kit.federation),
        ),
    )


@pytest.mark.parametrize("seed", range(40))
def test_rules_over_terms_price_like_the_raw_model(seed):
    kit, m = _seeded_kit(seed)
    for shipped, oracle in _rule_pairs(kit):
        label = type(shipped).__name__
        shipped_stages = _SubsetContext(shipped, m)
        oracle_stages = _SubsetContext(oracle, m)
        for premask in range(1 << m):  # every stage the subset DP visits
            for index in range(m):
                if premask & (1 << index):
                    continue
                ours = shipped_stages.stage(index, premask)
                theirs = oracle_stages.stage(index, premask)
                assert (ours.cost.hex(), ours.payload) == (
                    theirs.cost.hex(),
                    theirs.payload,
                ), (label, index, premask)
        strategies = ("exhaustive",) * (m <= 6) + ("dp", "bnb", "beam")
        for strategy in strategies:  # each against itself, never across
            ours = search_ordering(shipped, m, strategy)
            theirs = search_ordering(oracle, m, strategy)
            assert (
                ours.ordering,
                ours.payloads,
                ours.cost.hex(),
                ours.subsets_considered,
            ) == (
                theirs.ordering,
                theirs.payloads,
                theirs.cost.hex(),
                theirs.subsets_considered,
            ), (label, strategy)


def test_seeded_kits_cover_what_they_claim():
    tiers, batches, arities, widths = set(), set(), set(), set()
    for seed in range(40):
        kit, m = _seeded_kit(seed)
        arities.add(m)
        widths.add(len(kit.source_names))
        for declared in kit.cost_model.capabilities.values():
            tiers.add(declared.semijoin)
            batches.add(declared.max_semijoin_batch)
    assert tiers == set(SemijoinSupport)
    assert batches == {None, 3}
    assert arities == set(range(2, 8))
    assert min(widths) == 2 and max(widths) == 16


# ----------------------------------------------------------------------
# (c) the price table: every cell is the pricer's answer, to the bit

TABLE_SOURCES = ("N", "B1", "B7", "E", "U")
TABLE_CAPABILITIES = {
    "N": SourceCapabilities(semijoin=SemijoinSupport.NATIVE),
    "B1": SourceCapabilities(max_semijoin_batch=1),
    "B7": SourceCapabilities(max_semijoin_batch=7),
    "E": SourceCapabilities(semijoin=SemijoinSupport.EMULATED),
    "U": SourceCapabilities(semijoin=SemijoinSupport.UNSUPPORTED),
}


class _PerSourceStatistics(_FixedStatistics):
    """Every source holds ``distinct`` of 1000 items."""

    def cardinality(self, source_name):
        return self.distinct


def _table_models(overhead, send, receive, distinct, selectivity):
    """Every shipped model over the five tiers, and each wrapped in a
    subclass that never heard of tables (nor of pricers)."""
    estimator = SizeEstimator(
        _PerSourceStatistics(distinct, selectivity), list(TABLE_SOURCES)
    )
    link = LinkProfile(overhead, send, receive)
    fitted = FittedLinkParameters(overhead, send, receive, residual=0.0, probes=9)
    cardinalities = {source: distinct for source in TABLE_SOURCES}
    shipped = [
        UniformCostModel(sq=overhead, sjq_fixed=send, sjq_per_item=receive),
        TableCostModel(sjq_table={(CONDITION, "B7"): (send, receive)}),
        ChargeCostModel(
            {source: link for source in TABLE_SOURCES},
            TABLE_CAPABILITIES,
            estimator,
            cardinalities,
        ),
        CalibratedCostModel(
            {source: fitted for source in TABLE_SOURCES},
            TABLE_CAPABILITIES,
            estimator,
            cardinalities,
        ),
    ]
    return [*shipped, *(_ThreeMethodsOnly(model) for model in shipped)]


@pytest.fixture(params=[True, False], ids=["numpy", "lists"])
def numpy_mode(request):
    previous = set_numpy_enabled(request.param)
    yield request.param
    set_numpy_enabled(previous)


@given(
    overhead=charge,
    send=charge,
    receive=charge,
    distinct=st.integers(0, 1000),
    selectivity=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_table_cells_are_the_pricer_to_the_bit(
    overhead, send, receive, distinct, selectivity
):
    for numpy_on in (True, False):
        previous = set_numpy_enabled(numpy_on)
        try:
            for model in _table_models(overhead, send, receive, distinct, selectivity):
                # Each condition at its own row of sizes.
                rows = (SIZES, SIZES[::-1])
                tables = model.sjq_price_table((CONDITION, OTHER), TABLE_SOURCES, rows)
                assert len(tables) == len(rows)
                for condition, sizes, table in zip((CONDITION, OTHER), rows, tables):
                    assert len(table) == len(TABLE_SOURCES)
                    for source, row in zip(TABLE_SOURCES, table):
                        pricer = model.sjq_pricer(condition, source)
                        assert [float(cell).hex() for cell in row] == [
                            pricer(size).hex() for size in sizes
                        ], (type(model).__name__, numpy_on, condition, source)
        finally:
            set_numpy_enabled(previous)


def test_charge_tables_cover_every_tier(numpy_mode):
    # Empty binding sets are free wherever a semijoin exists; an
    # unsupported source is infinite at every size; a batch of 7
    # charges ceil(ceil(|X|) / 7) requests, so 7 -> 7.001 adds one.
    model = _table_models(10.0, 1.0, 2.0, 400, 0.25)[2]
    table = model.sjq_price_table((CONDITION,), TABLE_SOURCES, (SIZES,))
    rows = dict(zip(TABLE_SOURCES, (list(map(float, row)) for row in table[0])))
    for source in ("N", "B1", "B7", "E"):
        assert rows[source][0] == 0.0
    assert rows["U"] == [math.inf] * len(SIZES)
    at = {size: position for position, size in enumerate(SIZES)}
    assert rows["B7"][at[7.001]] - rows["B7"][at[7]] > 10.0
    assert rows["N"][at[7.001]] - rows["N"][at[7]] < 1.0
    assert rows["E"][at[1]] == 10.0 + 1.0 + 0.4 * 0.25 * 2.0
    # Forcing numpy on without numpy installed runs the list path.
    built_by_numpy = numpy_mode and numpy_available()
    assert type(table).__module__.startswith("numpy") == built_by_numpy


@pytest.mark.parametrize("bad", BAD_SIZES)
def test_table_refuses_a_bad_size_like_the_pricer(numpy_mode, bad):
    for model in _table_models(10.0, 1.0, 2.0, 400, 0.25):
        with pytest.raises(CostModelError) as expected:
            model.sjq_pricer(CONDITION, "N")(bad)
        with pytest.raises(CostModelError) as raised:
            model.sjq_price_table(
                (CONDITION, OTHER), TABLE_SOURCES, ((1.0, 2.0, 3.0), (1.0, bad, 2.0))
            )
        assert str(raised.value) == str(expected.value), type(model).__name__


def test_an_empty_row_prices_nothing(numpy_mode):
    for model in _table_models(10.0, 1.0, 2.0, 400, 0.25):
        table = model.sjq_price_table((CONDITION,), TABLE_SOURCES, ((),))
        assert [len(row) for row in table[0]] == [0] * len(TABLE_SOURCES)


@pytest.mark.skipif(not numpy_available(), reason="numpy not available")
def test_a_charge_table_picks_numpy_by_its_size():
    # Unforced, numpy builds a table of _NUMPY_MIN_CELLS cells or more
    # (all conditions' cells together), the list path a smaller one
    # (Fig. 1's 6-cell tables); the cells are the same bits either way.
    conditions = (CONDITION, OTHER)
    limit, width = _NUMPY_MIN_CELLS, len(conditions) * len(TABLE_SOURCES)
    for model in _table_models(10.0, 1.0, 2.0, 400, 0.25)[2:4]:
        for columns, numpy_built in (((limit - 1) // width, False), (-(-limit // width), True)):
            rows = [
                [0.5 * column + shift for column in range(columns)] for shift in (0, 1)
            ]
            table = model.sjq_price_table(conditions, TABLE_SOURCES, rows)
            assert isinstance(table, list) != numpy_built, columns
            previous = set_numpy_enabled(not numpy_built)
            try:
                forced = model.sjq_price_table(conditions, TABLE_SOURCES, rows)
            finally:
                set_numpy_enabled(previous)
            assert isinstance(forced, list) == numpy_built
            assert [
                [[float(cell).hex() for cell in row] for row in per_condition]
                for per_condition in table
            ] == [
                [[float(cell).hex() for cell in row] for row in per_condition]
                for per_condition in forced
            ]
