"""The four seeded workloads and the oracle that checks their answers.

Each workload has a *fixed structure* (how many sources, their coverage,
capability tier and link charges, which pool conditions each query
combines) and *seeded content* (every row of every table, every
constant and label in every condition, the order of the queries, the
arrival times and tenants).  The structure is what decides how much
work a query is, so two seeds ask for the same amount of work through
different inputs — which is what lets ten runs on ten seeds agree.

The program sees only the generated inputs: rows handed to
``Relation``, ``FusionQuery`` objects or SQL text.  Expected answers
are computed here from the raw rows with plain set arithmetic, never
with the program's own relational kernels.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Sequence

from measure import Op
from repro.mediator.plan_cache import PlanCache
from repro.mediator.session import Mediator
from repro.query.fusion import FusionQuery
from repro.relational.conditions import Between, Comparison, Condition, InSet
from repro.relational.relation import Relation
from repro.relational.schema import Schema, dmv_schema
from repro.serve.service import MediatorService
from repro.serve.tenants import TenantSpec
from repro.serve.workload import Arrival, WorkloadSpec, generate_arrivals
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.generators import dmv_fig1, synthetic_schema
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.statistics import ExactStatistics
from repro.sources.table_source import TableSource

Row = tuple
Tables = dict[str, list[Row]]

# ----------------------------------------------------------------------
# Conditions: one description, rendered for the program and for the oracle


def _literal(value: Any) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


@dataclass(frozen=True)
class Cond:
    """``attr <op> value`` with ``op`` one of = < <= >= between in."""

    attr: str
    op: str
    value: Any

    def condition(self) -> Condition:
        """The program's condition object."""
        if self.op == "between":
            return Between(self.attr, *self.value)
        if self.op == "in":
            return InSet(self.attr, self.value)
        return Comparison(self.attr, self.op, self.value)

    def sql(self, variable: str) -> str:
        column = f"{variable}.{self.attr}"
        if self.op == "between":
            return f"{column} BETWEEN {self.value[0]} AND {self.value[1]}"
        if self.op == "in":
            return f"{column} IN ({', '.join(_literal(v) for v in self.value)})"
        return f"{column} {self.op} {_literal(self.value)}"

    def accepts(self, actual: Any) -> bool:
        """The oracle's own evaluation of the condition on one value."""
        if self.op == "=":
            return actual == self.value
        if self.op == "<":
            return actual < self.value
        if self.op == "<=":
            return actual <= self.value
        if self.op == ">=":
            return actual >= self.value
        if self.op == "between":
            return self.value[0] <= actual <= self.value[1]
        return actual in self.value


AGGREGATES = ("COUNT(*)", "SUM({0})", "AVG({0})", "MIN({0})", "MAX({0})")


@dataclass(frozen=True)
class QuerySpec:
    """One distinct query: a fusion part and, for aggregates, a GROUP BY."""

    conds: tuple[Cond, ...]
    group_by: str | None = None

    def fusion(self, merge: str) -> FusionQuery:
        return FusionQuery(merge, tuple(c.condition() for c in self.conds))

    def sql(self, merge: str, value: str = "", view: str = "U") -> str:
        variables = [f"u{i + 1}" for i in range(len(self.conds))]
        joins = [f"{a}.{merge} = {b}.{merge}" for a, b in zip(variables, variables[1:])]
        where = joins + [c.sql(v) for c, v in zip(self.conds, variables)]
        select = f"u1.{merge}"
        tail = ""
        if self.group_by is not None:
            aggregates = ", ".join(a.format(f"u1.{value}") for a in AGGREGATES)
            select = f"u1.{self.group_by}, {aggregates}"
            tail = f" GROUP BY u1.{self.group_by}"
        tables = ", ".join(f"{view} {v}" for v in variables)
        return f"SELECT {select} FROM {tables} WHERE {' AND '.join(where)}{tail}"


# ----------------------------------------------------------------------
# The oracle


def matching_items(tables: Tables, schema: Schema, cond: Cond) -> frozenset:
    """Items with a row satisfying ``cond`` at some source."""
    merge = schema.merge_position
    column = schema.position(cond.attr)
    accepts = cond.accepts
    return frozenset(
        row[merge] for rows in tables.values() for row in rows if accepts(row[column])
    )


def fusion_answer(tables: Tables, schema: Schema, conds: Sequence[Cond]) -> frozenset:
    answer = matching_items(tables, schema, conds[0])
    for cond in conds[1:]:
        answer &= matching_items(tables, schema, cond)
    return answer


def grouped_answer(
    tables: Tables, schema: Schema, items: frozenset, group_by: str, value: str
) -> dict[tuple, tuple]:
    """COUNT/SUM/AVG/MIN/MAX of ``value`` per group, over every source's
    rows of the qualifying items."""
    merge = schema.merge_position
    key_column = schema.position(group_by)
    value_column = schema.position(value)
    values: dict[Any, list] = {}
    for rows in tables.values():
        for row in rows:
            if row[merge] in items:
                values.setdefault(row[key_column], []).append(row[value_column])
    return {
        (key,): (len(v), sum(v), sum(v) / len(v), min(v), max(v))
        for key, v in values.items()
    }


def same_groups(actual: Any, expected: dict[tuple, tuple]) -> bool:
    groups = dict(actual.groups)
    if groups.keys() != expected.keys():
        return False
    return all(
        len(groups[key]) == len(want)
        and all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(groups[key], want))
        for key, want in expected.items()
    )


# ----------------------------------------------------------------------
# Building the program's objects


class PlainKit:
    """Constructs the program's objects exactly as a user would.

    The traced pass swaps in ``layers.TracedKit``, whose objects are
    timing subclasses of the same public classes.
    """

    tracer = None

    def source(
        self, relation: Relation, capabilities: SourceCapabilities, link: LinkProfile
    ) -> RemoteSource:
        return RemoteSource(TableSource(relation), capabilities, link)

    def statistics(self, federation: Federation) -> Any:
        return ExactStatistics(federation)

    def plan_cache(self) -> PlanCache:
        return PlanCache()

    def mediator(self, federation: Federation, statistics: Any, **options: Any) -> Mediator:
        return Mediator(federation, statistics=statistics, **options)

    def service(self, federation: Federation, **options: Any) -> MediatorService:
        return MediatorService(federation, **options)


@dataclass
class State:
    """What one cold construction produced."""

    kit: PlainKit
    federation: Federation
    statistics: Any
    plan_cache: PlanCache | None = None
    mediator: Mediator | None = None
    service: MediatorService | None = None


@dataclass(frozen=True)
class SourceShape:
    """The fixed part of one synthetic source."""

    name: str
    coverage: float
    capabilities: SourceCapabilities
    link: LinkProfile


class Workload:
    """Seeded inputs, a cold construction, and rounds of checked ops."""

    name = ""
    merge = "id"
    value = "score"  # the attribute aggregates summarise
    #: queries per round = len(specs) * cycles (one op each unless overridden)
    cycles = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.structure = random.Random(f"e2e:{self.name}:structure")
        self.rng = random.Random(f"e2e:{self.name}:{seed}")
        self.schema: Schema = synthetic_schema()
        self.tables: Tables = {}
        self.specs: list[QuerySpec] = []
        self.expected: dict[Any, Any] = {}

    # -- inputs ---------------------------------------------------------

    @property
    def sql_texts(self) -> list[str]:
        return [spec.sql(self.merge, self.value) for spec in self.specs]

    @property
    def fusion_queries(self) -> list[FusionQuery]:
        return [spec.fusion(self.merge) for spec in self.specs]

    def corrupt_oracle(self) -> None:
        """Make one expected answer wrong (the harness test's fault)."""
        key = next(iter(self.expected))
        wrong = self.expected[key]
        if isinstance(wrong, dict):
            self.expected[key] = {**wrong, ("no-such-group",): (1, 0, 0.0, 0, 0)}
        else:
            self.expected[key] = wrong | {"no-such-item"}

    # -- the program ----------------------------------------------------

    def build(self, kit: PlainKit, tick: Callable[[], None]) -> State:
        """Cold construction: federation, statistics, mediator or service,
        then one warm-up pass over every distinct query.  ``tick`` marks
        the phase boundaries for the calibrated set-up clock."""
        raise NotImplementedError

    def ops(self, state: State) -> list[Op]:
        raise NotImplementedError

    def start_round(self, state: State, **options: Any) -> list[Op]:
        """Everything that happens between rounds, outside the clock."""
        ops = self.ops(state, **options)
        state.federation.reset_traffic()
        gc.collect()
        return ops

    def federation(self, kit: PlainKit, shapes: Sequence[SourceShape]) -> Federation:
        return Federation(
            [
                kit.source(
                    Relation(shape.name, self.schema, self.tables[shape.name]),
                    shape.capabilities,
                    shape.link,
                )
                for shape in shapes
            ],
            name="U",
        )


# ----------------------------------------------------------------------
# Synthetic federations (plan_fresh, scan_heavy, agg_groupby)

REGIONS = ("north", "south", "east", "west", "central")
YEARS = (1990, 1998)
SCORES = (0, 999)
CATEGORIES = 12
#: Category of rank r is 0.8^r as frequent as rank 0, so equality
#: predicates span a range of selectivities.
_CATEGORY_CUM_WEIGHTS = list(accumulate(0.8**r for r in range(CATEGORIES)))

#: A condition *shape*: the seed draws the constant, the shape fixes the
#: selectivity.  ("category", rank) | ("score<", centre) |
#: ("score>=", centre) | ("years", extra years) | ("regions", how many)
Shape = tuple[str, int]


class SyntheticWorkload(Workload):
    n_sources = 4
    n_entities = 1000
    coverage = (0.2, 0.6)
    pool_shapes: tuple[Shape, ...] = ()
    arity = 3
    distinct = 1
    aggregate_sources: tuple[int, ...] = ()

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.shapes = self._source_shapes()
        labels = [f"cat{i:02d}" for i in range(CATEGORIES)]
        self.rng.shuffle(labels)
        # Smoke runs check the plumbing, not the kernels: a tenth of the rows.
        entities = max(300, self.n_entities // 10) if smoke else self.n_entities
        self.tables = {
            shape.name: self._rows(entities, shape.coverage, labels)
            for shape in self.shapes
        }
        pool = self._pool(labels)
        combos = self._combinations()
        if smoke:
            combos = combos[: max(1, len(combos) * self.cycles // 20)]
            self.cycles = 1
        self.rng.shuffle(combos)
        self.specs = [
            QuerySpec(tuple(pool[i] for i in self.rng.sample(combo, len(combo))))
            for combo in combos
        ]
        matching = {cond: matching_items(self.tables, self.schema, cond) for cond in pool}
        self.answers = [
            frozenset.intersection(*(matching[c] for c in spec.conds))
            for spec in self.specs
        ]
        self.expected = dict(enumerate(self.answers))

    def _source_shapes(self) -> list[SourceShape]:
        rng = self.structure
        n = self.n_sources
        tiers = (
            [SemijoinSupport.NATIVE] * (n // 2)
            + [SemijoinSupport.EMULATED] * (n // 4)
            + [SemijoinSupport.UNSUPPORTED] * (n - n // 2 - n // 4)
        )
        rng.shuffle(tiers)
        return [
            SourceShape(
                name=f"S{j:03d}",
                coverage=rng.uniform(*self.coverage),
                capabilities=SourceCapabilities(
                    semijoin=tiers[j],
                    supports_aggregates=j in self.aggregate_sources,
                ),
                link=LinkProfile(
                    request_overhead=rng.uniform(5.0, 50.0),
                    per_item_send=rng.uniform(0.5, 2.0),
                    per_item_receive=rng.uniform(0.5, 2.0),
                    per_row_load=rng.uniform(1.0, 4.0),
                ),
            )
            for j in range(n)
        ]

    def _rows(self, entities: int, coverage: float, labels: list[str]) -> list[Row]:
        rng = self.rng
        covered = rng.sample(range(entities), max(1, round(coverage * entities)))
        ids: list[str] = []
        for entity, copies in zip(covered, rng.choices((1, 2, 3), k=len(covered))):
            ids.extend([f"E{entity:06d}"] * copies)
        n = len(ids)
        return list(
            zip(
                ids,
                rng.choices(labels, cum_weights=_CATEGORY_CUM_WEIGHTS, k=n),
                rng.choices(range(SCORES[0], SCORES[1] + 1), k=n),
                rng.choices(range(YEARS[0], YEARS[1] + 1), k=n),
                rng.choices(REGIONS, k=n),
            )
        )

    def _draw(self, shape: Shape, labels: list[str]) -> Cond:
        kind, arg = shape
        rng = self.rng
        if kind == "category":
            return Cond("category", "=", labels[arg])
        if kind == "score<":
            return Cond("score", "<", round(arg * rng.uniform(0.98, 1.02)))
        if kind == "score>=":
            return Cond("score", ">=", round(arg * rng.uniform(0.98, 1.02)))
        if kind == "years":
            start = rng.randint(YEARS[0], YEARS[1] - arg)
            return Cond("year", "between", (start, start + arg))
        return Cond("region", "in", tuple(rng.sample(REGIONS, arg)))

    def _pool(self, labels: list[str]) -> list[Cond]:
        pool: list[Cond] = []
        for shape in self.pool_shapes:
            cond = self._draw(shape, labels)
            while cond in pool:
                cond = self._draw(shape, labels)
            pool.append(cond)
        return pool

    def _combinations(self) -> list[tuple[int, ...]]:
        """``distinct`` different sets of ``arity`` pool positions, using
        every pool condition about equally often (shuffled decks)."""
        rng = self.structure
        seen: set[frozenset[int]] = set()
        combos: list[tuple[int, ...]] = []
        deck: list[int] = []
        while len(combos) < self.distinct:
            if len(deck) < self.arity:
                deck = list(range(len(self.pool_shapes)))
                rng.shuffle(deck)
            combo = tuple(deck[: self.arity])
            deck = deck[self.arity :]
            if frozenset(combo) not in seen:
                seen.add(frozenset(combo))
                combos.append(combo)
        return combos

    # -- the program ----------------------------------------------------

    mediator_options: dict[str, Any] = {}

    def build(self, kit: PlainKit, tick: Callable[[], None]) -> State:
        federation = self.federation(kit, self.shapes)
        tick()
        statistics = kit.statistics(federation)
        tick()
        options = dict(self.mediator_options)
        cache = None
        if options.pop("plan_cache", False):
            cache = options["plan_cache"] = kit.plan_cache()
        mediator = kit.mediator(federation, statistics, **options)
        tick()
        state = State(kit, federation, statistics, cache, mediator)
        for op in self.ops(state)[: len(self.specs)]:
            op.run()
        tick()
        return state

    def ops(self, state: State) -> list[Op]:
        answer = state.mediator.answer
        queries = self.fusion_queries
        return [
            Op(
                run=lambda q=queries[i]: answer(q),
                check=lambda result, i=i: result.items == self.expected[i],
            )
            for _ in range(self.cycles)
            for i in range(len(self.specs))
        ]


class PlanFresh(SyntheticWorkload):
    """Distinct m=7 queries over 16 tiny sources with no plan cache: the
    optimizer and cost model are ~85% of every query and the data plane is
    bypassed."""

    name = "plan_fresh"
    n_sources = 16
    n_entities = 300
    pool_shapes = (
        *(("category", r) for r in range(8)),
        *(("score<", c) for c in (100, 250, 400, 600, 800)),
        *(("score>=", c) for c in (200, 500, 700, 900)),
        *(("years", w) for w in (0, 1, 2, 4)),
        *(("regions", k) for k in (1, 2, 3)),
    )
    arity = 7
    distinct = 80


class ScanHeavy(SyntheticWorkload):
    """24 cached m=3 plans over ~1e5 rows: predicate masks, semijoin probes
    and set merges do the work; the optimizer is bypassed."""

    name = "scan_heavy"
    n_sources = 4
    n_entities = 20_000
    coverage = (0.4, 0.8)
    pool_shapes = (
        *(("category", r) for r in (0, 2, 5, 9)),
        *(("score<", c) for c in (60, 400, 700)),
        *(("score>=", c) for c in (300, 940)),
        *(("years", w) for w in (0, 2)),
        ("regions", 1),
    )
    arity = 3
    distinct = 24
    cycles = 3
    mediator_options = {"plan_cache": True}


class AggGroupBy(SyntheticWorkload):
    """GROUP BY aggregates over fetched rows and pushed-down partials: row
    materialisation and group-by, not the masks and set merges of scan_heavy."""

    name = "agg_groupby"
    n_sources = 4
    n_entities = 4_000
    coverage = (0.4, 0.8)
    pool_shapes = (
        ("category", 0),
        ("category", 2),
        ("score<", 400),
        ("score<", 700),
        ("score>=", 300),
        ("years", 2),
        ("years", 4),
        ("regions", 2),
    )
    arity = 2
    distinct = 4
    cycles = 4
    aggregate_sources = (0, 2)
    mediator_options = {"plan_cache": True}
    group_bys = ("category", "region", "year")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        shaped = [
            (QuerySpec(spec.conds, group_by), items)
            for spec, items in zip(self.specs, self.answers)
            for group_by in self.group_bys
        ]
        self.specs = [spec for spec, _ in shaped]
        self.expected = {
            i: grouped_answer(self.tables, self.schema, items, spec.group_by, self.value)
            for i, (spec, items) in enumerate(shaped)
        }

    def ops(self, state: State) -> list[Op]:
        answer = state.mediator.answer_aggregate
        texts = self.sql_texts
        return [
            Op(
                run=lambda sql=texts[i]: answer(sql),
                check=lambda result, i=i: same_groups(result.result, self.expected[i]),
            )
            for _ in range(self.cycles)
            for i in range(len(texts))
        ]


# ----------------------------------------------------------------------
# serve_point: the paper's Fig. 1 federation behind the serving tier

TENANTS = (TenantSpec("a", 1), TenantSpec("b", 3))


class ServePoint(Workload):
    """Poisson arrivals of four tiny Fig. 1 queries through MediatorService:
    parse, admission, engine event loop and telemetry dominate; the kernels
    are idle."""

    name = "serve_point"
    merge = "L"
    value = "D"
    arrivals_per_round = 1000
    rate_qps = 4.0
    #: One op is a fixed chunk of submits: a single submit does a variable
    #: share of a query's work (it may or may not retire earlier queries).
    chunk = 10

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.schema = dmv_schema()
        paper_federation, _ = dmv_fig1()
        self.tables = {s.name: list(s.table.relation.rows) for s in paper_federation}
        rng = self.rng
        violations = ["dui", "sp"]
        rng.shuffle(violations)
        years = sorted({row[2] for rows in self.tables.values() for row in rows})
        self.specs = [
            QuerySpec((Cond("V", "=", violations[0]), Cond("V", "=", violations[1]))),
            QuerySpec((Cond("V", "=", rng.choice(violations)), Cond("D", ">=", rng.choice(years)))),
            QuerySpec(
                (Cond("V", "=", "dui"), Cond("V", "=", "sp"), Cond("D", "<=", rng.choice(years)))
            ),
            QuerySpec(
                (
                    Cond("V", "=", rng.choice(violations)),
                    Cond("D", "between", (years[0], rng.choice(years[1:]))),
                    Cond("D", ">=", rng.choice(years[:-1])),
                )
            ),
        ]
        self.expected = {
            spec.sql(self.merge): fusion_answer(self.tables, self.schema, spec.conds)
            for spec in self.specs
        }
        count = self.arrivals_per_round // 20 if smoke else self.arrivals_per_round
        self.arrivals = generate_arrivals(
            WorkloadSpec(
                queries=tuple(self.sql_texts),
                tenants=TENANTS,
                count=count,
                rate_qps=self.rate_qps,
                seed=seed,
            )
        )

    def _service(self, state: State, **options: Any) -> MediatorService:
        return state.kit.service(
            state.federation,
            mode="deterministic",
            tenants=TENANTS,
            pool_slots=2,
            queue_limit=64,
            seed=self.seed,
            statistics=state.statistics,
            plan_cache=state.plan_cache,
            **options,
        )

    def build(self, kit: PlainKit, tick: Callable[[], None]) -> State:
        shapes = [
            SourceShape(name, 1.0, SourceCapabilities.full(), LinkProfile())
            for name in self.tables
        ]
        federation = self.federation(kit, shapes)
        tick()
        statistics = kit.statistics(federation)
        tick()
        state = State(kit, federation, statistics, kit.plan_cache())
        state.service = self._service(state)
        tick()
        for sql in self.sql_texts:
            state.service.submit(sql, tenant="a", at_s=0.0)
        state.service.run_until_idle()
        tick()
        return state

    def ops(self, state: State, **service_options: Any) -> list[Op]:
        """A fresh service per round, fed the round's arrivals in chunks."""
        service = state.service = self._service(state, **service_options)

        def submit_chunk(chunk: Sequence[Arrival], last: bool) -> list:
            tickets = [
                service.submit(a.sql, tenant=a.tenant, at_s=a.at_s) for a in chunk
            ]
            if last:
                service.run_until_idle()
            return tickets

        def check(chunk: Sequence[Arrival], tickets: list) -> bool:
            return len(tickets) == len(chunk) and all(
                t.status == "done" and t.items == self.expected[a.sql]
                for a, t in zip(chunk, tickets)
            )

        chunks = [
            self.arrivals[i : i + self.chunk]
            for i in range(0, len(self.arrivals), self.chunk)
        ]
        return [
            Op(
                run=lambda c=c, last=(c is chunks[-1]): submit_chunk(c, last),
                check=lambda tickets, c=c: check(c, tickets),
                queries=len(c),
            )
            for c in chunks
        ]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ServePoint, PlanFresh, ScanHeavy, AggGroupBy)
}
