"""Workload and federation generators.

Three families:

* :func:`dmv_fig1` — the paper's Fig. 1 running example, literally: three
  DMV relations and the "dui AND sp" fusion query (whose answer fuses
  rows across sources);
* :func:`build_synthetic` — parameterized federations with controllable
  entity overlap, per-condition selectivity, row multiplicity, and
  source heterogeneity (capability tiers, link charges), used by the
  benchmark sweeps;
* :func:`bibliographic_federation` — the Sec. 1 bibliographic scenario:
  overlapping digital libraries indexing documents by keyword / year /
  venue, with the two-phase fetch pattern.

All randomness flows through explicit seeds; identical configs produce
identical federations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import QueryError
from repro.query.fusion import FusionQuery
from repro.relational.conditions import (
    Between,
    Comparison,
    Condition,
    InSet,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DataType, Schema, dmv_schema
from repro.sources.capabilities import SemijoinSupport, SourceCapabilities
from repro.sources.network import LinkProfile
from repro.sources.registry import Federation
from repro.sources.remote import RemoteSource
from repro.sources.table_source import TableSource

# ----------------------------------------------------------------------
# Fig. 1: the DMV example


def dmv_fig1(
    link: LinkProfile | None = None,
    capabilities: SourceCapabilities | None = None,
) -> tuple[Federation, FusionQuery]:
    """The paper's Fig. 1 federation and its running fusion query.

    Returns the three DMV relations exactly as printed and the query
    "drivers with both a dui and a sp violation".  The correct answer is
    ``{'J55', 'T21'}``: J55's dui is at R1 and sp at R2; T21's dui is at
    R2 and sp at R1/R3 — the fusion happens *across* sources.
    """
    schema = dmv_schema()
    tables = {
        "R1": [("J55", "dui", 1993), ("T21", "sp", 1994), ("T80", "dui", 1993)],
        "R2": [("T21", "dui", 1996), ("J55", "sp", 1996), ("T11", "sp", 1993)],
        "R3": [("T21", "sp", 1993), ("S07", "sp", 1996), ("S07", "sp", 1993)],
    }
    sources = [
        RemoteSource(
            TableSource(Relation(name, schema, rows)),
            capabilities=capabilities or SourceCapabilities.full(),
            link=link or LinkProfile(),
        )
        for name, rows in tables.items()
    ]
    query = FusionQuery.from_strings("L", ["V = 'dui'", "V = 'sp'"], name="dmv-dui-sp")
    return Federation(sources, name="U"), query


#: The ground-truth answer of the Fig. 1 query, used by tests and benches.
DMV_FIG1_ANSWER = frozenset({"J55", "T21"})


# ----------------------------------------------------------------------
# Synthetic federations


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of a synthetic federation.

    Attributes:
        n_sources: Number of sources (the paper's ``n``).
        n_entities: Size of the global entity universe.
        coverage: Fraction of the universe each source covers, either a
            single float or a (low, high) range sampled per source —
            this is the *overlap* knob: coverage 1.0 means full
            replication, small coverage means near-partitioned data.
        rows_per_entity: (low, high) number of rows each covered entity
            contributes at a source (entities recur, like repeat
            offenders in the DMV example).
        categories: Number of distinct category values; category
            frequencies follow a geometric decay so equality predicates
            span a range of selectivities.
        score_range: Inclusive integer range of the numeric ``score``.
        year_range: Inclusive integer range of ``year``.
        native_fraction / emulated_fraction: Fractions of sources with
            native and emulated-only semijoin support; the remainder are
            fully unsupported.  Heterogeneity knob of Sec. 2.5.
        overhead_range / send_range / receive_range / load_range:
            Per-source link-charge parameter ranges (uniform).
        seed: Master seed; everything derives from it.
    """

    n_sources: int = 10
    n_entities: int = 1000
    coverage: float | tuple[float, float] = (0.2, 0.6)
    rows_per_entity: tuple[int, int] = (1, 3)
    categories: int = 12
    score_range: tuple[int, int] = (0, 999)
    year_range: tuple[int, int] = (1990, 1998)
    native_fraction: float = 1.0
    emulated_fraction: float = 0.0
    overhead_range: tuple[float, float] = (10.0, 10.0)
    send_range: tuple[float, float] = (1.0, 1.0)
    receive_range: tuple[float, float] = (1.0, 1.0)
    load_range: tuple[float, float] = (2.0, 2.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sources < 1:
            raise QueryError("n_sources must be >= 1")
        if self.n_entities < 1:
            raise QueryError("n_entities must be >= 1")
        if self.native_fraction + self.emulated_fraction > 1.0 + 1e-9:
            raise QueryError(
                "native_fraction + emulated_fraction must not exceed 1"
            )


def synthetic_schema() -> Schema:
    """The schema shared by all synthetic sources."""
    return Schema(
        (
            Attribute("id", DataType.STRING),
            Attribute("category", DataType.STRING),
            Attribute("score", DataType.INT),
            Attribute("year", DataType.INT),
            Attribute("region", DataType.STRING),
        ),
        merge_attribute="id",
    )


_REGIONS = ("north", "south", "east", "west", "central")


def _entity_id(index: int) -> str:
    return f"E{index:06d}"


def _category_weights(k: int) -> list[float]:
    """Geometric decay: category i has weight ~ 0.8^i (normalized)."""
    raw = [0.8**i for i in range(k)]
    total = sum(raw)
    return [w / total for w in raw]


def _sample_range(rng: random.Random, bounds: tuple[float, float]) -> float:
    low, high = bounds
    return low if low == high else rng.uniform(low, high)


def build_synthetic(config: SyntheticConfig) -> Federation:
    """Generate a deterministic synthetic federation from ``config``.

    Each source draws a random subset of the entity universe (its
    coverage), then emits 1..k rows per covered entity with attribute
    values drawn independently per row.  Capability tiers and link
    charges are assigned per source from the configured fractions and
    ranges.
    """
    rng = random.Random(config.seed)
    schema = synthetic_schema()
    universe = [_entity_id(i) for i in range(config.n_entities)]
    categories = [f"cat{i:02d}" for i in range(config.categories)]
    weights = _category_weights(config.categories)

    tier_for_index = _capability_tiers(config, rng)

    sources: list[RemoteSource] = []
    for j in range(config.n_sources):
        coverage = (
            config.coverage
            if isinstance(config.coverage, float)
            else rng.uniform(*config.coverage)
        )
        covered_count = max(1, round(coverage * config.n_entities))
        covered = rng.sample(universe, min(covered_count, len(universe)))
        rows = []
        for entity in covered:
            row_count = rng.randint(*config.rows_per_entity)
            for __ in range(row_count):
                rows.append(
                    (
                        entity,
                        rng.choices(categories, weights=weights)[0],
                        rng.randint(*config.score_range),
                        rng.randint(*config.year_range),
                        rng.choice(_REGIONS),
                    )
                )
        relation = Relation(f"S{j:03d}", schema, rows)
        link = LinkProfile(
            request_overhead=_sample_range(rng, config.overhead_range),
            per_item_send=_sample_range(rng, config.send_range),
            per_item_receive=_sample_range(rng, config.receive_range),
            per_row_load=_sample_range(rng, config.load_range),
        )
        capabilities = SourceCapabilities(
            semijoin=tier_for_index[j],
            supports_load=True,
        )
        sources.append(
            RemoteSource(TableSource(relation), capabilities, link)
        )
    return Federation(sources, name="U")


def _capability_tiers(
    config: SyntheticConfig, rng: random.Random
) -> list[SemijoinSupport]:
    """Assign capability tiers to sources honoring the configured fractions."""
    n = config.n_sources
    native = round(config.native_fraction * n)
    emulated = round(config.emulated_fraction * n)
    native = min(native, n)
    emulated = min(emulated, n - native)
    tiers = (
        [SemijoinSupport.NATIVE] * native
        + [SemijoinSupport.EMULATED] * emulated
        + [SemijoinSupport.UNSUPPORTED] * (n - native - emulated)
    )
    rng.shuffle(tiers)
    return tiers


def synthetic_conditions(
    config: SyntheticConfig,
    count: int,
    seed: int | None = None,
) -> list[Condition]:
    """Draw ``count`` varied conditions over the synthetic schema.

    Mixes category equalities (a range of selectivities thanks to the
    geometric category frequencies), score thresholds, year ranges, and
    region membership — enough diversity that condition orderings and
    per-source choices actually matter.
    """
    rng = random.Random(config.seed + 7919 if seed is None else seed)
    categories = [f"cat{i:02d}" for i in range(config.categories)]
    low_score, high_score = config.score_range
    low_year, high_year = config.year_range
    makers = [
        lambda: Comparison("category", "=", rng.choice(categories)),
        lambda: Comparison(
            "score", "<", rng.randint(low_score + 1, max(low_score + 1, high_score))
        ),
        lambda: Comparison(
            "score", ">=", rng.randint(low_score, max(low_score, high_score - 1))
        ),
        lambda: Between(
            "year",
            (year := rng.randint(low_year, high_year)),
            min(high_year, year + rng.randint(0, 3)),
        ),
        lambda: InSet("region", rng.sample(_REGIONS, rng.randint(1, 3))),
    ]
    return [rng.choice(makers)() for __ in range(count)]


def synthetic_query(
    config: SyntheticConfig, m: int, seed: int | None = None
) -> FusionQuery:
    """A random fusion query with ``m`` conditions over the synthetic schema."""
    return FusionQuery(
        "id",
        tuple(synthetic_conditions(config, m, seed)),
        name=f"synthetic-m{m}",
    )


def replicate_federation(
    federation: Federation, copies: int, suffix: str = "~"
) -> Federation:
    """Mirror every source of ``federation`` ``copies`` times.

    Each source gains ``copies - 1`` mirrors named ``<name><suffix><k>``
    serving the *same* relation over the same link and capabilities, and
    every (source, mirrors...) set is declared a replica group — the
    redundancy the resilience layer (hedging, breaker rerouting,
    re-planning) exploits.  ``copies == 1`` returns an equivalent
    federation with no mirrors.

    Mirrors share ground-truth rows but are independent wrappers:
    separate traffic logs, separate connections, separate fault streams.
    """
    if copies < 1:
        raise QueryError(f"copies must be >= 1, got {copies}")
    sources: list[RemoteSource] = []
    groups: list[tuple[str, ...]] = []
    for source in federation:
        group = [source.name]
        sources.append(source)
        for k in range(1, copies):
            mirror_name = f"{source.name}{suffix}{k}"
            mirror = RemoteSource(
                TableSource(
                    Relation(
                        mirror_name,
                        source.schema,
                        list(source.table.relation.rows),
                    )
                ),
                capabilities=source.capabilities,
                link=source.link,
            )
            sources.append(mirror)
            group.append(mirror_name)
        if len(group) > 1:
            groups.append(tuple(group))
    return Federation(sources, name=federation.name, replica_groups=groups)


# ----------------------------------------------------------------------
# Bibliographic scenario (Sec. 1's two-phase motivation)


def bibliographic_schema() -> Schema:
    """Documents indexed by overlapping digital libraries.

    ``doc`` is the merge attribute; each row is one (document, keyword)
    index entry with the publication year and venue, so a document
    contributes several rows — precisely the "incomplete and overlapping
    information" setting of the paper's introduction.
    """
    return Schema(
        (
            Attribute("doc", DataType.STRING),
            Attribute("kw", DataType.STRING),
            Attribute("year", DataType.INT),
            Attribute("venue", DataType.STRING),
        ),
        merge_attribute="doc",
    )


_KEYWORDS = (
    "mediator", "semijoin", "optimization", "wrapper", "integration",
    "heterogeneous", "distributed", "query", "internet", "fusion",
    "semistructured", "warehouse", "caching", "index", "transaction",
)

_VENUES = ("EDBT", "VLDB", "SIGMOD", "ICDE", "PODS")


def bibliographic_federation(
    n_libraries: int = 4,
    n_documents: int = 400,
    seed: int = 0,
) -> Federation:
    """Overlapping digital libraries with heterogeneous capabilities.

    Library 0 is a large full-capability index; later libraries are
    smaller, cover fewer documents, and degrade in capability (the last
    one only supports passed bindings), mirroring how real bibliography
    services differ.
    """
    rng = random.Random(seed)
    schema = bibliographic_schema()
    documents = [f"doc{i:05d}" for i in range(n_documents)]
    doc_year = {d: rng.randint(1988, 1998) for d in documents}
    doc_venue = {d: rng.choice(_VENUES) for d in documents}
    doc_keywords = {
        d: rng.sample(_KEYWORDS, rng.randint(2, 5)) for d in documents
    }

    sources = []
    for library in range(n_libraries):
        coverage = 0.9 if library == 0 else rng.uniform(0.25, 0.6)
        covered = rng.sample(documents, max(1, round(coverage * n_documents)))
        rows = []
        for doc in covered:
            # each library indexes a (possibly partial) subset of keywords
            indexed = [
                kw for kw in doc_keywords[doc] if rng.random() < 0.8
            ] or [doc_keywords[doc][0]]
            for kw in indexed:
                rows.append((doc, kw, doc_year[doc], doc_venue[doc]))
        if library == n_libraries - 1 and n_libraries > 1:
            capabilities = SourceCapabilities.selection_only()
        else:
            capabilities = SourceCapabilities.full()
        link = LinkProfile(
            request_overhead=rng.uniform(5.0, 40.0),
            per_item_send=rng.uniform(0.5, 2.0),
            per_item_receive=rng.uniform(0.5, 2.0),
            per_row_load=rng.uniform(1.0, 4.0),
        )
        relation = Relation(f"LIB{library}", schema, rows)
        sources.append(RemoteSource(TableSource(relation), capabilities, link))
    return Federation(sources, name="U")


def bibliographic_query(keywords: tuple[str, str] = ("mediator", "semijoin"),
                        since_year: int | None = None) -> FusionQuery:
    """Documents matching two keywords (and optionally a year floor)."""
    conditions: list[Condition] = [
        Comparison("kw", "=", keywords[0]),
        Comparison("kw", "=", keywords[1]),
    ]
    if since_year is not None:
        conditions.append(Comparison("year", ">=", since_year))
    return FusionQuery("doc", tuple(conditions), name="biblio")


# ----------------------------------------------------------------------
# Small helpers shared by tests


def random_item_set(
    universe_size: int, count: int, seed: int = 0
) -> frozenset[str]:
    """A deterministic random subset of the synthetic entity universe."""
    rng = random.Random(seed)
    count = min(count, universe_size)
    return frozenset(
        _entity_id(i) for i in rng.sample(range(universe_size), count)
    )
