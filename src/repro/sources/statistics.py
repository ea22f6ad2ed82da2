"""Source statistics feeding the optimizer's cost functions.

Sec. 3: "These functions can use whatever information is available at
query optimization time ... Techniques like those discussed in
[5, 15, 25] can be employed in gathering the relevant statistical
information."  This module provides three providers, in decreasing order
of knowledge:

* :class:`ExactStatistics` — the simulation oracle: selectivities and
  cardinalities computed from the ground-truth data (what a perfectly
  informed optimizer would have);
* :class:`SampledStatistics` — a Bernoulli row sample per source, the
  cheap practical approach of multidatabase systems [15];
* :class:`HistogramStatistics` — per-attribute frequency tables and
  equi-width histograms with attribute-independence estimation, the
  classic System-R style catalogue.

All three implement the same :class:`StatisticsProvider` interface:
per-source row cardinality, distinct item count, the federation-wide
item universe, and ``selectivity(source, condition)`` — the estimated
fraction of a source's *distinct items* that satisfy a condition there
(item granularity, because the paper's queries return items).
"""

from __future__ import annotations

import math
import random
from typing import Any, Protocol

from repro.errors import StatisticsError
from repro.relational.algebra import select_items
from repro.relational.conditions import (
    And,
    Between,
    Comparison,
    Condition,
    FalseCondition,
    InSet,
    IsNull,
    Like,
    Not,
    Or,
    TrueCondition,
    _like_regex,
)
from repro.relational.relation import Relation
from repro.relational.schema import DataType
from repro.sources.registry import Federation

#: Fallback selectivity when a histogram cannot say anything about a
#: predicate (same default System R used for "column = value" without
#: statistics).
DEFAULT_SELECTIVITY = 0.1


class StatisticsProvider(Protocol):
    """What the cost models need to know about sources."""

    def cardinality(self, source_name: str) -> int:
        """Number of rows at the source."""
        ...

    def distinct_items(self, source_name: str) -> int:
        """Number of distinct merge-attribute values at the source."""
        ...

    def universe_size(self) -> int:
        """Number of distinct items across the whole federation."""
        ...

    def selectivity(self, source_name: str, condition: Condition) -> float:
        """Estimated fraction of the source's distinct items satisfying
        ``condition`` at that source, in [0, 1]."""
        ...


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _unknown_source(source_name: str) -> StatisticsError:
    return StatisticsError(f"no statistics for source {source_name!r}")


class _BaseStatistics:
    """Shared bookkeeping: cardinalities, item counts, universe size."""

    def __init__(self, federation: Federation):
        self._federation = federation
        self._cardinality = {
            source.name: len(source.table) for source in federation
        }
        self._distinct = {
            source.name: len(source.table.relation.items())
            for source in federation
        }
        self._universe = len(federation.all_items())

    def _check_source(self, source_name: str) -> None:
        if source_name not in self._cardinality:
            raise _unknown_source(source_name)

    def cardinality(self, source_name: str) -> int:
        try:
            return self._cardinality[source_name]
        except KeyError:
            raise _unknown_source(source_name) from None

    def distinct_items(self, source_name: str) -> int:
        try:
            return self._distinct[source_name]
        except KeyError:
            raise _unknown_source(source_name) from None

    def universe_size(self) -> int:
        return self._universe


def _item_fraction(relation: Relation, condition: Condition) -> float:
    """Fraction of ``relation``'s distinct items with a row satisfying
    ``condition``."""
    total = len(relation.items())
    return len(select_items(relation, condition)) / total if total else 0.0


class ExactStatistics(_BaseStatistics):
    """Oracle statistics computed from ground-truth data, cached per
    (source, condition) pair; the source name is checked on a miss only,
    since a cached pair names a known source.

    Example:
        >>> from repro.sources.generators import dmv_fig1
        >>> from repro.relational.parser import parse_condition
        >>> federation, _ = dmv_fig1()
        >>> stats = ExactStatistics(federation)
        >>> stats.selectivity("R1", parse_condition("V = 'dui'"))
        0.6666666666666666
    """

    def __init__(self, federation: Federation):
        super().__init__(federation)
        self._cache: dict[tuple[str, Condition], float] = {}

    def selectivity(self, source_name: str, condition: Condition) -> float:
        key = (source_name, condition)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._check_source(source_name)
        relation = self._federation.source(source_name).table.relation
        value = self._cache[key] = _item_fraction(relation, condition)
        return value


class SampledStatistics(_BaseStatistics):
    """Statistics from a Bernoulli row sample of each source.

    A fraction of each source's rows is drawn once at construction (with
    a deterministic seed); selectivities are then measured on the sample.
    Small sources are sampled entirely so estimates never degenerate.
    """

    def __init__(
        self,
        federation: Federation,
        fraction: float = 0.2,
        seed: int = 0,
        min_sample_rows: int = 25,
    ):
        if not 0.0 < fraction <= 1.0:
            raise StatisticsError(f"sample fraction must be in (0, 1], got {fraction}")
        super().__init__(federation)
        self.fraction = fraction
        rng = random.Random(seed)
        self._samples: dict[str, Relation] = {}
        for source in federation:
            relation = source.table.relation
            target = max(min_sample_rows, int(len(relation) * fraction))
            if target >= len(relation):
                sample_rows = list(relation.rows)
            else:
                sample_rows = rng.sample(list(relation.rows), target)
            self._samples[source.name] = relation.derive(
                sample_rows, name=f"{source.name}_sample"
            )
        self._cache: dict[tuple[str, Condition], float] = {}

    def sample_size(self, source_name: str) -> int:
        self._check_source(source_name)
        return len(self._samples[source_name])

    def selectivity(self, source_name: str, condition: Condition) -> float:
        key = (source_name, condition)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._check_source(source_name)
        sample = self._samples[source_name]
        value = self._cache[key] = _item_fraction(sample, condition)
        return value


# ----------------------------------------------------------------------
# Histogram statistics


class FrequencyTable:
    """Row-level value frequencies of one (categorical) attribute."""

    def __init__(self, values: list[Any]):
        self.total = len(values)
        self.counts: dict[Any, int] = {}
        self.nulls = 0
        for value in values:
            if value is None:
                self.nulls += 1
            else:
                self.counts[value] = self.counts.get(value, 0) + 1

    def fraction_equal(self, value: Any) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(value, 0) / self.total

    def fraction_in(self, values: frozenset[Any]) -> float:
        if self.total == 0:
            return 0.0
        return sum(self.counts.get(v, 0) for v in values) / self.total

    def fraction_like(self, pattern: str) -> float:
        if self.total == 0:
            return 0.0
        regex = _like_regex(pattern)
        hits = sum(
            count
            for value, count in self.counts.items()
            if isinstance(value, str) and regex.match(value)
        )
        return hits / self.total

    def fraction_compare(self, op: str, value: Any) -> float:
        """Fraction of rows whose attribute ``op`` value (exact, it is a
        full frequency table)."""
        if self.total == 0:
            return 0.0
        comparison = Comparison("x", op, value)
        hits = sum(
            count
            for v, count in self.counts.items()
            if comparison.evaluate({"x": v})
        )
        return hits / self.total

    def fraction_null(self) -> float:
        if self.total == 0:
            return 0.0
        return self.nulls / self.total


class EquiWidthHistogram:
    """Row-level equi-width histogram of one numeric attribute."""

    def __init__(self, values: list[Any], buckets: int = 20):
        numeric = [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
        self.total = len(values)
        self.nulls = sum(1 for v in values if v is None)
        self.numeric_count = len(numeric)
        if not numeric:
            self.low = self.high = 0.0
            self.counts: list[int] = []
            return
        self.low = float(min(numeric))
        self.high = float(max(numeric))
        self.buckets = max(1, buckets)
        self.counts = [0] * self.buckets
        width = (self.high - self.low) or 1.0
        for v in numeric:
            index = min(int((float(v) - self.low) / width * self.buckets), self.buckets - 1)
            self.counts[index] += 1

    def fraction_below(self, threshold: float, inclusive: bool) -> float:
        """Estimated fraction of rows with value < (or <=) threshold."""
        if self.total == 0 or not self.counts:
            return 0.0
        if threshold < self.low:
            return 0.0
        if threshold >= self.high:
            below = self.numeric_count
        else:
            width = (self.high - self.low) / self.buckets
            position = (threshold - self.low) / width
            full = int(position)
            below = sum(self.counts[:full])
            if full < len(self.counts):
                below += self.counts[full] * (position - full)
        __ = inclusive  # equi-width histograms cannot distinguish < from <=
        return _clamp(below / self.total)

    def fraction_between(self, low: float, high: float) -> float:
        if high < low:
            return 0.0
        return _clamp(
            self.fraction_below(high, True) - self.fraction_below(low, False)
        )

    def fraction_equal(self, value: float) -> float:
        """Estimate equality via the containing bucket, assuming uniform
        spread over a nominal number of distinct values per bucket."""
        if self.total == 0 or not self.counts:
            return 0.0
        if value < self.low or value > self.high:
            return 0.0
        width = (self.high - self.low) / self.buckets or 1.0
        index = min(int((value - self.low) / width), self.buckets - 1)
        bucket_fraction = self.counts[index] / self.total
        distinct_per_bucket = max(1.0, width)
        return _clamp(bucket_fraction / distinct_per_bucket)


class HistogramStatistics(_BaseStatistics):
    """Catalogue-style statistics: per-attribute histograms + independence.

    Row-level predicate selectivity is estimated structurally from the
    histograms (AND -> product, OR -> inclusion-exclusion, NOT ->
    complement); it is then lifted to *item* granularity assuming each
    item contributes ``rows / distinct_items`` rows independently:
    ``P(item qualifies) = 1 - (1 - p_row)^(rows_per_item)``.
    """

    def __init__(self, federation: Federation, buckets: int = 20):
        super().__init__(federation)
        self.buckets = buckets
        self._frequency: dict[tuple[str, str], FrequencyTable] = {}
        self._histogram: dict[tuple[str, str], EquiWidthHistogram] = {}
        for source in federation:
            relation = source.table.relation
            for attribute in relation.schema:
                values = relation.column(attribute.name)
                key = (source.name, attribute.name)
                if attribute.data_type in (DataType.INT, DataType.FLOAT):
                    self._histogram[key] = EquiWidthHistogram(values, buckets)
                self._frequency[key] = FrequencyTable(values)

    # -- row-level estimation -------------------------------------------

    def _row_selectivity(self, source_name: str, condition: Condition) -> float:
        if isinstance(condition, TrueCondition):
            return 1.0
        if isinstance(condition, FalseCondition):
            return 0.0
        if isinstance(condition, And):
            product = 1.0
            for operand in condition.operands:
                product *= self._row_selectivity(source_name, operand)
            return product
        if isinstance(condition, Or):
            miss = 1.0
            for operand in condition.operands:
                miss *= 1.0 - self._row_selectivity(source_name, operand)
            return 1.0 - miss
        if isinstance(condition, Not):
            return 1.0 - self._row_selectivity(source_name, condition.operand)
        return self._leaf_row_selectivity(source_name, condition)

    def _leaf_row_selectivity(
        self, source_name: str, condition: Condition
    ) -> float:
        attributes = condition.attributes()
        if len(attributes) != 1:
            return DEFAULT_SELECTIVITY
        attribute = next(iter(attributes))
        frequency = self._frequency.get((source_name, attribute))
        histogram = self._histogram.get((source_name, attribute))
        if frequency is None:
            return DEFAULT_SELECTIVITY
        if isinstance(condition, IsNull):
            fraction = frequency.fraction_null()
            return _clamp(1.0 - fraction if condition.negated else fraction)
        if isinstance(condition, InSet):
            return _clamp(frequency.fraction_in(condition.values))
        if isinstance(condition, Like):
            return _clamp(frequency.fraction_like(condition.pattern))
        if isinstance(condition, Between):
            if histogram is not None:
                return histogram.fraction_between(
                    float(condition.low), float(condition.high)
                )
            return _clamp(
                frequency.fraction_compare("<=", condition.high)
                - frequency.fraction_compare("<", condition.low)
            )
        if isinstance(condition, Comparison):
            return self._comparison_selectivity(condition, frequency, histogram)
        return DEFAULT_SELECTIVITY

    @staticmethod
    def _comparison_selectivity(
        condition: Comparison,
        frequency: FrequencyTable,
        histogram: EquiWidthHistogram | None,
    ) -> float:
        value = condition.value
        is_numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if histogram is not None and is_numeric:
            value = float(value)
            if condition.op == "=":
                return histogram.fraction_equal(value)
            if condition.op == "!=":
                return _clamp(1.0 - histogram.fraction_equal(value))
            if condition.op == "<":
                return histogram.fraction_below(value, inclusive=False)
            if condition.op == "<=":
                return histogram.fraction_below(value, inclusive=True)
            if condition.op == ">":
                return _clamp(1.0 - histogram.fraction_below(value, inclusive=True))
            return _clamp(1.0 - histogram.fraction_below(value, inclusive=False))
        return _clamp(frequency.fraction_compare(condition.op, value))

    # -- item-level lift ---------------------------------------------------

    def selectivity(self, source_name: str, condition: Condition) -> float:
        self._check_source(source_name)
        rows = self.cardinality(source_name)
        distinct = self.distinct_items(source_name)
        if rows == 0 or distinct == 0:
            return 0.0
        row_selectivity = _clamp(self._row_selectivity(source_name, condition))
        rows_per_item = rows / distinct
        return _clamp(1.0 - (1.0 - row_selectivity) ** rows_per_item)


def selectivity_error(
    reference: StatisticsProvider,
    estimate: StatisticsProvider,
    source_names: list[str],
    conditions: list[Condition],
) -> float:
    """Mean absolute selectivity error of ``estimate`` against ``reference``.

    Used in tests and benches to quantify how much worse sampled /
    histogram statistics are than the oracle.
    """
    errors = [
        abs(
            reference.selectivity(name, condition)
            - estimate.selectivity(name, condition)
        )
        for name in source_names
        for condition in conditions
    ]
    if not errors:
        return 0.0
    return math.fsum(errors) / len(errors)
