"""Optimizer statistics: equi-depth histograms and selectivity estimation.

A commercial row store orders joins from catalog statistics, not by
peeking at filtered results.  This module provides the classic
ANALYZE-style machinery: one equi-depth histogram per column (built once,
the first time the planner asks about its table, over dictionary codes
for strings, so range semantics carry over), a distinct-value count, and
conjunctive selectivity estimation under the usual attribute-independence
assumption.

:class:`TableStatistics` estimates any IR predicate;
:class:`CatalogStatistics` holds them per table.  The row-store planner
uses the estimates to pick its dimension join order (most selective
first), exactly the decision the paper's System X makes from its own
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import SchemaError
from ..plan.logical import CompareOp, Predicate
from ..plan.predicates import stored_domain
from ..storage.column import Column
from ..storage.table import Table

DEFAULT_BUCKETS = 32


@dataclass(frozen=True)
class Histogram:
    """Most-common values + an equi-depth histogram over the rest.

    As in a production ANALYZE: values holding at least a bucket's worth
    of rows get exact counts in the MCV list; the remaining rows go into
    an equi-depth histogram (``boundaries`` holds ``num_buckets + 1``
    half-open edges).  Estimation error on the histogram part is bounded
    by a bucket; MCV hits are exact.
    """

    boundaries: np.ndarray
    counts: np.ndarray
    mcv_values: np.ndarray
    mcv_counts: np.ndarray
    num_rows: int
    num_distinct: int

    @classmethod
    def build(cls, values: np.ndarray,
              buckets: int = DEFAULT_BUCKETS) -> "Histogram":
        n = len(values)
        empty = np.zeros(0, dtype=np.int64)
        if n == 0:
            return cls(np.zeros(2, dtype=np.int64),
                       np.zeros(1, dtype=np.int64), empty, empty, 0, 0)
        ordered = np.sort(values.astype(np.int64))
        uniq, uniq_counts = np.unique(ordered, return_counts=True)
        distinct = int(len(uniq))
        # MCV list: any value holding >= one bucket's share of rows
        threshold = max(2, n // max(buckets, 1))
        heavy = uniq_counts >= threshold
        mcv_values = uniq[heavy]
        mcv_counts = uniq_counts[heavy].astype(np.int64)
        rest = ordered[~np.isin(ordered, mcv_values)] if heavy.any() \
            else ordered
        if len(rest) == 0:
            boundaries = np.zeros(2, dtype=np.int64)
            counts = np.zeros(1, dtype=np.int64)
        else:
            rest_distinct = max(int(len(np.unique(rest))), 1)
            k = max(1, min(buckets, rest_distinct))
            quantiles = np.linspace(0, len(rest) - 1, k + 1).astype(
                np.int64)
            boundaries = rest[quantiles].astype(np.int64)
            boundaries[-1] = rest[-1] + 1  # half-open top
            boundaries = np.unique(boundaries)
            counts = np.histogram(rest, bins=boundaries)[0].astype(
                np.int64)
        return cls(boundaries, counts, mcv_values, mcv_counts, n, distinct)

    # ------------------------------------------------------------------ #
    @property
    def num_buckets(self) -> int:
        return len(self.counts)

    @property
    def _rest_rows(self) -> int:
        return self.num_rows - int(self.mcv_counts.sum())

    def _rest_range(self, low: int, high: int) -> float:
        """Row count (not fraction) from the histogram part."""
        if self._rest_rows == 0:
            return 0.0
        edges = self.boundaries
        lo = max(low, int(edges[0]))
        hi = min(high, int(edges[-1]) - 1)
        if hi < lo:
            return 0.0
        first = max(int(np.searchsorted(edges, lo, side="right")) - 1, 0)
        last = min(int(np.searchsorted(edges, hi, side="right")) - 1,
                   self.num_buckets - 1)
        total = 0.0
        for b in range(first, last + 1):
            b_lo, b_hi = int(edges[b]), int(edges[b + 1]) - 1
            width = max(b_hi - b_lo + 1, 1)
            overlap = min(hi, b_hi) - max(lo, b_lo) + 1
            if overlap > 0:
                total += self.counts[b] * (overlap / width)
        return total

    def estimate_range(self, low: int, high: int) -> float:
        """Estimated fraction of rows with value in [low, high]."""
        if self.num_rows == 0 or high < low:
            return 0.0
        in_range = (self.mcv_values >= low) & (self.mcv_values <= high)
        exact = float(self.mcv_counts[in_range].sum())
        return min((exact + self._rest_range(low, high)) / self.num_rows,
                   1.0)

    def estimate_eq(self, value: int) -> float:
        """Estimated fraction equal to ``value`` (exact for MCVs,
        uniform-in-bucket otherwise)."""
        if self.num_rows == 0 or self.num_distinct == 0:
            return 0.0
        hit = np.searchsorted(self.mcv_values, value)
        if hit < len(self.mcv_values) and self.mcv_values[hit] == value:
            return float(self.mcv_counts[hit]) / self.num_rows
        edges = self.boundaries
        if self._rest_rows == 0 or value < edges[0] or value >= edges[-1]:
            return 0.0
        bucket = max(0, min(int(np.searchsorted(edges, value,
                                                side="right")) - 1,
                            self.num_buckets - 1))
        b_lo, b_hi = int(edges[bucket]), int(edges[bucket + 1]) - 1
        width = max(b_hi - b_lo + 1, 1)
        return min((self.counts[bucket] / width) / self.num_rows, 1.0)


class TableStatistics:
    """Histograms for every column of one table."""

    def __init__(self, table: Table, buckets: int = DEFAULT_BUCKETS) -> None:
        self.table_name = table.name
        self.num_rows = table.num_rows
        self._columns: Dict[str, Column] = {
            c.name: c for c in table.columns()
        }
        self._histograms: Dict[str, Histogram] = {
            c.name: Histogram.build(c.data, buckets)
            for c in table.columns()
        }

    def histogram(self, column: str) -> Histogram:
        try:
            return self._histograms[column]
        except KeyError:
            raise SchemaError(
                f"no statistics for column {column!r} of "
                f"{self.table_name!r}"
            ) from None

    def estimate_predicate(self, pred: Predicate) -> float:
        """Estimated selectivity of one predicate in [0, 1]."""
        column = self._columns[pred.column]
        hist = self.histogram(pred.column)
        domain = stored_domain(pred, column.data.dtype, column.dictionary)
        if isinstance(domain, np.ndarray):
            return min(sum(map(hist.estimate_eq, domain.tolist()), 0.0), 1.0)
        if getattr(pred, "op", None) is CompareOp.EQ:
            return hist.estimate_eq(domain[0])
        return hist.estimate_range(*domain)

    def estimate_conjunction(self, predicates: Sequence[Predicate]
                             ) -> float:
        """Independence-assumption product of predicate selectivities."""
        selectivity = 1.0
        for pred in predicates:
            selectivity *= self.estimate_predicate(pred)
        return selectivity


class CatalogStatistics:
    """ANALYZE output for a whole database, built on first use.

    A table's histograms are built the first time it is asked about and
    kept: the planner only estimates dimension predicates, so the fact
    table's histograms — most of a load's ANALYZE time — are never built.
    ``tables`` holds the statistics built so far.
    """

    def __init__(self, tables: Dict[str, Table],
                 buckets: int = DEFAULT_BUCKETS) -> None:
        self._sources = dict(tables)
        self._buckets = buckets
        self.tables: Dict[str, TableStatistics] = {}

    def table(self, name: str) -> TableStatistics:
        if name not in self.tables:
            if name not in self._sources:
                raise SchemaError(f"no statistics for table {name!r}")
            self.tables[name] = TableStatistics(self._sources[name],
                                                self._buckets)
        return self.tables[name]

    def estimate_dimension(self, dim: str, predicates: Sequence[Predicate]
                           ) -> float:
        """Estimated fraction of dimension rows surviving ``predicates``."""
        if not predicates:
            return 1.0
        return self.table(dim).estimate_conjunction(predicates)


__all__ = ["Histogram", "TableStatistics", "CatalogStatistics",
           "DEFAULT_BUCKETS"]
