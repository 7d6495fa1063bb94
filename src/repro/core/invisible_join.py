"""The invisible join (Section 5.4) and its late-materialized fallback.

The invisible join rewrites star-schema foreign-key joins into predicates
on the fact table's FK columns, in three phases:

1. **Dimension filtering** — each dimension's predicates are evaluated
   column-at-a-time, producing a position list over the dimension.  The
   surviving keys either form a contiguous range — in which case the fact
   predicate is rewritten as a **between predicate** (Section 5.4.2) —
   or they are collected into a hash set.
2. **Fact predicate application** — every rewritten join predicate and
   every native fact predicate is applied to its FK/fact column,
   producing position lists that are intersected (bitmap ANDs, range
   clips).  Application is pipelined: each predicate scans only the
   blocks overlapping the bounds of the intersection so far.
3. **Extraction** — only after all predicates are applied are dimension
   rows resolved for the surviving positions.  Contiguous dimension keys
   make this a subtraction ("a fast array look-up"); the date table's
   yyyymmdd keys require a real lookup, charged as hash probes.

Between-predicate rewriting requires no optimizer support: phase 1
detects at run time whether the surviving positions are contiguous and
whether the key column is monotonic, exactly as the paper describes.
Contiguity and monotonicity are properties of the dimension
*projection's* position order (see :class:`DimensionSide`): a dimension
insert can land a fresh key mid-projection and break both.

:class:`LateMaterializedJoin` is the fallback C-Store uses when the
invisible join is disabled (the ``i`` configurations): the same late
position-list machinery, but every join probes a hash table (no between
rewriting) and dimension values are extracted out-of-order mid-plan —
the two costs the invisible join exists to avoid.
"""

from __future__ import annotations

import enum

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..plan.keys import KeyIndex
from ..plan.logical import Predicate, StarQuery
from ..simio.buffer_pool import BufferPool
from ..simio.stats import QueryStats
from ..storage.colfile import CompressionLevel
from ..storage.column import Column
from ..storage.projection import Projection
from ..colstore.operators.fetch import fetch_values, read_column
from ..colstore.operators.join import dimension_rows_for_keys
from ..colstore.operators.scan import (
    predicate_positions,
    probe_positions,
    sorted_predicate_positions,
    stored_bounds,
)
from ..colstore.positions import (
    ArrayPositions,
    EMPTY,
    Positions,
    RangePositions,
    intersect,
)
from .config import ExecutionConfig

from ..obs import span_context

if TYPE_CHECKING:  # avoid an import at module load; only used for typing
    from ..obs import Tracer


class JoinStrategy(enum.Enum):
    """How one dimension's join predicate is applied to the fact table."""

    BETWEEN = "between"   # contiguous keys -> between-predicate rewrite
    HASH = "hash"         # hash-set membership probe
    NONE = "none"         # dimension has no predicates (extraction only)


@dataclass
class DimensionFilter:
    """Phase-1 output for one dimension."""

    dimension: str
    strategy: JoinStrategy
    positions: Positions
    selectivity: float
    #: inclusive FK bounds when strategy is BETWEEN
    key_bounds: Optional[Tuple[int, int]] = None
    #: sorted surviving keys when strategy is HASH
    key_set: Optional[np.ndarray] = None


@dataclass
class DimensionSide:
    """Static description of one dimension the join can touch."""

    name: str
    projection: Projection
    key_column: str
    catalog: Dict[str, Column]
    #: first key value when the keys run first, first + 1, ... in
    #: ``projection``'s position order (enables array extraction)
    contiguous_from: Optional[int]
    #: True when the key column is monotonically non-decreasing in
    #: position order (holds for contiguous keys and for the date table)
    key_monotonic: bool


class _JoinBase:
    """Shared machinery of the invisible and late-materialized joins."""

    def __init__(
        self,
        pool: BufferPool,
        config: ExecutionConfig,
        fact_projection: Projection,
        dims: Dict[str, DimensionSide],
        query: StarQuery,
        level: CompressionLevel,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.pool = pool
        self.config = config
        self.fact = fact_projection
        self.dims = dims
        self.query = query
        self.level = level
        #: optional span tracer; the three join phases open one span each
        self.tracer = tracer

    def _span(self, name: str):
        return span_context(self.tracer, name)

    @property
    def stats(self) -> QueryStats:
        return self.pool.stats

    # ------------------------------------------------------------------ #
    # phase 1: dimension filtering
    # ------------------------------------------------------------------ #
    def filter_dimension(self, dim: DimensionSide,
                         predicates: Sequence[Predicate],
                         allow_between: bool) -> DimensionFilter:
        num_rows = dim.projection.num_rows
        positions: Positions = RangePositions(0, num_rows)
        for pred in predicates:
            domain = stored_bounds(pred, dim.catalog[pred.column], self.level)
            plist = predicate_positions(
                dim.projection.column_file(pred.column), self.pool, domain,
                self.config, restrict=positions.bounds())
            positions = intersect(positions, plist, self.stats)
            if positions.count == 0:
                break
        selectivity = positions.count / max(num_rows, 1)
        if not predicates:
            return DimensionFilter(dim.name, JoinStrategy.NONE, positions,
                                   selectivity)
        contiguous_positions = isinstance(positions, RangePositions)
        if positions.count == 0:
            return DimensionFilter(dim.name, JoinStrategy.HASH, positions,
                                   0.0, key_set=np.zeros(0, dtype=np.int64))
        if allow_between and contiguous_positions and dim.key_monotonic:
            lo_key, hi_key = self._keys_at_range_ends(dim, positions)
            return DimensionFilter(dim.name, JoinStrategy.BETWEEN, positions,
                                   selectivity, key_bounds=(lo_key, hi_key))
        key_set = self._fetch_keys(dim, positions)
        # building the in-memory hash table of surviving keys
        self.stats.hash_inserts += len(key_set)
        return DimensionFilter(dim.name, JoinStrategy.HASH, positions,
                               selectivity, key_set=np.sort(key_set))

    def _keys_at_range_ends(self, dim: DimensionSide,
                            positions: RangePositions) -> Tuple[int, int]:
        if dim.contiguous_from is not None:
            return (dim.contiguous_from + positions.start,
                    dim.contiguous_from + positions.stop - 1)
        ends = ArrayPositions(np.asarray(
            [positions.start, positions.stop - 1], dtype=np.int64))
        key_file = dim.projection.column_file(dim.key_column)
        values = fetch_values(key_file, self.pool, ends, self.config)
        return int(values[0]), int(values[-1])

    def _key_index(self, dim: DimensionSide) -> KeyIndex:
        """Phase 3's lookup structure: the whole key column read in
        projection order, so the rows it resolves are positions."""
        return KeyIndex(read_column(
            dim.projection.column_file(dim.key_column), self.pool,
            self.config))

    def _fetch_keys(self, dim: DimensionSide, positions: Positions
                    ) -> np.ndarray:
        key_file = dim.projection.column_file(dim.key_column)
        return fetch_values(key_file, self.pool, positions,
                            self.config).astype(np.int64)

    # ------------------------------------------------------------------ #
    # phase 2 helpers
    # ------------------------------------------------------------------ #
    def _fact_pred_tasks(self) -> List[Tuple[float, str, object]]:
        """(priority, fact column, translated domain) for native fact
        predicates; sort-key columns get top priority because they can
        produce ranges that enable block skipping for everything else."""
        tasks: List[Tuple[float, str, object]] = []
        for pred in self.query.fact_predicates():
            catalog_col = self._fact_catalog_column(pred.column)
            domain = stored_bounds(pred, catalog_col, self.level)
            sort_pos = self.fact.sorted_on(pred.column)
            priority = float(sort_pos) if sort_pos is not None else 10.0
            tasks.append((priority, pred.column, domain))
        return tasks

    def _fact_catalog_column(self, column: str) -> Column:
        raise NotImplementedError

    def _apply_fact_tasks(
        self,
        tasks: List[Tuple[float, str, object, Optional[DimensionFilter]]],
    ) -> Positions:
        """Predicate application, in one of the two Section 5.4 styles:
        pipelined (each task scans only blocks overlapping the bounds of
        the intersection so far) or parallel-and-AND (every predicate
        runs over the full column; results merged with bitmap ops)."""
        pipelined = self.config.pipelined_predicates
        acc: Positions = RangePositions(0, self.fact.num_rows)
        for _priority, column, domain, dim_filter in sorted(
                tasks, key=lambda t: t[0]):
            restrict = acc.bounds() if pipelined else None
            colfile = self.fact.column_file(column)
            if dim_filter is not None and \
                    dim_filter.strategy is JoinStrategy.HASH:
                plist = probe_positions(colfile, self.pool,
                                        dim_filter.key_set, self.config,
                                        restrict=restrict)
            elif (self.config.sorted_binary_search
                  and self.fact.sorted_on(column) == 0
                  and isinstance(domain, tuple)):
                # O(log #blocks) page reads
                plist = sorted_predicate_positions(colfile, self.pool,
                                                   domain, self.config)
            else:
                plist = predicate_positions(colfile, self.pool, domain,
                                            self.config, restrict=restrict)
            acc = intersect(acc, plist, self.stats)
            if pipelined and acc.count == 0:
                return EMPTY
        return acc


class InvisibleJoin(_JoinBase):
    """The paper's invisible join over one StarQuery."""

    def __init__(self, pool, config, fact_projection, dims, query, level,
                 fact_catalog: Dict[str, Column],
                 allow_between: bool = True,
                 tracer: Optional["Tracer"] = None) -> None:
        super().__init__(pool, config, fact_projection, dims, query, level,
                         tracer=tracer)
        self.fact_catalog = fact_catalog
        self.allow_between = (allow_between and config.invisible_join
                              and config.between_rewriting)
        self.filters: Dict[str, DimensionFilter] = {}

    def _fact_catalog_column(self, column: str) -> Column:
        return self.fact_catalog[column]

    def run(self) -> Tuple[Positions, Dict[str, np.ndarray]]:
        """Execute all three phases.

        Returns the surviving fact positions and, per dimension that
        contributes group-by attributes, the dimension row index aligned
        with those positions.
        """
        query = self.query
        # phase 1
        filtered: List[DimensionFilter] = []
        with self._span("phase1:dimension-filter"):
            for dim_name in query.dimensions_used():
                dim = self.dims[dim_name]
                preds = query.dimension_predicates(dim_name)
                f = self.filter_dimension(dim, preds, self.allow_between)
                self.filters[dim_name] = f
                if f.strategy is not JoinStrategy.NONE:
                    filtered.append(f)

        # phase 2
        with self._span("phase2:fact-scan"):
            tasks: List[Tuple[float, str, object,
                              Optional[DimensionFilter]]] = []
            for priority, column, domain in self._fact_pred_tasks():
                tasks.append((priority, column, domain, None))
            for f in filtered:
                fk = query.fk_of(f.dimension)
                sort_pos = self.fact.sorted_on(fk)
                if sort_pos is not None:
                    priority = float(sort_pos)
                else:
                    priority = 20.0 + f.selectivity
                domain = f.key_bounds \
                    if f.strategy is JoinStrategy.BETWEEN else None
                tasks.append((priority, fk, domain, f))
            if tasks:
                survivors = self._apply_fact_tasks(tasks)
            else:
                survivors = RangePositions(0, self.fact.num_rows)

        # phase 3
        with self._span("phase3:extraction"):
            dim_rows: Dict[str, np.ndarray] = {}
            group_dims = {g.table for g in query.group_by
                          if g.table != query.fact_table}
            for dim_name in sorted(group_dims):
                dim = self.dims[dim_name]
                fk_file = self.fact.column_file(query.fk_of(dim_name))
                fk_values = fetch_values(fk_file, self.pool, survivors,
                                         self.config).astype(np.int64)
                index = None
                if dim.contiguous_from is None:
                    index = self._key_index(dim)
                dim_rows[dim_name] = dimension_rows_for_keys(
                    fk_values, self.stats, self.config, dim.contiguous_from,
                    index=index)
        return survivors, dim_rows


class LateMaterializedJoin(_JoinBase):
    """C-Store's pre-invisible-join fallback ([5], Section 5.4).

    Differences from the invisible join, each honestly charged:
    no between-predicate rewriting (every join predicate probes a hash
    set), and dimension rows for group-by extraction are resolved with
    hash lookups regardless of key contiguity (followed by out-of-order
    value extraction, charged by the caller via ``gather_attribute``).
    """

    def __init__(self, pool, config, fact_projection, dims, query, level,
                 fact_catalog: Dict[str, Column],
                 tracer: Optional["Tracer"] = None) -> None:
        super().__init__(pool, config, fact_projection, dims, query, level,
                         tracer=tracer)
        self.fact_catalog = fact_catalog
        self.filters: Dict[str, DimensionFilter] = {}

    def _fact_catalog_column(self, column: str) -> Column:
        return self.fact_catalog[column]

    def run(self) -> Tuple[Positions, Dict[str, np.ndarray]]:
        query = self.query
        filtered: List[DimensionFilter] = []
        with self._span("phase1:dimension-filter"):
            for dim_name in query.dimensions_used():
                dim = self.dims[dim_name]
                preds = query.dimension_predicates(dim_name)
                f = self.filter_dimension(dim, preds, allow_between=False)
                self.filters[dim_name] = f
                if f.strategy is not JoinStrategy.NONE:
                    filtered.append(f)

        with self._span("phase2:fact-scan"):
            tasks: List[Tuple[float, str, object,
                              Optional[DimensionFilter]]] = []
            for priority, column, domain in self._fact_pred_tasks():
                tasks.append((priority, column, domain, None))
            for f in filtered:
                fk = query.fk_of(f.dimension)
                tasks.append((20.0 + f.selectivity, fk, None, f))
            if tasks:
                survivors = self._apply_fact_tasks(tasks)
            else:
                survivors = RangePositions(0, self.fact.num_rows)

        with self._span("phase3:extraction"):
            dim_rows: Dict[str, np.ndarray] = {}
            group_dims = {g.table for g in query.group_by
                          if g.table != query.fact_table}
            for dim_name in sorted(group_dims):
                dim = self.dims[dim_name]
                fk_file = self.fact.column_file(query.fk_of(dim_name))
                fk_values = fetch_values(fk_file, self.pool, survivors,
                                         self.config).astype(np.int64)
                # the LM join resolves dimension rows by hash lookup even
                # for contiguous keys — it has no key/position
                # equivalence notion
                dim_rows[dim_name] = dimension_rows_for_keys(
                    fk_values, self.stats, self.config, None,
                    index=self._key_index(dim))
        return survivors, dim_rows


__all__ = [
    "InvisibleJoin",
    "LateMaterializedJoin",
    "JoinStrategy",
    "DimensionFilter",
    "DimensionSide",
]
