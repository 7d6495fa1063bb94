"""Config-driven query planning for the column store.

Late-materialization plans run the invisible join (or its hash fallback),
fetch aggregate inputs only at surviving positions, and aggregate
vectorized.  Early-materialization plans read whole columns, construct
tuples up front, and execute a row-store-style pipeline — which is also
the execution mode of the "CS Row-MV" configuration.

Output decoding is uniform: group values travel in the stored domain
(ints, dictionary codes, or raw bytes when compression is off) and are
decoded per output column by the shared result tail
(:mod:`repro.plan.tail`), charging a dictionary lookup per group per
string column.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import PlanError
from ..obs import Tracer, span_context
from ..plan.aggregates import (
    factorize_groups,
    finalize as finalize_agg,
    finalize_column,
    needs_expr_values,
    reduce_groups,
    reduce_scalar,
)
from ..plan.logical import StarQuery, expr_columns
from ..plan.tail import GroupColumn, encode_group, finish
from ..result import ResultSet
from ..simio.buffer_pool import BufferPool
from ..simio.stats import QueryStats
from ..storage.colfile import CompressionLevel
from ..storage.column import Column
from ..storage.projection import Projection
from ..core.config import ExecutionConfig
from ..core.invisible_join import (
    DimensionSide,
    InvisibleJoin,
    LateMaterializedJoin,
)
from .operators.aggregate import (
    eval_fact_expr,
    grouped_aggregate,
    scalar_aggregate,
)
from .operators.fetch import fetch_values, read_column
from .operators.join import gather_attribute
from .operators.materialize import (
    DimensionRows,
    _apply_row_predicate,
    row_pipeline,
)
from .operators.scan import stored_bounds
from .positions import ArrayPositions


class StoreContext:
    """What the planner needs from the engine (duck-typed facade slice)."""

    def __init__(
        self,
        pool: BufferPool,
        projections: Dict[Tuple[str, CompressionLevel], List[Projection]],
        tables: Dict[str, "object"],  # name -> storage Table
        forbidden: Optional[set] = None,
    ) -> None:
        self.pool = pool
        self.projections = projections
        self.tables = tables
        #: projection names the engine's recovery loop has ruled out
        #: (a page of theirs is quarantined); the planner plans around
        #: them as long as an alternative projection exists
        self.forbidden: set = forbidden if forbidden is not None else set()

    def candidates(self, table: str, level: CompressionLevel
                   ) -> List[Projection]:
        try:
            loaded = self.projections[(table, level)]
        except KeyError:
            raise PlanError(
                f"no projection loaded for table {table!r} at level "
                f"{level.value!r}"
            ) from None
        usable = [p for p in loaded if p.name not in self.forbidden]
        if not usable:
            raise PlanError(
                f"every projection for table {table!r} at level "
                f"{level.value!r} is ruled out by corrupt pages"
            )
        return usable

    def projection(self, table: str, level: CompressionLevel) -> Projection:
        """The table's primary (first-loaded) projection."""
        return self.candidates(table, level)[0]

    def best_projection(self, table: str, level: CompressionLevel,
                        query: StarQuery) -> Projection:
        """Pick the projection whose sort order serves ``query`` best.

        C-Store's projection selection, reduced to the property that
        matters here: a predicate (native or join-rewritten) on the
        projection's *primary* sort column turns into a contiguous
        position range, enabling block skipping for every later column.
        Earlier sort positions score higher; ties keep the first-loaded
        (default) projection.
        """
        candidates = self.candidates(table, level)
        if len(candidates) == 1 or table != query.fact_table:
            return candidates[0]
        restricted = {p.column for p in query.fact_predicates()}
        for dim in query.dimensions_used():
            if query.dimension_predicates(dim):
                restricted.add(query.fk_of(dim))

        def score(projection: Projection) -> float:
            total = 0.0
            for column in restricted:
                position = projection.sorted_on(column)
                if position is not None:
                    total += 1.0 / (1 + position)
            return total

        return max(candidates, key=score)

    def catalog_column(self, table: str, column: str) -> Column:
        return self.tables[table].column(column)


class ColumnPlanner:
    """Plans and executes one StarQuery under one configuration."""

    def __init__(self, ctx: StoreContext, config: ExecutionConfig,
                 level: Optional[CompressionLevel] = None,
                 tracer: Optional[Tracer] = None,
                 visibility=None) -> None:
        self.ctx = ctx
        self.config = config
        self.level = level if level is not None else (
            CompressionLevel.MAX if config.compression
            else CompressionLevel.NONE)
        #: optional span tracer (tracing is passive: ledgers are
        #: byte-identical with or without one attached)
        self.tracer = tracer
        #: optional :class:`~repro.write.store.Visibility` — a snapshot
        #: read with pending deletes patches base-scan positions; None
        #: (every read-only run) leaves all plan paths untouched
        self.visibility = visibility

    def _deleted_positions(self, query: StarQuery,
                           fact_proj: Projection) -> Optional[np.ndarray]:
        """Deleted fact rows mapped into ``fact_proj``'s position space,
        or None when this run needs no patching."""
        if self.visibility is None or not self.visibility.needs_patching:
            return None
        from ..write.store import projection_deleted_positions

        return projection_deleted_positions(
            self.ctx.tables[query.fact_table],
            fact_proj.sort_order.keys,
            self.visibility.fact_deleted,
        )

    def _span(self, name: str):
        return span_context(self.tracer, name)

    @property
    def pool(self) -> BufferPool:
        return self.ctx.pool

    @property
    def stats(self) -> QueryStats:
        return self.pool.stats

    # ------------------------------------------------------------------ #
    def run(self, query: StarQuery) -> ResultSet:
        if self.config.late_materialization:
            return self._run_late(query)
        return self._run_early(query)

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _dimension_sides(self, query: StarQuery) -> Dict[str, DimensionSide]:
        sides: Dict[str, DimensionSide] = {}
        for dim in query.dimensions_used():
            table = self.ctx.tables[dim]
            projection = self.ctx.projection(dim, self.level)
            sides[dim] = DimensionSide(
                name=dim,
                projection=projection,
                key_column=query.key_of(dim),
                catalog={c.name: c for c in table.columns()},
                contiguous_from=projection.contiguous_from,
                key_monotonic=projection.key_monotonic,
            )
        return sides

    def _result(self, query: StarQuery, cells: Optional[List],
                reduction: Optional[Tuple[np.ndarray, List]],
                vocabularies: List[Optional[np.ndarray]]) -> ResultSet:
        """Assemble and order the output: one row of scalar ``cells``, or
        the groups of ``reduction`` (``vocabularies`` as returned by
        :meth:`_group_codes`) through the shared result tail."""
        with self._span("sort"):
            names = [g.column for g in query.group_by] + [
                a.alias for a in query.aggregates
            ]
            if reduction is None:
                return ResultSet(names, [tuple(cells)]).limited(query.limit)
            uniq, reduced = reduction
            groups = []
            for codes, vocabulary, ref in zip(uniq, vocabularies,
                                              query.group_by):
                dictionary = self.ctx.catalog_column(
                    ref.table, ref.column).dictionary
                if dictionary is not None:
                    self.stats.dict_lookups += len(codes)
                    if vocabulary is None:
                        vocabulary = dictionary.vocabulary
                groups.append(GroupColumn(codes, vocabulary))
            aggregates = [finalize_column(a.func, *acc)
                          for a, acc in zip(query.aggregates, reduced)]
            return finish(names, groups, aggregates, query.order_by,
                          query.limit)

    @staticmethod
    def _group_codes(raw_arrays: List[np.ndarray]
                     ) -> Tuple[List[np.ndarray],
                                List[Optional[np.ndarray]]]:
        """Group columns as int64 codes; byte-string columns (compression
        off) become factor codes plus their decoded vocabulary."""
        encoded = [encode_group(arr) for arr in raw_arrays]
        return [c for c, _ in encoded], [v for _, v in encoded]

    # ------------------------------------------------------------------ #
    # late materialization
    # ------------------------------------------------------------------ #
    def _run_late(self, query: StarQuery) -> ResultSet:
        fact_proj = self.ctx.best_projection(query.fact_table, self.level,
                                             query)
        dims = self._dimension_sides(query)
        fact_catalog = {
            c.name: c for c in self.ctx.tables[query.fact_table].columns()
        }
        join_cls = InvisibleJoin if self.config.invisible_join \
            else LateMaterializedJoin
        join = join_cls(self.pool, self.config, fact_proj, dims, query,
                        self.level, fact_catalog, tracer=self.tracer)
        survivors, dim_rows = join.run()
        deleted = self._deleted_positions(query, fact_proj)
        if deleted is not None and len(deleted):
            # MVCC patch: drop surviving positions whose base row is
            # deleted as of the pinned epoch, keeping the per-survivor
            # dimension row indices aligned.  One position op per
            # survivor checked (the membership probe).
            self.stats.position_ops += survivors.count
            arr = survivors.to_array()
            keep = ~np.isin(arr, deleted)
            if not keep.all():
                survivors = ArrayPositions(arr[keep])
                dim_rows = {d: rows[keep] for d, rows in dim_rows.items()}
        # kept for EXPLAIN: the join's run-time decisions
        self.last_join = join
        self.last_survivors = survivors.count

        out_of_order = not self.config.invisible_join

        def gather(table: str, column: str) -> np.ndarray:
            attr_values = read_column(
                dims[table].projection.column_file(column), self.pool,
                self.config)
            return gather_attribute(attr_values, dim_rows[table], self.stats,
                                    self.config, out_of_order=out_of_order)

        return self.aggregate_positions(
            query, survivors.count,
            lambda column: fetch_values(fact_proj.column_file(column),
                                        self.pool, survivors, self.config),
            gather)

    def aggregate_positions(
        self,
        query: StarQuery,
        count: int,
        fetch: Callable[[str], np.ndarray],
        gather: Callable[[str, str], np.ndarray],
    ) -> ResultSet:
        """The late-materialization aggregation tail: aggregate inputs
        and group keys materialize only at the ``count`` surviving fact
        positions, then reduce vectorized.

        ``fetch(column)`` returns a fact column's values at those
        positions; ``gather(table, column)`` a dimension group-by
        attribute aligned with them, from the join's extraction.
        """
        agg_funcs = [a.func for a in query.aggregates]
        cells = reduction = None
        vocabularies: List[Optional[np.ndarray]] = []
        with self._span("aggregate"):
            fact_arrays: Dict[str, np.ndarray] = {}
            for agg in query.aggregates:
                if not needs_expr_values(agg.func):
                    continue
                for ref in expr_columns(agg.expr):
                    if ref.table == query.fact_table and \
                            ref.column not in fact_arrays:
                        fact_arrays[ref.column] = fetch(ref.column)
            agg_arrays = [
                eval_fact_expr(a.expr, fact_arrays, self.stats, self.config)
                if needs_expr_values(a.func)
                else np.zeros(count, dtype=np.int64)
                for a in query.aggregates
            ]
            if not query.group_by:
                cells = scalar_aggregate(agg_arrays, self.stats,
                                         self.config, funcs=agg_funcs)
            else:
                group_arrays, vocabularies = self._group_codes([
                    fetch(g.column) if g.table == query.fact_table
                    else gather(g.table, g.column)
                    for g in query.group_by
                ])
                reduction = grouped_aggregate(group_arrays, agg_arrays,
                                              self.stats, self.config,
                                              funcs=agg_funcs)
        return self._result(query, cells, reduction, vocabularies)

    # ------------------------------------------------------------------ #
    # early materialization
    # ------------------------------------------------------------------ #
    def _dimension_rows_early(self, query: StarQuery, dim: str
                              ) -> DimensionRows:
        """Row-style dimension preparation: read, construct, filter."""
        proj = self.ctx.projection(dim, self.level)
        key_col = query.key_of(dim)
        preds = query.dimension_predicates(dim)
        attrs = query.group_by_of(dim)
        needed = [key_col] + [p.column for p in preds
                              if p.column not in attrs and p.column != key_col]
        needed += [a for a in attrs if a not in needed]
        arrays = {
            c: read_column(proj.column_file(c), self.pool, self.config)
            for c in needed
        }
        n = proj.num_rows
        self.stats.tuples_constructed += n
        self.stats.tuple_attrs_copied += n * len(needed)
        mask = np.ones(n, dtype=bool)
        for pred in preds:
            domain = stored_bounds(pred, self.ctx.catalog_column(
                dim, pred.column), self.level)
            alive = np.flatnonzero(mask)
            verdict = _apply_row_predicate(arrays[pred.column][alive], domain,
                                           self.stats)
            mask[alive[~verdict]] = False
        selector = np.flatnonzero(mask)
        keys = arrays[key_col][selector].astype(np.int64)
        order = np.argsort(keys)
        self.stats.hash_inserts += len(keys)
        return DimensionRows(
            dimension=dim,
            keys=keys[order],
            attrs={a: arrays[a][selector][order] for a in attrs},
        )

    def _run_early(self, query: StarQuery) -> ResultSet:
        fact_proj = self.ctx.projection(query.fact_table, self.level)
        needed = query.fact_columns_needed()
        with self._span("scan:fact-columns"):
            fact_arrays = {
                c: read_column(fact_proj.column_file(c), self.pool,
                               self.config)
                for c in needed
            }
        deleted = self._deleted_positions(query, fact_proj)
        live_rows = fact_proj.num_rows
        if deleted is not None and len(deleted):
            # MVCC patch: early materialization reads whole columns in
            # projection order, so deleted rows are masked before the
            # row pipeline sees them (one position op per stored row)
            live = np.ones(fact_proj.num_rows, dtype=bool)
            live[deleted] = False
            self.stats.position_ops += fact_proj.num_rows
            fact_arrays = {c: arr[live] for c, arr in fact_arrays.items()}
            live_rows = int(np.count_nonzero(live))
        return self.aggregate_rows(query, fact_arrays, live_rows, self.level)

    def aggregate_rows(self, query: StarQuery,
                       fact_arrays: Dict[str, np.ndarray], num_rows: int,
                       fact_level: CompressionLevel) -> ResultSet:
        """The early-materialization tail: construct tuples from whole
        fact columns, then filter, join and aggregate row-style.

        ``fact_arrays`` hold the needed fact columns (``num_rows`` rows)
        in the stored domain of ``fact_level`` — the planner's own level
        for a projection scan, ``NONE`` for the raw tuples of a row-MV
        blob scan (``CStore.execute_row_mv``)."""
        pred_domains = [
            (p.column, stored_bounds(
                p, self.ctx.catalog_column(query.fact_table, p.column),
                fact_level))
            for p in query.fact_predicates()
        ]
        with self._span("phase1:dimension-filter"):
            dims = [self._dimension_rows_early(query, d)
                    for d in query.dimensions_used()]
        with self._span("row-pipeline"):
            group_raw, agg_arrays, _group_dims = row_pipeline(
                query, fact_arrays, pred_domains, dims, self.stats,
                num_rows=num_rows)

        agg_funcs = [a.func for a in query.aggregates]
        cells = reduction = None
        vocabularies: List[Optional[np.ndarray]] = []
        with self._span("aggregate"):
            if not query.group_by:
                cells = [
                    finalize_agg(func, *reduce_scalar(func, values))
                    for func, values in zip(agg_funcs, agg_arrays)
                ]
            else:
                group_arrays, vocabularies = self._group_codes(group_raw)
                # consolidation (already paid per tuple in the pipeline)
                matrix = np.stack(group_arrays)
                if matrix.shape[1] == 0:
                    uniq = matrix
                    reduced = [(np.zeros(0, dtype=np.int64), None)
                               for _ in agg_arrays]
                else:
                    uniq, inverse = factorize_groups(matrix)
                    reduced = [
                        reduce_groups(func, values, inverse, uniq.shape[1])
                        for func, values in zip(agg_funcs, agg_arrays)
                    ]
                reduction = (uniq, reduced)
        return self._result(query, cells, reduction, vocabularies)


__all__ = ["ColumnPlanner", "StoreContext"]
