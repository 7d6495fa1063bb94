"""Lowering StarQuery to physical plans, one routine per design.

The plan shapes follow Section 6.2.1 of the paper:

* **traditional / MV** — scan the (partition-pruned) fact heap with fact
  predicates pushed down, pipeline hash joins against filtered dimension
  hash tables in selectivity order, hash-aggregate, sort.
* **traditional (bitmap)** — turn every dimension predicate into a union
  of fact-FK bitmap rid sets and every (bitmapped) fact predicate into a
  bitmap range read; intersect rid sets; fetch qualifying fact tuples by
  rid; join out group-by attributes; aggregate.
* **vertical partitioning** — scan each needed fact column-table (pos,
  value); hash-join FK column scans against filtered dimensions; then
  hash-join the per-column result sets together on position; measure
  columns are picked up last with one more position join each.
* **index-only** — full (or range) index scans over each needed fact
  column joined on rid *before* any dimension filtering (System X cannot
  defer these joins — Section 6.2.2), then dimension attribute indexes
  (composite (attribute, primary key) keys) are range/full scanned,
  rid-joined, and hash-joined to the fact result.

All plans share the hash-aggregate + result-sort tail and the honest
spill accounting of :class:`~repro.rowstore.operators.SpillAccountant`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanError
from ..obs import Tracer, span_context
from ..plan.logical import ColumnRef, Predicate, StarQuery
from ..plan.predicates import Domain, check_aggregates, stored_domain
from ..result import ResultSet
from ..simio.buffer_pool import BufferPool
from ..simio.stats import QueryStats
from ..ssb.generator import SsbData
from ..ssb.queries import FLIGHT_OF
from ..storage.heapfile import HeapFile
from ..storage.table import Table
from .bitmap_index import intersect_rid_sets
from .designs import Artifacts, DesignKind
from .operators import (
    HashAggregator,
    HashTable,
    RowBatch,
    SpillAccountant,
    charge_result_sort,
    eval_expr_rows,
    hash_join,
    heap_fetch,
    index_full_scan,
    index_range_scan,
    qualified,
    seq_scan,
    super_tuple_scan,
)
from .partitioning import qualifying_years, year_of_datekey


class RowPlanner:
    """Executes StarQueries against one set of design artifacts."""

    def __init__(
        self,
        pool: BufferPool,
        artifacts: Artifacts,
        catalog: SsbData,
        spill: SpillAccountant,
        statistics=None,
        tracer: Optional[Tracer] = None,
        zone_maps: bool = False,
        visibility=None,
    ) -> None:
        self.pool = pool
        self.artifacts = artifacts
        self.catalog = catalog
        self.spill = spill
        #: consult heap synopsis sidecars to skip non-qualifying pages
        self.zone_maps = zone_maps
        if statistics is None:
            from .statistics import CatalogStatistics

            statistics = CatalogStatistics(catalog.tables)
        self.statistics = statistics
        #: optional span tracer (tracing is passive: ledgers are
        #: byte-identical with or without one attached)
        self.tracer = tracer
        #: optional MVCC snapshot (:class:`repro.write.Visibility`).  Only
        #: a fact deleted-mask needs plan-side work: FK integrity keeps
        #: dimension heaps and their hash tables patch-free, and pending
        #: inserts are merged by the engine's delta evaluator, never here.
        self.visibility = visibility
        self._fact_live: Optional[np.ndarray] = None
        if visibility is not None and visibility.needs_patching:
            self._fact_live = ~visibility.fact_deleted

    def _span(self, name: str):
        return span_context(self.tracer, name)

    @property
    def stats(self) -> QueryStats:
        return self.pool.stats

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #
    def run(self, query: StarQuery, design: DesignKind,
            prune_partitions: bool = True,
            vp_join: str = "hash",
            vp_super_tuples: bool = False) -> ResultSet:
        check_aggregates(query, self.catalog.tables)
        if design is DesignKind.TRADITIONAL:
            return self._run_traditional(query, prune_partitions)
        if design is DesignKind.MATERIALIZED_VIEWS:
            return self._run_materialized_view(query, prune_partitions)
        if design is DesignKind.TRADITIONAL_BITMAP:
            return self._run_bitmap(query)
        if design is DesignKind.VERTICAL_PARTITIONING:
            return self._run_vertical(query, vp_join, vp_super_tuples)
        if design is DesignKind.INDEX_ONLY:
            return self._run_index_only(query)
        raise PlanError(f"unknown design {design}")

    # ------------------------------------------------------------------ #
    # shared pieces
    # ------------------------------------------------------------------ #
    def _dim_hash_tables(self, query: StarQuery
                         ) -> List[Tuple[str, HashTable, float]]:
        """(dimension, filtered hash table, estimated selectivity), most
        selective first.  Join order comes from ANALYZE histograms —
        catalog statistics, not from peeking at the filtered results —
        exactly how a commercial optimizer decides (the estimates are
        also what EXPLAIN prints)."""
        out: List[Tuple[str, HashTable, float]] = []
        with self._span("dimension-filter"):
            for dim in query.dimensions_used():
                heap = self.artifacts.heaps[dim]
                key_col = query.key_of(dim)
                attrs = query.group_by_of(dim)
                stream = seq_scan(
                    heap, self.pool, dim,
                    out_columns=[key_col] + attrs,
                    predicates=query.dimension_predicates(dim),
                    zone_maps=self.zone_maps,
                )
                table = HashTable.from_stream(
                    stream, qualified(dim, key_col),
                    [qualified(dim, a) for a in attrs], self.stats)
                estimate = self.statistics.estimate_dimension(
                    dim, query.dimension_predicates(dim))
                out.append((dim, table, estimate))
        out.sort(key=lambda item: item[2])
        return out

    def _fact_out_columns(self, query: StarQuery) -> List[str]:
        """Fact columns the scan must emit (FKs, aggregate inputs,
        fact-side group keys) — predicates are applied inside the scan."""
        pred_cols = {p.column for p in query.fact_predicates()}
        return [c for c in query.fact_columns_needed()
                if c not in pred_cols or self._column_needed_beyond_pred(
                    query, c)]

    @staticmethod
    def _column_needed_beyond_pred(query: StarQuery, column: str) -> bool:
        from ..plan.logical import expr_columns

        for agg in query.aggregates:
            for ref in expr_columns(agg.expr):
                if ref.table == query.fact_table and ref.column == column:
                    return True
        for g in query.group_by:
            if g.table == query.fact_table and g.column == column:
                return True
        for fk in query.joins:
            if fk == column:
                return True
        return False

    def _join_and_aggregate(
        self,
        query: StarQuery,
        stream: Iterable[RowBatch],
        dim_tables: List[Tuple[str, HashTable, float]],
        probe_rows_estimate: int,
        vocabularies: Optional[List[Optional[np.ndarray]]] = None,
    ) -> ResultSet:
        """The common tail: pipeline dimension joins, aggregate, sort."""
        for dim, table, _sel in dim_tables:
            fk = query.fk_of(dim)
            prefixing = {
                qualified(dim, a): qualified(dim, a)
                for a in query.group_by_of(dim)
            }
            stream = hash_join(
                stream, qualified(query.fact_table, fk), table, prefixing,
                self.stats, spill=self.spill,
                probe_row_bytes=32, probe_rows_estimate=probe_rows_estimate,
            )
        return self._aggregate(query, stream, vocabularies)

    def _live_filter(self, stream: Iterable[RowBatch], key: str
                     ) -> Iterator[RowBatch]:
        """Visibility check on a position/rid-keyed stream: drop
        snapshot-deleted fact rows, one position op per checked key."""
        live = self._fact_live
        for batch in stream:
            keys = batch.column(key)
            self.stats.position_ops += len(keys)
            keep = live[keys]
            yield batch if keep.all() else batch.take(keep)

    def _aggregate(self, query: StarQuery, stream: Iterable[RowBatch],
                   vocabularies: Optional[List[Optional[np.ndarray]]] = None
                   ) -> ResultSet:
        from ..plan.aggregates import needs_expr_values

        aggregator = HashAggregator([g.column for g in query.group_by],
                                    [a.alias for a in query.aggregates],
                                    [a.func for a in query.aggregates])
        group_keys = [qualified(g.table, g.column) for g in query.group_by]
        # The scan and joins are lazy generators drained by this loop, so
        # their work is indivisible from the aggregation — one honest span
        # covers the whole pipeline rather than pretending to split it.
        with self._span("pipeline:scan-join-aggregate"):
            for batch in stream:
                n = len(batch)
                self.stats.attr_extractions += n * len(group_keys)
                group_arrays = [batch.column(k) for k in group_keys]
                agg_arrays = [
                    eval_expr_rows(a.expr, batch, query.fact_table,
                                   self.stats)
                    if needs_expr_values(a.func)
                    else np.zeros(n, dtype=np.int64)
                    for a in query.aggregates
                ]
                aggregator.consume(group_arrays, agg_arrays, self.stats)
        with self._span("sort"):
            result = aggregator.finish(query.order_by, query.limit,
                                       vocabularies)
            charge_result_sort(result, self.stats)
        return result

    # ------------------------------------------------------------------ #
    # traditional and materialized views
    # ------------------------------------------------------------------ #
    def _scan_partitions(
        self,
        query: StarQuery,
        partitions: Dict[int, HeapFile],
        out_columns: List[str],
        prune: bool,
    ) -> Iterator[RowBatch]:
        years = sorted(partitions)
        if prune:
            years = qualifying_years(self.catalog.date, query, years)
        live_by_year: Dict[int, np.ndarray] = {}
        if self._fact_live is not None:
            live_by_year = self.visibility.memo(("live_by_year",),
                                                self._live_by_year)
        for year in years:
            yield from seq_scan(
                partitions[year], self.pool, query.fact_table,
                out_columns=out_columns,
                predicates=query.fact_predicates(),
                zone_maps=self.zone_maps,
                live_mask=live_by_year.get(year),
            )

    def _live_by_year(self) -> Dict[int, np.ndarray]:
        """The live mask sliced per year partition, for the years that
        hold a deleted row.  partition_by_year keeps parent row order,
        and MV partitions share the fact's row order, so each slice lines
        up with its partition heap."""
        row_years = year_of_datekey(
            self.catalog.lineorder.column("orderdate").data)
        slices = {int(year): self._fact_live[row_years == year]
                  for year in np.unique(row_years)}
        return {year: live for year, live in slices.items()
                if not live.all()}

    def _run_traditional(self, query: StarQuery, prune: bool) -> ResultSet:
        dim_tables = self._dim_hash_tables(query)
        out_columns = self._fact_out_columns(query)
        stream = self._scan_partitions(
            query, self.artifacts.fact_partitions, out_columns, prune)
        estimate = self.catalog.lineorder.num_rows
        return self._join_and_aggregate(query, stream, dim_tables, estimate)

    def _run_materialized_view(self, query: StarQuery, prune: bool
                               ) -> ResultSet:
        flight = FLIGHT_OF.get(query.name)
        if flight is None or flight not in self.artifacts.mv_partitions:
            raise PlanError(
                f"no materialized view covers query {query.name!r}"
            )
        dim_tables = self._dim_hash_tables(query)
        out_columns = self._fact_out_columns(query)
        stream = self._scan_partitions(
            query, self.artifacts.mv_partitions[flight], out_columns, prune)
        estimate = self.catalog.lineorder.num_rows
        return self._join_and_aggregate(query, stream, dim_tables, estimate)

    # ------------------------------------------------------------------ #
    # traditional (bitmap)
    # ------------------------------------------------------------------ #
    def _bitmap_rids_for_fact_pred(self, pred: Predicate
                                   ) -> Optional[np.ndarray]:
        index = self.artifacts.bitmaps.get(pred.column)
        if index is None:
            return None
        domain = self._domain(self.catalog.lineorder, pred)
        if isinstance(domain, np.ndarray):
            return index.read_union(self.pool, domain)
        return index.read_range(self.pool, *domain)

    def _run_bitmap(self, query: StarQuery) -> ResultSet:
        dim_tables = self._dim_hash_tables(query)
        fact_heap = self.artifacts.heaps["lineorder"]
        rid_sets: List[np.ndarray] = []
        leftover_preds: List[Predicate] = []
        with self._span("fact-scan:bitmap"):
            # dimension predicates -> FK bitmap unions
            filtered_dims = {p.table for p in query.predicates
                             if p.table != query.fact_table}
            for dim, table, _sel in dim_tables:
                if dim not in filtered_dims:
                    continue
                fk = query.fk_of(dim)
                index = self.artifacts.bitmaps.get(fk)
                if index is None:
                    continue
                matching_keys = table.matching_keys()
                rid_sets.append(index.read_union(self.pool, matching_keys))
            # fact predicates -> bitmap range reads where indexed
            for pred in query.fact_predicates():
                rids = self._bitmap_rids_for_fact_pred(pred)
                if rids is None:
                    leftover_preds.append(pred)
                else:
                    rid_sets.append(rids)
            if rid_sets:
                rids = intersect_rid_sets(self.pool, rid_sets)
                if self._fact_live is not None:
                    # bitmaps cover every base row; drop deleted rids
                    # before paying any heap fetch for them
                    self.stats.position_ops += len(rids)
                    rids = rids[self._fact_live[rids]]
        if not rid_sets:
            # nothing bitmap-able: degrade to a plain scan of the heap
            stream = seq_scan(
                fact_heap, self.pool, query.fact_table,
                self._fact_out_columns(query), query.fact_predicates(),
                zone_maps=self.zone_maps, live_mask=self._fact_live)
        else:
            stream = heap_fetch(
                fact_heap, self.pool, rids, query.fact_table,
                self._fact_out_columns(query)
                + [p.column for p in leftover_preds])
            if leftover_preds:
                stream = self._post_filter(stream, query, leftover_preds,
                                           fact_heap)
        return self._join_and_aggregate(
            query, stream, dim_tables, self.catalog.lineorder.num_rows)

    def _post_filter(self, stream: Iterable[RowBatch], query: StarQuery,
                     preds: List[Predicate], heap: HeapFile
                     ) -> Iterator[RowBatch]:
        from .predicates import compile_predicate

        compiled = [
            (qualified(query.fact_table, p.column),
             compile_predicate(p, heap.fmt.dtype[p.column]))
            for p in preds
        ]
        for batch in stream:
            mask = np.ones(len(batch), dtype=bool)
            for name, pred in compiled:
                mask &= pred(batch.column(name), self.stats)
            yield batch.take(mask)

    # ------------------------------------------------------------------ #
    # vertical partitioning
    # ------------------------------------------------------------------ #
    def _vp_scan(self, column: str, table_alias: str,
                 predicates: Sequence[Predicate] = ()) -> Iterator[RowBatch]:
        heap = self.artifacts.vp_heaps[column]
        yield from seq_scan(
            heap, self.pool, table_alias,
            out_columns=["pos", column],
            predicates=[self._rebase_pred(p, table_alias) for p in predicates],
            zone_maps=self.zone_maps,
        )

    @staticmethod
    def _rebase_pred(pred: Predicate, table: str) -> Predicate:
        return dataclasses.replace(pred, ref=ColumnRef(table, pred.column))

    def _svp_scan(self, column: str, table_alias: str, pos_key: str,
                  predicates: Sequence[Predicate] = ()
                  ) -> Iterator[RowBatch]:
        heap = self.artifacts.vp_super_heaps[column]
        yield from super_tuple_scan(
            heap, self.pool, table_alias, column,
            predicates=[self._rebase_pred(p, table_alias)
                        for p in predicates],
            pos_name=pos_key,
            zone_maps=self.zone_maps,
        )

    def _run_vertical(self, query: StarQuery,
                      vp_join: str = "hash",
                      super_tuples: bool = False) -> ResultSet:
        """Position-join chain over two-column tables (Section 6.2.1).

        ``vp_join`` selects how the per-column result sets are combined:
        ``"hash"`` is what System X actually did (expensive, may spill);
        ``"merge"`` is the merge-join-without-sort the paper speculates
        System X *could* have used, since all column-tables share
        position order (Section 6.2.2).
        """
        if vp_join not in ("hash", "merge"):
            raise PlanError(f"vp_join must be 'hash' or 'merge', "
                            f"got {vp_join!r}")
        join_step = (self._position_join if vp_join == "hash"
                     else self._merge_position_join)
        dim_tables = self._dim_hash_tables(query)
        fact = query.fact_table
        pos_key = "_pos" if super_tuples else qualified(fact, "pos")
        if super_tuples:
            def column_scan(column, preds=()):
                return self._svp_scan(column, fact, pos_key, preds)
        else:
            def column_scan(column, preds=()):
                return self._vp_scan(column, fact, preds)
        estimate = self.catalog.lineorder.num_rows

        # stage 1: FK column scans filtered through dimension hash tables,
        # and fact-predicate column scans; each yields (pos, attrs) sets
        stages: List[Tuple[float, Iterator[RowBatch], Dict[str, str]]] = []
        for dim, table, sel in dim_tables:
            fk = query.fk_of(dim)
            scan = column_scan(fk)
            prefixing = {
                qualified(dim, a): qualified(dim, a)
                for a in query.group_by_of(dim)
            }
            joined = hash_join(
                scan, qualified(fact, fk), table, prefixing, self.stats,
                spill=self.spill, probe_row_bytes=16,
                probe_rows_estimate=estimate)
            stages.append((sel, joined, prefixing))
        for pred in query.fact_predicates():
            scan = column_scan(pred.column, [pred])
            stages.append((0.5, scan, {}))
        if not stages:
            # no predicates or joins: seed the position set from the
            # first needed column's table (a full scan); a column-free
            # plan (bare count(*)) counts positions off the key column
            needed = self._fact_out_columns(query)
            seed = needed[0] if needed else "orderkey"
            stages.append((1.0, column_scan(seed), {}))
        stages.sort(key=lambda s: s[0])

        # stage 2: successively position-join the result sets together
        # (draining the stage-1 column scans and dimension probes as the
        # joins materialize, so the span covers both)
        with self._span("fact-scan:vertical-partitions"):
            current = self._materialize_keyed(stages[0][1], pos_key,
                                              charge=vp_join == "hash")
            for _sel, stream, _prefix in stages[1:]:
                current = join_step(current, stream, pos_key, estimate)

            # stage 3: pick up remaining needed columns by position join
            have = set(current.payload_names()) | {pos_key}
            for column in self._fact_out_columns(query):
                name = qualified(fact, column)
                if name in have:
                    continue
                scan = column_scan(column)
                current = join_step(current, scan, pos_key, estimate)
                have.add(name)

        stream = current.as_batches(pos_key)
        if self._fact_live is not None:
            stream = self._live_filter(stream, pos_key)
        return self._aggregate(query, stream)

    def _materialize_keyed(self, stream: Iterable[RowBatch], key: str,
                           charge: bool = True) -> HashTable:
        # gathered on arrival: a selected batch pins its whole scan run
        batches = [RowBatch(b.columns, len(b)) for b in stream]
        columns = sorted(
            {c for b in batches for c in b.names if c != key})
        keys = (np.concatenate([b.column(key) for b in batches])
                if batches else np.zeros(0, np.int64))
        payload = {
            c: (np.concatenate([b.column(c) for b in batches])
                if batches else np.zeros(0, np.int64))
            for c in columns
        }
        table = HashTable(keys, payload, self.stats, charge_inserts=charge)
        if charge and table.size_bytes > self.spill.memory_budget_bytes:
            self.spill.spill_round_trip(table.size_bytes)
        return table

    def _merge_position_join(self, current: HashTable,
                             stream: Iterable[RowBatch], pos_key: str,
                             estimate: int) -> HashTable:
        """Merge join on position: both sides arrive in position order
        (heap order is position order; materialized sides are kept
        sorted), so one interleaved pass suffices — no hash build, no
        spill.  Charges one comparison per input element on each side."""
        incoming = self._materialize_keyed(stream, pos_key, charge=False)
        left_keys = current.matching_keys()
        right_keys = incoming.matching_keys()
        self.stats.position_ops += len(left_keys) + len(right_keys)
        common, left_idx, right_idx = np.intersect1d(
            left_keys, right_keys, assume_unique=True, return_indices=True)
        payload: Dict[str, np.ndarray] = {}
        for name in current.payload_names():
            payload[name] = current.payload_at(name, left_idx)
        for name in incoming.payload_names():
            payload[name] = incoming.payload_at(name, right_idx)
        self.stats.tuple_attrs_copied += len(common) * max(len(payload), 1)
        return HashTable(common, payload, self.stats, charge_inserts=False)

    def _position_join(self, current: HashTable, stream: Iterable[RowBatch],
                       pos_key: str, estimate: int) -> HashTable:
        prefixing = {c: c for c in current.payload_names()}
        joined = hash_join(
            stream, pos_key, current, prefixing, self.stats,
            spill=self.spill, probe_row_bytes=16,
            probe_rows_estimate=estimate)
        return self._materialize_keyed(joined, pos_key)

    # ------------------------------------------------------------------ #
    # index-only
    # ------------------------------------------------------------------ #
    def _fact_index_stream(self, query: StarQuery, column: str
                           ) -> Iterator[RowBatch]:
        tree = self.artifacts.btrees[(query.fact_table, column)]
        preds = [p for p in query.fact_predicates() if p.column == column]
        name = qualified(query.fact_table, column)
        if preds:
            lo, hi = self._pred_bounds(self.catalog.lineorder, preds[0])
            yield from index_range_scan(tree, self.pool, lo, hi, name, "_rid")
        else:
            yield from index_full_scan(tree, self.pool, name, "_rid")

    @staticmethod
    def _domain(table: Table, pred: Predicate) -> Domain:
        """``pred`` over the catalog column's codes, the domain the
        bitmap and B-tree indexes are keyed on."""
        column = table.column(pred.column)
        return stored_domain(pred, column.data.dtype, column.dictionary)

    def _pred_bounds(self, table: Table, pred: Predicate) -> Tuple[int, int]:
        domain = self._domain(table, pred)
        if isinstance(domain, np.ndarray):
            raise PlanError(f"IN predicates need per-value scans: {pred}")
        return domain

    def _run_index_only(self, query: StarQuery) -> ResultSet:
        fact = query.fact_table
        estimate = self.catalog.lineorder.num_rows

        # 1. join the needed fact columns on rid, in schema order —
        #    System X cannot defer these joins past the dimension joins
        # a column-free plan (bare count(*)) still needs one index
        # stream to enumerate rids
        fact_cols = list(query.fact_columns_needed()) or ["orderkey"]
        with self._span("fact-scan:index-rid-joins"):
            current = self._materialize_keyed(
                self._fact_index_stream(query, fact_cols[0]), "_rid")
            for column in fact_cols[1:]:
                stream = self._fact_index_stream(query, column)
                current = self._position_join(current, stream, "_rid",
                                              estimate)

        # 2. per-dimension hash tables from composite-key index scans
        dim_tables: List[Tuple[str, HashTable, float]] = []
        with self._span("dimension-filter"):
            for dim in query.dimensions_used():
                table = self._dim_table_from_indexes(query, dim)
                selectivity = table.num_entries / max(
                    self.catalog.table(dim).num_rows, 1)
                dim_tables.append((dim, table, selectivity))
        dim_tables.sort(key=lambda item: item[2])

        # 3. probe the joined fact columns against each dimension
        stream = current.as_batches("_rid")
        if self._fact_live is not None:
            stream = self._live_filter(stream, "_rid")
        # real indexes store the strings; ours store dictionary codes, so
        # the output pays a dictionary lookup per string cell instead
        vocabularies = [
            None if d is None else d.vocabulary
            for d in (self.catalog.table(g.table).column(g.column).dictionary
                      for g in query.group_by)]
        result = self._join_and_aggregate(query, stream, dim_tables, estimate,
                                          vocabularies)
        self.stats.dict_lookups += len(result) * sum(
            v is not None for v in vocabularies)
        return result

    def _dim_table_from_indexes(self, query: StarQuery, dim: str
                                ) -> HashTable:
        """Build key -> group attrs for one dimension purely from indexes."""
        catalog_dim = self.catalog.table(dim)
        key_col = query.key_of(dim)
        preds = query.dimension_predicates(dim)
        attrs = query.group_by_of(dim)

        rid_key_batches: List[Tuple[np.ndarray, np.ndarray]] = []
        if preds:
            per_pred_sets: List[Tuple[np.ndarray, np.ndarray]] = []
            for pred in preds:
                parts_rids: List[np.ndarray] = []
                parts_keys: List[np.ndarray] = []
                for lo, hi in self._pred_ranges(catalog_dim, pred):
                    tree = self.artifacts.btrees[(dim, pred.column)]
                    for batch in index_range_scan(
                            tree, self.pool, lo, hi, "_v", "_rid", "_key"):
                        parts_rids.append(batch.column("_rid"))
                        parts_keys.append(batch.column("_key"))
                rids = (np.concatenate(parts_rids) if parts_rids
                        else np.zeros(0, np.int64))
                keys = (np.concatenate(parts_keys) if parts_keys
                        else np.zeros(0, np.int64))
                per_pred_sets.append((rids, keys))
            # merge rid-lists in memory across predicates on this table
            rids, keys = per_pred_sets[0]
            order = np.argsort(rids)
            rids, keys = rids[order], keys[order]
            for other_rids, other_keys in per_pred_sets[1:]:
                self.stats.position_ops += len(rids) + len(other_rids)
                common, left_idx, _right = np.intersect1d(
                    rids, other_rids, assume_unique=True,
                    return_indices=True)
                rids, keys = common, keys[left_idx]
        else:
            # no predicate: a full scan of the primary-key index
            tree = self.artifacts.btrees[(dim, key_col)]
            parts_rids, parts_keys = [], []
            for batch in index_full_scan(tree, self.pool, "_key", "_rid"):
                parts_rids.append(batch.column("_rid"))
                parts_keys.append(batch.column("_key"))
            rids = (np.concatenate(parts_rids) if parts_rids
                    else np.zeros(0, np.int64))
            keys = (np.concatenate(parts_keys) if parts_keys
                    else np.zeros(0, np.int64))
            order = np.argsort(rids)
            rids, keys = rids[order], keys[order]

        base = HashTable(rids, {"_key": keys}, self.stats)
        if not attrs:
            all_rows = np.arange(base.num_entries)
            return HashTable(base.payload_at("_key", all_rows), {},
                             self.stats)
        # each group attribute arrives via its own full index scan,
        # rid-joined against the filtered rid set; sorting every join
        # output by dimension key aligns the payload columns
        payload: Dict[str, np.ndarray] = {}
        sorted_keys = np.zeros(0, dtype=np.int64)
        for attr in attrs:
            tree = self.artifacts.btrees[(dim, attr)]
            stream = index_full_scan(tree, self.pool,
                                     qualified(dim, attr), "_rid")
            joined = hash_join(stream, "_rid", base,
                               {"_key": "_key"}, self.stats)
            collected_keys: List[np.ndarray] = []
            collected_vals: List[np.ndarray] = []
            for batch in joined:
                collected_keys.append(batch.column("_key"))
                collected_vals.append(batch.column(qualified(dim, attr)))
            attr_keys = (np.concatenate(collected_keys) if collected_keys
                         else np.zeros(0, np.int64))
            vals = (np.concatenate(collected_vals) if collected_vals
                    else np.zeros(0, np.int64))
            order = np.argsort(attr_keys)
            payload[qualified(dim, attr)] = vals[order]
            sorted_keys = attr_keys[order]
        return HashTable(sorted_keys, payload, self.stats)

    def _pred_ranges(self, table: Table, pred: Predicate
                     ) -> List[Tuple[int, int]]:
        domain = self._domain(table, pred)
        if isinstance(domain, np.ndarray):
            return [(code, code) for code in domain.tolist()]
        return [domain]


__all__ = ["RowPlanner"]
