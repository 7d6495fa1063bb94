"""Engine adapters: one uniform surface the service drives both engines
through.

Each adapter knows how to (a) execute a query for a session, (b) record
the surviving fact positions of a run so the cache can keep them, (c)
compute a dimension's surviving key set for the subsumption fallback,
and (d) *re-filter* a cached position set under a new (subsumed) query —
re-applying only the predicates that differ from the cached entry's and
re-running the cheap aggregation tail, instead of rescanning the fact
table.

All work these methods do is charged to whatever ledger the engine's
simulated disk currently points at; the service aims it at the
requesting query's ledger before calling in, so re-filters and key-set
probes are priced as honestly as full scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..colstore.engine import CStore
from ..colstore.operators.fetch import fetch_values
from ..colstore.operators.scan import stored_bounds
from ..colstore.planner import ColumnPlanner
from ..colstore.positions import (
    ArrayPositions,
    BitmapPositions,
    RangePositions,
)
from ..errors import PlanError
from ..plan.logical import StarQuery
from ..result import ResultSet
from ..rowstore.designs import DesignBuilder, DesignKind
from ..rowstore.engine import SystemX, final_corruption
from ..rowstore.operators import hash_join, heap_fetch, qualified, seq_scan
from ..rowstore.planner import RowPlanner
from ..simio.stats import QueryStats
from ..storage.colfile import CompressionLevel
from .semcache import PositionEntry, normalize_query
from .session import Session


# ---------------------------------------------------------------------- #
# cached payloads
# ---------------------------------------------------------------------- #
@dataclass
class CsPositions:
    """Column-store payload: surviving positions of one fact projection."""

    projection: str
    level: CompressionLevel
    positions: object  # RangePositions | BitmapPositions | ArrayPositions

    @property
    def nbytes(self) -> int:
        pos = self.positions
        if isinstance(pos, RangePositions):
            return 32
        if isinstance(pos, BitmapPositions):
            return 32 + int(pos.bits.nbytes)
        if isinstance(pos, ArrayPositions):
            return 32 + int(pos.positions.nbytes)
        return 32 + 8 * pos.count


@dataclass
class RsRids:
    """Row-store payload: surviving rids of the unpartitioned fact heap."""

    rids: np.ndarray

    @property
    def nbytes(self) -> int:
        return 32 + int(self.rids.nbytes)


def _domain_mask(values: np.ndarray, domain, stats: QueryStats
                 ) -> np.ndarray:
    """Apply one stored-domain predicate to a fetched value vector."""
    if isinstance(domain, list):
        stats.hash_probes += len(values)
        return np.isin(values, domain)
    low, high = domain
    stats.range_checks += len(values)
    return (values >= low) & (values <= high)


# ---------------------------------------------------------------------- #
# column store
# ---------------------------------------------------------------------- #
class ColumnStoreAdapter:
    """Drives a :class:`CStore` for the service."""

    kind = "cs"

    def __init__(self, engine: CStore) -> None:
        self.engine = engine

    def level(self, session: Session) -> CompressionLevel:
        if session.level is not None:
            return session.level
        return (CompressionLevel.MAX if session.config.compression
                else CompressionLevel.NONE)

    def scope(self, session: Session) -> Tuple:
        # zone maps and sharding never change results, but scoping on
        # them keeps cached ledgers/traces comparable within one
        # setting (and isolates each shard set's cache)
        return ("cs", session.config.label, self.level(session).value,
                "zm" if session.config.zone_maps else "",
                f"sh{session.config.shards}")

    def shard_count(self, session: Session) -> int:
        return session.config.shards

    def recordable(self, session: Session) -> bool:
        # early-materialization plans have no surviving-position set;
        # sharded runs have none either (positions would be shard-local
        # and the gather discards them) — both still get the result
        # cache
        return (session.config.late_materialization
                and session.config.shards == 1)

    def execute(self, query: StarQuery, session: Session,
                cancellation=None):
        return self.engine.execute(query, session.config, session.level,
                                   cancellation=cancellation)

    def execute_recording(self, query: StarQuery, session: Session,
                          cancellation=None):
        run = self.execute(query, session, cancellation=cancellation)
        payload = None
        if run.survivors is not None and run.projection_name is not None:
            payload = CsPositions(run.projection_name, self.level(session),
                                  run.survivors)
        return run, payload, None  # key sets are computed on admission

    # -------------------------------------------------------------- #
    def _planner(self, session: Session) -> ColumnPlanner:
        return ColumnPlanner(self.engine._context(), session.config,
                             session.level)

    def _dim_rows(self, planner: ColumnPlanner, query: StarQuery,
                  dim: str, dim_cache: Dict):
        rows = dim_cache.get(dim)
        if rows is None:
            rows = planner._dimension_rows_early(query, dim)
            dim_cache[dim] = rows
        return rows

    def dim_key_set(self, query: StarQuery, session: Session, dim: str,
                    dim_cache: Dict) -> np.ndarray:
        """The requested query's surviving keys for ``dim``, sorted."""
        rows = dim_cache.get(dim)
        if rows is None:  # a planner is only worth building on a miss
            rows = self._dim_rows(self._planner(session), query, dim,
                                  dim_cache)
        return rows.keys

    def key_sets(self, query: StarQuery, session: Session,
                 dim_cache: Dict) -> Dict[str, np.ndarray]:
        """Surviving key sets of every predicated dimension (recorded
        alongside a position entry for the subsumption fallback)."""
        return {
            dim: np.array(self.dim_key_set(query, session, dim, dim_cache))
            for dim in query.dimensions_used()
            if query.dimension_predicates(dim)
        }

    # -------------------------------------------------------------- #
    def refilter(self, query: StarQuery, session: Session,
                 entry: PositionEntry, dim_cache: Dict) -> ResultSet:
        """Answer ``query`` from a subsuming entry's cached positions.

        Only predicates that differ from the cached entry's are
        re-applied (columns fetched at the still-alive positions only);
        the aggregation tail is the planner's own late-materialization
        tail, so rows come out identical to a cold run."""
        engine = self.engine
        payload: CsPositions = entry.payload
        level = self.level(session)
        ctx = engine._context()
        candidates = ctx.candidates(query.fact_table, level)
        proj = next((p for p in candidates if p.name == payload.projection),
                    None)
        if proj is None:
            raise PlanError(
                f"cached projection {payload.projection!r} is no longer "
                f"usable")
        planner = ColumnPlanner(ctx, session.config, session.level)
        stats = planner.stats
        config = session.config
        fact = query.fact_table

        pos_arr = payload.positions.to_array()
        stats.position_ops += len(pos_arr)
        stats.cache_refiltered_positions += len(pos_arr)
        mask = np.ones(len(pos_arr), dtype=bool)

        requested = normalize_query(query).by_column()
        cached = entry.signature.by_column()

        # fact predicates the cached entry does not already guarantee
        preds_by_column: Dict[str, List] = {}
        for pred in query.fact_predicates():
            preds_by_column.setdefault(pred.column, []).append(pred)
        for column, preds in preds_by_column.items():
            if requested[(fact, column)] == cached.get((fact, column)):
                continue
            alive = np.flatnonzero(mask)
            if alive.size == 0:
                break
            values = fetch_values(proj.column_file(column), engine.pool,
                                  ArrayPositions(pos_arr[alive]), config)
            keep = np.ones(len(values), dtype=bool)
            for pred in preds:
                domain = stored_bounds(
                    pred, ctx.catalog_column(fact, column), planner.level)
                keep &= _domain_mask(values, domain, stats)
            mask[alive[~keep]] = False

        # dimension memberships that differ from the cached entry's
        for dim in query.dimensions_used():
            dim_requested = {c: k for (t, c), k in requested.items()
                             if t == dim}
            dim_cached = {c: k for (t, c), k in cached.items() if t == dim}
            if dim_requested == dim_cached:
                continue
            rows = self._dim_rows(planner, query, dim, dim_cache)
            alive = np.flatnonzero(mask)
            if alive.size == 0:
                break
            fk = fetch_values(proj.column_file(query.fk_of(dim)),
                              engine.pool, ArrayPositions(pos_arr[alive]),
                              config).astype(np.int64)
            stats.hash_probes += len(fk)
            found, _rows = rows.index.lookup(fk)
            mask[alive[~found]] = False

        survivors = ArrayPositions(pos_arr[mask])

        fk_arrays: Dict[str, np.ndarray] = {}

        def fetch(column: str) -> np.ndarray:
            return fetch_values(proj.column_file(column), engine.pool,
                                survivors, config)

        def gather(table: str, column: str) -> np.ndarray:
            rows = self._dim_rows(planner, query, table, dim_cache)
            fk = fk_arrays.get(table)
            if fk is None:
                fk = fetch(query.fk_of(table)).astype(np.int64)
                fk_arrays[table] = fk
            # every surviving FK is in the dimension's key set by
            # construction, so every lookup finds its row
            _found, idx = rows.index.lookup(fk)
            stats.values_scanned_vector += len(fk)
            return rows.attrs[column][idx]

        return planner.aggregate_positions(query, survivors.count, fetch,
                                           gather)


# ---------------------------------------------------------------------- #
# row store
# ---------------------------------------------------------------------- #
class RowStoreAdapter:
    """Drives a :class:`SystemX` for the service."""

    kind = "rs"

    def __init__(self, engine: SystemX) -> None:
        self.engine = engine

    def scope(self, session: Session) -> Tuple:
        return ("rs", session.design.value,
                "zm" if self.engine.zone_maps else "",
                f"sh{self.engine.shards}")

    def shard_count(self, session: Session) -> int:
        return self.engine.shards

    def recordable(self, session: Session) -> bool:
        # positions are recorded as rids of the whole-fact heap, which
        # only the traditional plan shape maps onto cleanly — and only
        # unsharded (the recording scan would bypass the shard stacks);
        # other sessions still get the result cache
        return (session.design is DesignKind.TRADITIONAL
                and self.engine.shards == 1)

    def execute(self, query: StarQuery, session: Session,
                cancellation=None):
        return self.engine.execute(query, session.design,
                                   cancellation=cancellation)

    # -------------------------------------------------------------- #
    def _ensure_unpartitioned_heap(self) -> None:
        engine = self.engine
        if "lineorder" in engine.artifacts.heaps:
            return
        # one-time load; its write I/O belongs to no query's ledger
        saved = engine.disk.stats
        engine.disk.stats = QueryStats()
        try:
            DesignBuilder(engine.disk, engine.data) \
                .build_fact_unpartitioned(engine.artifacts)
        finally:
            engine.disk.stats = saved

    def execute_recording(self, query: StarQuery, session: Session,
                          cancellation=None):
        """A traditional-plan run that also records surviving rids.

        Recording scans the unpartitioned fact heap (rids must address
        one global heap), so its ledger reads like a traditional run
        with partition pruning off; results are identical."""
        engine = self.engine
        self._ensure_unpartitioned_heap()
        heap = engine.artifacts.heaps["lineorder"]
        rid_parts: List[np.ndarray] = []
        dim_tables: List = []

        def tee(stream):
            for batch in stream:
                rid_parts.append(np.asarray(batch.column("_rid")))
                yield batch

        def plan(planner: RowPlanner) -> ResultSet:
            dim_tables.extend(planner._dim_hash_tables(query))
            stream = seq_scan(
                heap, engine.pool, query.fact_table,
                out_columns=planner._fact_out_columns(query),
                predicates=query.fact_predicates(),
                rid_column="_rid",
                zone_maps=engine.zone_maps,
            )
            for dim, table, _sel in dim_tables:
                fk = query.fk_of(dim)
                prefixing = {qualified(dim, a): qualified(dim, a)
                             for a in query.group_by_of(dim)}
                stream = hash_join(
                    stream, qualified(query.fact_table, fk), table,
                    prefixing, planner.stats, spill=planner.spill,
                    probe_row_bytes=32,
                    probe_rows_estimate=engine.data.lineorder.num_rows,
                )
            return planner._aggregate(query, tee(stream))

        run = engine.run_plan(plan, cancellation=cancellation)
        rids = (np.concatenate(rid_parts).astype(np.int64)
                if rid_parts else np.zeros(0, dtype=np.int64))
        key_sets = {
            dim: np.asarray(table.matching_keys(), dtype=np.int64)
            for dim, table, _sel in dim_tables
            if query.dimension_predicates(dim)
        }
        return run, RsRids(rids), key_sets

    def dim_key_set(self, query: StarQuery, session: Session, dim: str,
                    dim_cache: Dict) -> np.ndarray:
        arr = dim_cache.get(dim)
        if arr is not None:
            return arr
        engine = self.engine
        heap = engine.artifacts.heaps[dim]
        key_col = query.key_of(dim)
        parts = [
            np.asarray(batch.column(qualified(dim, key_col)))
            for batch in seq_scan(heap, engine.pool, dim, [key_col],
                                  query.dimension_predicates(dim),
                                  zone_maps=engine.zone_maps)
        ]
        arr = (np.concatenate(parts).astype(np.int64)
               if parts else np.zeros(0, dtype=np.int64))
        arr.sort()
        dim_cache[dim] = arr
        return arr

    def key_sets(self, query: StarQuery, session: Session,
                 dim_cache: Dict) -> Dict[str, np.ndarray]:
        return {
            dim: np.array(self.dim_key_set(query, session, dim, dim_cache))
            for dim in query.dimensions_used()
            if query.dimension_predicates(dim)
        }

    def refilter(self, query: StarQuery, session: Session,
                 entry: PositionEntry, dim_cache: Dict) -> ResultSet:
        """Answer ``query`` by rid-fetching a subsuming entry's rows.

        Fact predicates the entry does not guarantee are post-filtered;
        the requested query's own dimension hash joins then drop any
        cached row outside its (narrower) dimension sets."""
        engine = self.engine
        payload: RsRids = entry.payload
        heap = engine.artifacts.heaps["lineorder"]
        planner = engine.planner()
        stats = planner.stats
        fact = query.fact_table
        rids = payload.rids
        stats.position_ops += len(rids)
        stats.cache_refiltered_positions += len(rids)

        requested = normalize_query(query).by_column()
        cached = entry.signature.by_column()
        leftover = [
            p for p in query.fact_predicates()
            if requested[(fact, p.column)] != cached.get((fact, p.column))
        ]
        fetch_cols = list(planner._fact_out_columns(query))
        for pred in leftover:
            if pred.column not in fetch_cols:
                fetch_cols.append(pred.column)
        with final_corruption():
            dim_tables = planner._dim_hash_tables(query)
            stream = heap_fetch(heap, engine.pool, rids, fact, fetch_cols)
            if leftover:
                stream = planner._post_filter(stream, query, leftover, heap)
            return planner._join_and_aggregate(query, stream, dim_tables,
                                               max(len(rids), 1))


__all__ = ["ColumnStoreAdapter", "RowStoreAdapter", "CsPositions",
           "RsRids"]
