"""The C-Store facade: load projections once, execute queries per config.

Also implements the "CS Row-MV" mode of Figure 5: the row-oriented
materialized-view data is stored inside the column store as a table with
a single string column whose values are entire tuples (exactly the trick
the paper describes in Section 6.1), and queries over it reconstruct
tuples up front and run the row-style pipeline.  C-Store has no
partitioning, so Row-MV scans always read every year.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ChecksumError, CorruptPageError, PlanError, WriteError
from ..obs import Tracer
from ..plan.logical import StarQuery
from ..simio.stats import CostModel, PAPER_2008, QueryStats
from ..ssb.generator import SsbData
from ..ssb.queries import FLIGHT_OF
from ..ssb.schema import DIMENSION_SORT_KEYS, FACT_SORT_KEYS
from ..storage.colfile import ColumnFile, CompressionLevel
from ..storage.projection import Projection
from ..storage.rowpage import RowFormat
from ..storage.table import Table
from ..core.config import ExecutionConfig
from ..core.lifecycle import EngineRun, EngineShell
from ..rowstore.designs import mv_columns_for_flight
from .planner import ColumnPlanner, StoreContext

#: Outcome of one query execution (the run type both engines share).
ColumnStoreRun = EngineRun


class CStore(EngineShell):
    """A C-Store-style column engine over the simulated disk.

    Parameters
    ----------
    data:
        The generated SSB database.
    levels:
        Which compression levels to materialize projections at.  ``MAX``
        serves the compressed configurations, ``NONE`` the uncompressed
        ones; load only what you need.
    row_mv:
        Also store the per-flight materialized views as rows-in-a-string-
        column for the CS Row-MV experiment.
    """

    def __init__(
        self,
        data: SsbData,
        levels: Sequence[CompressionLevel] = (
            CompressionLevel.MAX, CompressionLevel.NONE),
        row_mv: bool = False,
        cost_model: CostModel = PAPER_2008,
        buffer_pool_bytes: Optional[int] = None,
        fault_injector=None,
    ) -> None:
        super().__init__(data, cost_model, buffer_pool_bytes, fault_injector)
        self._levels = tuple(levels)
        self._projections: Dict[Tuple[str, CompressionLevel],
                                List[Projection]] = {}
        self._tables: Dict[str, Table] = dict(data.tables)
        for level in levels:
            self.load_table(data.lineorder, FACT_SORT_KEYS, level)
            for name, dim in data.dimensions().items():
                self.load_table(dim, DIMENSION_SORT_KEYS[name], level)
        self._row_mv: Dict[int, Tuple[RowFormat, ColumnFile, List[str]]] = {}
        if row_mv:
            for flight in sorted({FLIGHT_OF[name] for name in FLIGHT_OF}):
                self.load_row_mv(flight)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load_table(self, table: Table, sort_keys: Sequence[str],
                   level: CompressionLevel) -> Projection:
        """Materialize a projection of ``table`` (idempotent per level
        and sort order).  The first projection loaded for a table is its
        default; later ones (see :meth:`add_projection`) become
        candidates for query-driven projection selection."""
        key = (table.name, level)
        existing = self._projections.get(key, [])
        for projection in existing:
            if projection.sort_order.keys == tuple(sort_keys):
                return projection
        name = (f"{table.name}.{level.value}."
                f"{'_'.join(sort_keys) or 'unsorted'}")
        projection = Projection.create(self.disk, table, sort_keys, level,
                                       name=name)
        self._projections.setdefault(key, []).append(projection)
        self._tables[table.name] = table
        return projection

    def add_projection(self, table_name: str, sort_keys: Sequence[str],
                       levels: Optional[Sequence[CompressionLevel]] = None
                       ) -> None:
        """Store an *additional* projection of an already-loaded table in
        a different sort order — the redundancy C-Store supports but the
        paper deliberately forgoes (Section 5.1).  The planner picks the
        projection whose primary sort key is restricted by the query."""
        table = self._tables[table_name]
        if levels is None:
            levels = sorted({lv for (t, lv) in self._projections
                             if t == table_name}, key=lambda lv: lv.value)
        for level in levels:
            self.load_table(table, sort_keys, level)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _context(self, forbidden: Optional[set] = None) -> StoreContext:
        return StoreContext(
            pool=self.pool,
            projections=self._projections,
            tables=self._tables,
            forbidden=forbidden,
        )

    def find_owner(self, file_name: str
                   ) -> Optional[Tuple[Projection, str]]:
        """Which (projection, column) a disk file belongs to, if any."""
        for candidates in self._projections.values():
            for projection in candidates:
                column = projection.column_for_file(file_name)
                if column is not None:
                    return projection, column
        return None

    def execute(
        self,
        query: StarQuery,
        config: ExecutionConfig = ExecutionConfig.baseline(),
        level: Optional[CompressionLevel] = None,
        cold_pool: bool = True,
        cancellation=None,
    ) -> ColumnStoreRun:
        """Run ``query`` under ``config`` on a fresh ledger.

        ``level`` overrides the compression level implied by the config
        (used by the Figure 8 denormalization cases, where "PJ, Int C"
        keeps dictionary codes but no further compression).
        ``cold_pool=False`` keeps the pool warm across runs (the
        paper's Section 6.1 measurement protocol).
        ``cancellation`` installs a cooperative
        :class:`~repro.serve.resilience.CancellationToken` for the run:
        every page access checks it, and an expired deadline or
        budget surfaces as :class:`~repro.errors.QueryCancelledError`.

        Degrades gracefully under persistent corruption: when a read
        hits a quarantined/corrupt page of a projection and another
        projection of the same table exists at the same level, the query
        restarts planned around the damaged projection (counted in
        ``stats.recoveries``).  When no redundancy remains the query
        fails with a structured :class:`CorruptPageError` — never a
        silently wrong result.

        When the engine holds pending writes the run becomes a snapshot
        read pinned at the current epoch (see ``docs/writes.md``):
        pending deletes patch base-scan positions in place, and visible
        WOS fact inserts add a ``wos-merge`` partial combined through
        :mod:`repro.plan.combine`.  Requires ``config.writes``; a
        read-only config against a dirty engine raises
        :class:`~repro.errors.WriteError` rather than answering wrong.
        """
        return self._execute_routed(
            query, writes=config.writes,
            move_threshold_rows=config.move_threshold_rows,
            config=config, level=level,
            cold_pool=cold_pool, cancellation=cancellation)

    def _run_base(self, query: StarQuery, visibility, *,
                  config: ExecutionConfig,
                  level: Optional[CompressionLevel], cold_pool: bool,
                  cancellation) -> ColumnStoreRun:
        forbidden: set = set()
        recoveries = 0
        saved_cancellation = self.disk.cancellation
        if cancellation is not None:
            self.disk.cancellation = cancellation
        try:
            while True:
                stats = QueryStats()
                self.disk.stats = stats
                # cold pool per query: order-independent, deterministic
                # ledgers
                if cold_pool:
                    self.pool.clear()
                else:
                    self.disk.reset_head()
                tracer = Tracer(stats, self.cost_model)
                planner = ColumnPlanner(self._context(forbidden), config,
                                        level, tracer=tracer,
                                        visibility=visibility)
                try:
                    result = planner.run(query)
                except ChecksumError as error:
                    forbidden, recoveries = self._plan_recovery(
                        error, forbidden, recoveries)
                    continue
                stats.recoveries += recoveries
                # the span tree is verified to sum exactly to the flat
                # ledger
                trace = tracer.finish(stats)
                return ColumnStoreRun(
                    result, stats, self.cost_model.cost(stats), trace=trace)
        finally:
            self.disk.cancellation = saved_cancellation

    def shard_children(self, shards: int) -> List:
        """Always ``[]``: no engine shards its reads.  Kept only because
        the end-to-end benchmark's ``cs_variants`` set-up calls it
        (``benchmarks/e2e/workloads.py``); the ``[benchmark]`` change of
        ROADMAP item 0(f) retires it."""
        return []

    def _spawn(self, data: SsbData, fault_injector=None) -> "CStore":
        sibling = CStore(data, levels=self._levels,
                         cost_model=self.cost_model,
                         buffer_pool_bytes=self._pool_bytes,
                         fault_injector=fault_injector)
        # the rest of the physical design, in load order: projections
        # added in other sort orders (tables outside ``data``, such as a
        # denormalized fact table, are derived data and do not carry
        # over) and the row-MV flights
        for (table, level), projections in self._projections.items():
            if table in sibling._tables:
                for projection in projections:
                    sibling.add_projection(
                        table, projection.sort_order.keys, [level])
        for flight in self._row_mv:
            sibling.load_row_mv(flight)
        return sibling

    def _adopt_shadow(self, shadow: "CStore") -> None:
        self._projections = shadow._projections
        self._tables = shadow._tables
        self._row_mv = shadow._row_mv

    def _plan_recovery(self, error: ChecksumError, forbidden: set,
                       recoveries: int) -> Tuple[set, int]:
        """Decide how to continue after a persistent corrupt page.

        Returns the updated (forbidden projections, recovery count) when
        an alternative projection can serve the damaged one's table, or
        raises :class:`CorruptPageError` when none can.
        """
        owner = self.find_owner(error.file)
        if owner is not None:
            victim, _column = owner
            alternatives = [
                p for p in self._projections.get(
                    (victim.table_name, victim.level), [])
                if p.name != victim.name and p.name not in forbidden
            ]
            if alternatives:
                return forbidden | {victim.name}, recoveries + 1
        raise CorruptPageError(
            error.file, error.page_no, error.disk_no,
            detail="no redundant projection covers this file",
        ) from error

    def projection(self, table: str, level: CompressionLevel) -> Projection:
        return self._context().projection(table, level)

    def explain(
        self,
        query: StarQuery,
        config: ExecutionConfig = ExecutionConfig.baseline(),
        level: Optional[CompressionLevel] = None,
    ) -> str:
        """EXPLAIN (analyze-style): execute ``query`` on a throwaway
        ledger and describe the plan with its run-time decisions —
        between-rewrites taken, hash fallbacks, surviving positions."""
        from .explain import explain as _explain

        saved = self.disk.stats
        self.disk.stats = QueryStats()
        forbidden: set = set()
        recoveries = 0
        try:
            while True:
                try:
                    return _explain(self._context(forbidden), query, config,
                                    level)
                except ChecksumError as error:
                    # same failover contract as execute(): plan around the
                    # damaged projection or raise CorruptPageError
                    forbidden, recoveries = self._plan_recovery(
                        error, forbidden, recoveries)
                    self.disk.stats.recoveries = recoveries
        finally:
            self.disk.stats = saved

    # ------------------------------------------------------------------ #
    # CS Row-MV (Figure 5)
    # ------------------------------------------------------------------ #
    def load_row_mv(self, flight: int) -> None:
        """Store flight ``flight``'s materialized view as rows inside the
        column store: one column of type string, each value a tuple."""
        if flight in self._row_mv:
            return
        columns = mv_columns_for_flight(flight)
        view = self.data.lineorder.project(columns,
                                           new_name=f"rowmv_f{flight}")
        fmt = RowFormat(view.schema, header_bytes=0)
        records = fmt.build_records(view)
        blob = np.frombuffer(records.tobytes(),
                             dtype=f"S{fmt.record_width}")
        colfile = ColumnFile.load(
            self.disk, f"rowmv_f{flight}.rows",
            _ByteColumn(f"rowmv_f{flight}", blob),
            CompressionLevel.NONE)
        self._row_mv[flight] = (fmt, colfile, columns)

    def execute_row_mv(self, query: StarQuery) -> ColumnStoreRun:
        """Figure 5's "CS (Row-MV)": scan the row-blob column, reconstruct
        tuples, then run the row-style pipeline (no partition pruning)."""
        if self._writes is not None and self._writes.has_pending():
            raise WriteError(
                "row-MV execution does not support pending writes; "
                "run the tuple mover first"
            )
        try:
            return self._execute_row_mv(query)
        except ChecksumError as error:
            # Row-MV blobs are stored once; a persistently corrupt page
            # has no redundant projection to recover from.
            raise CorruptPageError(
                error.file, error.page_no, error.disk_no,
                detail="row-MV data has no redundant copy",
            ) from error

    def _execute_row_mv(self, query: StarQuery) -> ColumnStoreRun:
        flight = FLIGHT_OF.get(query.name)
        if flight is None or flight not in self._row_mv:
            raise PlanError(
                f"row-MV for query {query.name!r} not loaded; call "
                f"load_row_mv({flight}) first"
            )
        fmt, colfile, _columns = self._row_mv[flight]
        stats = QueryStats()
        self.disk.stats = stats
        self.pool.clear()
        config = ExecutionConfig.row_store_like()
        tracer = Tracer(stats, self.cost_model)
        planner = ColumnPlanner(self._context(), config,
                                CompressionLevel.MAX, tracer=tracer)

        with tracer.span("scan:row-mv"):
            raw = colfile.read_all(self.pool)
            n = len(raw)
            stats.iterator_calls += n  # the scan's per-tuple getNext
            records = np.frombuffer(raw.tobytes(), dtype=fmt.dtype)
            needed = query.fact_columns_needed()
            fact_arrays = {c: np.ascontiguousarray(records[c])
                           for c in needed}
            stats.tuples_constructed += n
            stats.tuple_attrs_copied += n * len(needed)

        # the blob holds raw tuples: fact values are in the uncompressed
        # stored domain whatever level the dimensions are read at
        result = planner.aggregate_rows(query, fact_arrays, n)
        return ColumnStoreRun(result, stats, self.cost_model.cost(stats),
                              trace=tracer.finish(stats))


class _ByteCType:
    """Type descriptor for a raw byte-string blob column."""

    is_string = False

    def __init__(self, dtype: np.dtype) -> None:
        self.width = dtype.itemsize
        self.numpy_dtype = dtype


class _ByteColumn:
    """Adapter presenting a raw byte-string array (one whole tuple per
    value) as a loadable column — the paper's "single column of type
    string whose values are entire tuples"."""

    def __init__(self, name: str, data: np.ndarray) -> None:
        self.name = name
        self.data = data
        self.dictionary = None
        self.ctype = _ByteCType(data.dtype)


__all__ = ["CStore", "ColumnStoreRun"]
