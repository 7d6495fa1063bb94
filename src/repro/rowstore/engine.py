"""The System X facade: build designs once, execute queries against them.

:class:`SystemX` owns a simulated disk, a buffer pool, and the artifacts
of whichever physical designs were requested.  Resource sizes scale with
the data's scale factor so that the paper's 500 MB buffer pool and 1.5 GB
sort/join memory (configured for SF 10) keep their *relative* size: a run
at SF 0.05 gets 0.5 % of each, preserving spill and caching behaviour.

``execute`` isolates each query on a fresh ledger and converts the
measured counts to simulated seconds with the shared
:class:`~repro.simio.stats.CostModel`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ChecksumError, CorruptPageError, PlanError
from ..obs import Tracer
from ..plan.logical import StarQuery
from ..result import ResultSet
from ..simio.stats import CostModel, PAPER_2008, QueryStats
from ..ssb.generator import SsbData
from ..core.lifecycle import (
    PAPER_BUFFER_POOL_BYTES,
    EngineRun,
    EngineShell,
    budget_share,
    scaled_budget,
)
from .designs import Artifacts, DesignBuilder, DesignKind
from .operators import SpillAccountant
from .planner import RowPlanner
from .statistics import CatalogStatistics

#: Paper configuration at SF 10 (Section 6.2), scaled by sf/10 at runtime.
PAPER_JOIN_MEMORY_BYTES = 3 * 512 * 1024 * 1024  # "1.5 GB maximum memory"

#: Outcome of one query execution (the run type both engines share).
RowStoreRun = EngineRun


@contextmanager
def final_corruption() -> Iterator[None]:
    """The row store keeps one copy of every artifact — there is no
    redundant projection to re-plan against, so a persistent corrupt
    page is final (but typed, never a wrong result)."""
    try:
        yield
    except ChecksumError as error:
        raise CorruptPageError(
            error.file, error.page_no, error.disk_no,
            detail="row-store artifacts have no redundant copy",
        ) from error


class SystemX(EngineShell):
    """A commercial-style row store over the simulated disk.

    Parameters
    ----------
    data:
        The generated SSB database.
    designs:
        Which physical designs to materialize (each costs load time and
        simulated disk space); defaults to all five.
    cost_model:
        Converts measured work into simulated seconds.
    buffer_pool_bytes / join_memory_bytes:
        Override the sf-scaled defaults (mostly for ablation benches).
    zone_maps:
        Consult per-page min/max synopses before heap scans, skipping
        pages that cannot satisfy the pushed-down predicates.  Off by
        default (the paper's System X reads every page).
    shards:
        Scatter-gather sharding: split the fact table into this many
        self-contained shards, each a complete child ``SystemX`` on its
        own disk array (see ``docs/sharding.md``).  1 (default) keeps
        the unchanged single-stack path.
    writes:
        Opt in to snapshot reads over pending writes.  System X has no
        per-query config object, so this engine-level flag plays the
        role :attr:`~repro.core.config.ExecutionConfig.writes` plays for
        the column store: with it off (default), a query against an
        engine holding pending writes raises
        :class:`~repro.errors.WriteError` rather than answering wrong.
    """

    def __init__(
        self,
        data: SsbData,
        designs: Optional[Sequence[DesignKind]] = None,
        cost_model: CostModel = PAPER_2008,
        buffer_pool_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        zone_maps: bool = False,
        shards: int = 1,
        writes: bool = False,
        move_threshold_rows: Optional[int] = None,
        fault_injector=None,
    ) -> None:
        if shards < 1:
            raise PlanError(f"shards must be >= 1, got {shards}")
        if move_threshold_rows is not None and move_threshold_rows < 1:
            raise PlanError(
                f"move_threshold_rows must be >= 1, got {move_threshold_rows}"
            )
        super().__init__(data, cost_model, buffer_pool_bytes, fault_injector)
        self.zone_maps = zone_maps
        self.shards = shards
        self.writes = writes
        #: automatic tuple-mover policy: drain the WOS before a query
        #: when net pending rows exceed this (None = manual moves only).
        #: Engine-level, like ``writes`` — System X has no per-query
        #: config object.
        self.move_threshold_rows = move_threshold_rows
        if join_memory_bytes is None:
            join_memory_bytes = scaled_budget(PAPER_JOIN_MEMORY_BYTES,
                                              data.scale_factor)
        self.join_memory_bytes = join_memory_bytes
        # ANALYZE, table by table on first use: the planner orders joins
        # from these
        self.statistics = CatalogStatistics(data.tables)
        self.artifacts = Artifacts()
        self._built: set = set()
        builder = DesignBuilder(self.disk, data)
        builder.build_dimensions(self.artifacts)
        for design in (designs if designs is not None else list(DesignKind)):
            self.add_design(design)

    def add_design(self, design: DesignKind) -> None:
        """Materialize one design's artifacts (idempotent; propagated to
        shard children when sharding is active)."""
        if design in self._built:
            return
        builder = DesignBuilder(self.disk, self.data)
        if design in (DesignKind.TRADITIONAL, DesignKind.TRADITIONAL_BITMAP):
            builder.build_traditional(self.artifacts)
        if design is DesignKind.TRADITIONAL_BITMAP:
            builder.build_bitmaps(self.artifacts)
        if design is DesignKind.MATERIALIZED_VIEWS:
            builder.build_materialized_views(self.artifacts)
        if design is DesignKind.VERTICAL_PARTITIONING:
            builder.build_vertical_partitions(self.artifacts)
        if design is DesignKind.INDEX_ONLY:
            builder.build_indexes(self.artifacts)
        self._built.add(design)
        for child in self._shard_engines():
            child.add_design(design)

    @property
    def designs(self) -> List[DesignKind]:
        return sorted(self._built, key=lambda d: d.value)

    def _require_design(self, design: DesignKind) -> None:
        if design not in self._built:
            raise PlanError(
                f"design {design.value} was not built; available: "
                f"{[d.value for d in self.designs]}"
            )

    def execute(
        self,
        query: StarQuery,
        design: DesignKind,
        prune_partitions: bool = True,
        vp_join: str = "hash",
        vp_super_tuples: bool = False,
        cold_pool: bool = True,
        cancellation=None,
    ) -> RowStoreRun:
        """Run ``query`` under ``design`` on a fresh ledger.

        ``vp_join`` applies to the vertical-partitioning design only:
        ``"hash"`` (System X's actual behaviour) or ``"merge"`` (the
        sort-free merge join the paper says System X could not be coaxed
        into, Section 6.2.2).  ``vp_super_tuples=True`` stores the
        vertical partitions as header-free, position-implicit "super
        tuples" scanned block-at-a-time — the storage/executor
        improvements the paper's conclusion lists (built lazily on first
        use).  ``cold_pool=False`` keeps whatever the buffer pool holds
        from previous runs — the paper's warm-pool measurement protocol
        (Section 6.1).  ``cancellation`` installs a cooperative
        :class:`~repro.serve.resilience.CancellationToken` checked at
        page boundaries (typed
        :class:`~repro.errors.QueryCancelledError`).

        When the engine holds pending writes the run becomes a snapshot
        read pinned at the current epoch (see ``docs/writes.md``):
        pending deletes hide fact tuples from scans in place, and
        visible WOS fact inserts add a ``wos-merge`` partial combined
        through the scatter-gather merger.  Requires the engine-level
        ``writes`` flag; a read-only engine with pending writes raises
        :class:`~repro.errors.WriteError` rather than answering wrong.
        """
        self._require_design(design)
        return self._execute_routed(
            query, writes=self.writes,
            move_threshold_rows=self.move_threshold_rows,
            shards=self.shards, design=design,
            prune_partitions=prune_partitions, vp_join=vp_join,
            vp_super_tuples=vp_super_tuples, cold_pool=cold_pool,
            cancellation=cancellation)

    def _run_base(self, query: StarQuery, visibility, *,
                  design: DesignKind, prune_partitions: bool, vp_join: str,
                  vp_super_tuples: bool, cold_pool: bool,
                  cancellation) -> RowStoreRun:
        if vp_super_tuples and not self.artifacts.vp_super_heaps:
            DesignBuilder(self.disk, self.data) \
                .build_super_vertical_partitions(self.artifacts)
        return self.run_plan(
            lambda planner: planner.run(
                query, design, prune_partitions=prune_partitions,
                vp_join=vp_join, vp_super_tuples=vp_super_tuples),
            cold_pool=cold_pool, cancellation=cancellation,
            visibility=visibility)

    def planner(self, tracer: Optional[Tracer] = None,
                visibility=None) -> RowPlanner:
        """A planner over this engine's pool, artifacts and statistics;
        its work is charged to whatever ledger the disk points at."""
        spill = SpillAccountant(self.disk, self.join_memory_bytes)
        return RowPlanner(self.pool, self.artifacts, self.data, spill,
                          statistics=self.statistics, tracer=tracer,
                          zone_maps=self.zone_maps, visibility=visibility)

    def run_plan(self, plan: Callable[[RowPlanner], ResultSet],
                 cold_pool: bool = True, cancellation=None,
                 visibility=None) -> RowStoreRun:
        """Run ``plan(planner)`` inside the bracket every row-store
        execution shares: a fresh ledger, a cold (or head-reset warm)
        pool, a span tracer verified against the ledger, the
        cancellation token installed for the duration, and persistent
        corruption surfaced typed."""
        stats = QueryStats()
        self.disk.stats = stats
        # default: start from a cold pool so measurements are
        # order-independent (the pool is 0.5% of the data, mirroring the
        # paper's 500 MB at SF 10, so warmth barely shifts results)
        if cold_pool:
            self.pool.clear()
        else:
            self.disk.reset_head()
        tracer = Tracer(stats, self.cost_model)
        planner = self.planner(tracer, visibility)
        saved_cancellation = self.disk.cancellation
        if cancellation is not None:
            self.disk.cancellation = cancellation
        try:
            with final_corruption():
                result = plan(planner)
        finally:
            self.disk.cancellation = saved_cancellation
        trace = tracer.finish(stats)
        return RowStoreRun(result, stats, self.cost_model.cost(stats),
                           trace=trace)

    def shard_children(self) -> List[Tuple[object, "SystemX"]]:
        """The shard set behind ``shards > 1``: (fact shard, complete
        child ``SystemX``) pairs, built once and reused across queries."""
        return self._shard_set(self.shards)

    def _spawn(self, data: SsbData, memory_share: int,
               fault_injector=None) -> "SystemX":
        return SystemX(
            data, designs=self.designs, cost_model=self.cost_model,
            buffer_pool_bytes=budget_share(self._pool_bytes, memory_share),
            join_memory_bytes=budget_share(self.join_memory_bytes,
                                           memory_share),
            zone_maps=self.zone_maps, fault_injector=fault_injector)

    def _adopt_shadow(self, shadow: "SystemX") -> None:
        self.statistics = shadow.statistics
        self.artifacts = shadow.artifacts
        self._built = shadow._built

    def explain(self, query: StarQuery, design: DesignKind,
                prune_partitions: bool = True, analyze: bool = False) -> str:
        """Describe the plan ``design`` would execute for ``query``
        (Section 6.2.1's plan shapes), without perturbing any ledger.

        ``analyze=True`` additionally runs the query on a throwaway
        ledger and appends the observed per-phase span tree."""
        from .explain import explain as _explain, render_span_section

        self._require_design(design)
        text = _explain(self.data, self.artifacts, query, design,
                        prune_partitions=prune_partitions)
        if analyze:
            saved = self.disk.stats
            try:
                run = self.execute(query, design,
                                   prune_partitions=prune_partitions)
            finally:
                self.disk.stats = saved
            text += "\n" + render_span_section(run.trace)
        return text


__all__ = ["SystemX", "RowStoreRun", "final_corruption",
           "PAPER_BUFFER_POOL_BYTES", "PAPER_JOIN_MEMORY_BYTES"]
