"""The engine shell: everything ``CStore`` and ``SystemX`` have in common.

The paper's answer to its own title is that a column store and a row
store differ in four storage/executor techniques and nothing else.  The
engines here honour that literally: each subclass of
:class:`EngineShell` carries its physical design and its planner, and
this module owns — once — the policy around them:

* **storage bring-up** — the simulated disk and the sf-scaled buffer
  pool;
* **read routing** — automatic tuple-mover policy → snapshot
  :class:`~repro.write.store.Visibility` → typed
  :class:`~repro.errors.WriteError` on a merge-blind read → WOS merge →
  base run on the engine's one storage stack;
* **the write side** — ``insert`` / ``delete`` into the delta store, the
  tuple mover with its four kill points and its journal checkpoint, the
  retrying shadow rebuild, and cold-start ``recover``.

An engine plugs in three hooks: :meth:`EngineShell._run_base` (one
single-stack execution under the engine's own call options),
:meth:`EngineShell._spawn` (a sibling engine with the same physical
design over other data — the tuple mover's shadow and recovery's
rebuild both come from it, so neither can drop part of the design) and
:meth:`EngineShell._adopt_shadow` (swap a rebuilt sibling's structures
in).  Invariants #9–#10 of ``docs/architecture.md`` — write
invisibility, durability — are therefore upheld by one copy of the
code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..errors import TransientIOError, WriteError, WriteFaultError
from ..obs import Span, Trace, Tracer, span_context
from ..plan.combine import gather, partial_plan
from ..plan.logical import StarQuery
from ..result import ResultSet
from ..simio.buffer_pool import BufferPool, _backoff_us
from ..simio.disk import SimulatedDisk
from ..simio.faults import (
    CRASH_AFTER_MOVE_SWAP,
    CRASH_BEFORE_JOURNAL_TRUNCATE,
    CRASH_BEFORE_MOVE_SWAP,
    CRASH_MID_MOVE_SHADOW,
    crash_point,
)
from ..simio.stats import CostBreakdown, CostModel, QueryStats
from ..ssb.generator import SsbData
from ..storage.table import Table
from ..synopsis import stamp_sidecars
from ..write.delta import delta_partial
from ..write.journal import MAX_WRITE_RETRIES
from ..write.recovery import RecoveryReport, recover_engine
from ..write.store import Visibility, WriteStore

#: The paper's machine at SF 10 (Section 6): memory budgets scale with
#: the data so they keep their *relative* size at any scale factor.
PAPER_BUFFER_POOL_BYTES = 500 * 1024 * 1024
PAPER_SCALE_FACTOR = 10.0
MIN_POOL_BYTES = 8 * 32 * 1024


def scaled_budget(paper_bytes: int, scale_factor: float) -> int:
    """A memory budget configured for SF 10, scaled to ``scale_factor``."""
    scale = scale_factor / PAPER_SCALE_FACTOR
    return max(MIN_POOL_BYTES, int(paper_bytes * scale))


@dataclass
class EngineRun:
    """Outcome of one query execution (either engine)."""

    result: ResultSet
    stats: QueryStats
    cost: CostBreakdown
    #: per-phase span tree; verified to sum exactly to ``stats``
    trace: Optional[Trace] = None

    @property
    def seconds(self) -> float:
        """Simulated seconds on the paper's hardware."""
        return self.cost.total_seconds


class EngineShell:
    """Storage, snapshot-read routing and the write / move / recover
    lifecycle shared by both engines (see the module docstring)."""

    def __init__(self, data: SsbData, cost_model: CostModel,
                 buffer_pool_bytes: Optional[int],
                 fault_injector=None) -> None:
        self.data = data
        self.cost_model = cost_model
        if buffer_pool_bytes is None:
            buffer_pool_bytes = scaled_budget(PAPER_BUFFER_POOL_BYTES,
                                              data.scale_factor)
        self._pool_bytes = buffer_pool_bytes
        #: lazily created delta store (first accepted write); None means
        #: this engine has never seen a write
        self._writes: Optional[WriteStore] = None
        #: write epoch the current base pages (and their zone-map
        #: sidecars) reflect; bumped by the tuple mover
        self._zm_epoch = 0
        self.disk = SimulatedDisk()
        # installed before any load so shadow rebuilds are fault-injectable
        self.disk.fault_injector = fault_injector
        self.pool = BufferPool(self.disk, buffer_pool_bytes)

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def _run_base(self, query: StarQuery, visibility: Optional[Visibility],
                  **options) -> EngineRun:
        """One single-stack execution on a fresh ledger under the
        engine's own call ``options``; ``visibility`` (or None) carries
        the deleted-row mask a snapshot read must patch scans with."""
        raise NotImplementedError

    def _spawn(self, data: SsbData, fault_injector=None) -> "EngineShell":
        """A sibling engine over ``data`` with this engine's complete
        physical design and memory budgets."""
        raise NotImplementedError

    def _adopt_shadow(self, shadow: "EngineShell") -> None:
        """Take over ``shadow``'s engine-specific structures (the shell
        swaps ``data`` / ``disk`` / ``pool`` itself)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # read routing
    # ------------------------------------------------------------------ #
    def _execute_routed(self, query: StarQuery, *, writes: bool,
                        move_threshold_rows: Optional[int],
                        **options) -> EngineRun:
        """Route one read: drain the WOS when the automatic mover policy
        says so, pin a snapshot when writes are pending (refusing typed
        when the caller did not opt in to ``writes``), then run merged
        or plain."""
        ws = self._writes
        visibility = None
        if ws is not None:
            if (writes and move_threshold_rows is not None
                    and ws.pending_rows() > move_threshold_rows):
                # automatic tuple-mover policy: drain on its own ledger
                # so the query's ledger only ever carries query work
                self.move()
            if ws.has_pending():
                if not writes:
                    raise WriteError(
                        "engine holds pending writes; opt in to snapshot "
                        "reads (ExecutionConfig.writes / SystemX(writes=)) "
                        "or run the tuple mover first"
                    )
                visibility = ws.visibility()
                if visibility.needs_merge:
                    return self._execute_merge(query, visibility, options)
        return self._run_base(query, visibility, **options)

    def _execute_merge(self, query: StarQuery, vis: Visibility,
                       options: Dict) -> EngineRun:
        """Base run plus a WOS delta partial, combined through
        :mod:`repro.plan.combine`.  Its rewrite makes the partials
        mergeable (AVG as SUM+COUNT, hidden row counts for scalar
        MIN/MAX), and the merged trace carries the delta's compute under
        a ``wos-merge`` span."""
        spec = partial_plan(query)
        base_run = self._run_base(spec.partial_query, vis, **options)
        delta_stats = QueryStats()
        partial = delta_partial(spec.partial_query, vis, delta_stats)
        result = gather(query, spec, [base_run.result, partial])
        merged = QueryStats(**base_run.stats.snapshot())
        merged.merge(delta_stats)
        spans = [
            Span("base-store", QueryStats(**base_run.stats.snapshot()),
                 base_run.cost, children=[base_run.trace.root]),
            Span("wos-merge", QueryStats(**delta_stats.snapshot()),
                 self.cost_model.cost(delta_stats)),
        ]
        root = Span("query", QueryStats(**merged.snapshot()),
                    self.cost_model.cost(merged), children=spans)
        trace = Trace(root).verify(merged)
        return EngineRun(result, merged, self.cost_model.cost(merged),
                         trace=trace)

    # ------------------------------------------------------------------ #
    # writes: WOS delegation and the tuple mover
    # ------------------------------------------------------------------ #
    def _write_store(self) -> WriteStore:
        if self._writes is None:
            self._writes = WriteStore(dict(self.data.tables))
            # journal faults come from the same injector as data faults
            self._writes.journal.disk.fault_injector = \
                self.disk.fault_injector
        return self._writes

    def insert(self, table: str, rows, stats: Optional[QueryStats] = None,
               tracer: Optional[Tracer] = None) -> int:
        """Validate, journal, and buffer ``rows`` into the WOS.
        All-or-nothing; returns rows accepted."""
        if stats is None:
            stats = QueryStats()
        return self._write_store().insert(table, rows, stats, tracer)

    def delete(self, table: str, predicates,
               stats: Optional[QueryStats] = None,
               tracer: Optional[Tracer] = None) -> int:
        """Mark matching rows deleted as of a fresh epoch (dimension
        deletes are RESTRICTed while referenced).  Returns rows marked."""
        if stats is None:
            stats = QueryStats()
        return self._write_store().delete(table, predicates, stats, tracer)

    def pending_writes(self) -> int:
        """Rows the tuple mover would merge right now (0 = clean)."""
        return 0 if self._writes is None else self._writes.pending_rows()

    @property
    def write_epoch(self) -> int:
        return 0 if self._writes is None else self._writes.epoch

    def snapshot_tables(self) -> Dict[str, Table]:
        """The tables a reference oracle should replay: the current base
        merged with any pending delta (post-move, the adopted base)."""
        if self._writes is None:
            return self.data.tables
        return self._writes.effective_tables()

    def move(self, stats: Optional[QueryStats] = None,
             tracer: Optional[Tracer] = None) -> int:
        """The tuple mover: drain the WOS into fresh base storage.

        Builds a complete shadow engine from the effective tables (the
        cold-rebuild order, so post-move reads are byte-identical to a
        rebuild), retrying transient write faults with the journal's
        backoff schedule, then swaps it in atomically and advances the
        merge horizon.  The moved tables then become the journal's
        checkpoint, and every journal page up to the move record is
        dropped.  All shadow-build I/O is charged to ``stats`` under a
        ``tuple-move`` span.  On failure the serving store is untouched.
        Returns the number of rows merged.
        """
        ws = self._writes
        if ws is None or not ws.has_pending():
            return 0
        if stats is None:
            stats = QueryStats()
        injector = self.disk.fault_injector
        moved = ws.pending_rows()
        effective = ws.effective_tables()
        with span_context(tracer, "tuple-move"):
            shadow = self._rebuild_from_effective(effective, ws.epoch, stats,
                                                  crash_points=True)
            # the move record is the swap's commit point: a crash before
            # it leaves orphan shadow pages recovery discards, a crash
            # after it is a completed move recovery rolls forward
            crash_point(injector, CRASH_BEFORE_MOVE_SWAP)
            ws.journal.append({"op": "move", "epoch": ws.epoch,
                               "rows": moved}, stats, tracer)
            crash_point(injector, CRASH_AFTER_MOVE_SWAP)
            self._swap_in(shadow, ws.epoch)
            ws.complete_move(effective)
            ws.journal.record_checkpoint(effective, ws.epoch)
            crash_point(injector, CRASH_BEFORE_JOURNAL_TRUNCATE)
            ws.journal.drop_covered()
            stats.moves += 1
        return moved

    def _rebuild_from_effective(self, effective: Dict[str, Table],
                                epoch: int, stats: QueryStats,
                                crash_points: bool = False
                                ) -> "EngineShell":
        """Build (and epoch-stamp) a complete shadow engine from the
        effective tables, retrying transient write faults with the
        journal's backoff schedule; its build I/O is merged into
        ``stats``.  Shared by the tuple mover and by cold-start
        recovery; only the mover arms the mid-shadow kill point
        (recovery re-running this path must not re-crash)."""
        injector = self.disk.fault_injector
        data = replace(self.data, **effective)
        for attempt in range(1, MAX_WRITE_RETRIES + 1):
            try:
                shadow = self._spawn(data, fault_injector=injector)
                if crash_points:
                    # dies with shadow pages built but unstamped and no
                    # move record: pure orphans, discarded on recovery
                    crash_point(injector, CRASH_MID_MOVE_SHADOW)
                # stamp the shadow's sidecars with the merged epoch
                # so the scrubber can tell drift from pending delta
                stamp_sidecars(shadow.disk, epoch)
                stats.merge(shadow.disk.stats)
                return shadow
            except TransientIOError as exc:
                stats.io_retries += 1
                stats.retry_backoff_us += _backoff_us(attempt)
                if attempt == MAX_WRITE_RETRIES:
                    raise WriteFaultError(
                        f"tuple move failed after {MAX_WRITE_RETRIES} "
                        f"shadow-build attempts: {exc}"
                    ) from exc

    def _swap_in(self, shadow: "EngineShell", epoch: int) -> None:
        """Atomically make ``shadow``'s storage (built at write epoch
        ``epoch``) our own."""
        self.data = shadow.data
        self.disk = shadow.disk
        self.pool = shadow.pool
        self._adopt_shadow(shadow)
        self._zm_epoch = epoch
        self.disk.stats = QueryStats()

    def recover(self, journal=None, committed_lsn: Optional[int] = None,
                stats: Optional[QueryStats] = None,
                tracer: Optional[Tracer] = None) -> RecoveryReport:
        """Cold-start crash recovery: replay the redo journal's tail
        onto its checkpoint, roll a committed move forward, refresh stale
        zone-map sidecars, and adopt the recovered write store.  See
        ``docs/writes.md`` ("Crash recovery")."""
        return recover_engine(self, journal, committed_lsn, stats, tracer)

    def storage_bytes(self) -> int:
        """Total simulated disk occupied by everything this engine built."""
        return self.disk.total_bytes


__all__ = ["EngineShell", "EngineRun", "scaled_budget",
           "PAPER_BUFFER_POOL_BYTES"]
