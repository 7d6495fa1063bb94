"""Crash recovery: cold-start redo replay and the crash/restart harness.

PR 8 made every accepted write durable-in-principle — journaled before
any buffer mutated — but nothing ever *read* the journal back.  This
module closes the loop:

* :func:`scan_journal` walks ``journal.redo`` page by page, CRC-checks
  every page, retries transient reads with the buffer pool's backoff
  schedule, and re-assembles records (a record is complete exactly when
  its accumulated pages parse as JSON — a strict JSON prefix never
  parses, so parse success delimits records without any framing bytes);
* :func:`recover_store` replays the surviving records in LSN order
  against the genesis base tables, truncates a torn/unacknowledged
  tail, rolls a durable ``move`` record forward, and raises a typed
  :class:`~repro.errors.JournalTornError` only when a *committed* LSN is
  missing — an acknowledged write would otherwise be silently lost;
* :func:`recover_engine` (reached via ``CStore.recover()`` /
  ``SystemX.recover()``) adopts the recovered write store, rebuilds the
  engine's base storage when a rolled-forward move left the serving
  pages behind the merge horizon, and re-derives zone-map sidecars whose
  epoch stamp trails the recovered epoch by reusing the scrubber's
  stale-synopsis pass;
* :class:`CrashHarness` drives the whole cycle deterministically: armed
  :class:`~repro.simio.faults.CrashPolicy` kill points "kill" the
  process mid-write, the harness discards every in-memory structure and
  re-opens the database from the simulated disk alone.

All replay I/O is priced through the cost model into three counters —
``journal_replay_pages``, ``recovered_batches``, ``torn_tail_records`` —
that stay zero on clean starts, so every pre-existing ledger and trace
remains byte-identical.

The LSN is the 1-based record ordinal in the journal.  A caller that
tracks acknowledgements (the harness, the durability verifier) passes
the last acknowledged LSN as ``committed_lsn``; records beyond it are an
unacknowledged tail and are truncated — except a durable ``move``
record, whose journal append *is* the swap's commit point and is always
rolled forward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import JournalTornError, SimulatedCrashError, TransientIOError
from ..obs import Tracer, span_context
from ..simio.buffer_pool import MAX_READ_RETRIES, _backoff_us
from ..simio.faults import CrashPolicy, FaultInjector, FaultPolicy
from ..simio.stats import QueryStats
from ..storage.table import Table
from .journal import JOURNAL_FILE, RedoJournal
from .store import WriteStore


@dataclass
class JournalRecord:
    """One fully-recovered journal record and where it lives on disk."""

    lsn: int  #: 1-based record ordinal
    end_page: int  #: exclusive page bound of the record's last page
    record: Dict


@dataclass
class RecoveryReport:
    """What one cold-start recovery scanned, replayed, and repaired."""

    records_scanned: int = 0  #: records fully parsed from the journal
    recovered_batches: int = 0  #: DML records replayed into the WOS
    moves_rolled_forward: int = 0  #: durable move records rolled forward
    torn_tail_records: int = 0  #: tail records truncated (torn/unacked)
    replay_pages: int = 0  #: journal pages scanned by this recovery
    epoch: int = 0  #: write epoch after replay
    horizon: int = 0  #: merge horizon after replay
    stale_sidecars: int = 0  #: zone-map sidecars re-derived (scrub pass)
    behind_delta: int = 0  #: sidecars merely trailing the pending delta
    trace: object = None  #: span tree when a tracer drove the recovery

    @property
    def clean(self) -> bool:
        """True when nothing needed replaying or truncating."""
        return (self.records_scanned == 0 and self.torn_tail_records == 0
                and self.stale_sidecars == 0)

    def render(self) -> str:
        return (
            f"recovery: {self.records_scanned} records scanned, "
            f"{self.recovered_batches} batches replayed, "
            f"{self.moves_rolled_forward} moves rolled forward, "
            f"{self.torn_tail_records} torn-tail records truncated, "
            f"{self.replay_pages} journal pages read "
            f"(epoch {self.epoch}, horizon {self.horizon}, "
            f"{self.stale_sidecars} stale sidecars re-derived)"
        )


def scan_journal(journal: RedoJournal, stats: QueryStats,
                 tracer: Optional[Tracer] = None
                 ) -> Tuple[List[JournalRecord], bool]:
    """Read every journal page, CRC-validate, and re-assemble records.

    Returns ``(records, torn)`` where ``torn`` is True when the journal
    ends in bytes that never completed a record — an unreadable page, a
    CRC failure, or a parse-incomplete tail.  Transient read faults are
    retried with the buffer pool's backoff schedule (charged to
    ``io_retries``/``retry_backoff_us``); a page that stays unreadable
    is treated as the start of the torn region, not an error — whether
    that loses anything *committed* is decided by the caller against its
    ``committed_lsn``.
    """
    disk = journal.disk
    f = disk.file(JOURNAL_FILE)
    records: List[JournalRecord] = []
    torn = False
    saved = disk.stats
    disk.stats = stats
    try:
        with span_context(tracer, "journal-replay"):
            buffer = b""
            for page_no in range(f.num_pages):
                payload = None
                for attempt in range(1, MAX_READ_RETRIES + 1):
                    try:
                        payload = disk.read_page(JOURNAL_FILE, page_no)
                        break
                    except TransientIOError:
                        stats.io_retries += 1
                        stats.retry_backoff_us += _backoff_us(attempt)
                if payload is None or not disk.verify_page(
                        JOURNAL_FILE, page_no, payload):
                    torn = True
                    break
                stats.journal_replay_pages += 1
                buffer += payload
                try:
                    record = json.loads(buffer.decode("ascii"))
                except (ValueError, UnicodeDecodeError):
                    continue  # record spans further pages
                records.append(JournalRecord(lsn=len(records) + 1,
                                             end_page=page_no + 1,
                                             record=record))
                buffer = b""
            if buffer:
                torn = True
    finally:
        disk.stats = saved
    return records, torn


def recover_store(base_tables: Dict[str, Table], journal: RedoJournal,
                  committed_lsn: Optional[int] = None,
                  stats: Optional[QueryStats] = None,
                  tracer: Optional[Tracer] = None
                  ) -> Tuple[WriteStore, RecoveryReport]:
    """Rebuild a :class:`WriteStore` from genesis ``base_tables`` plus
    the surviving ``journal``.

    Records up to ``committed_lsn`` (default: every fully-parsed record)
    are replayed in order; a shorter journal raises
    :class:`~repro.errors.JournalTornError` — an acknowledged write
    would be lost.  Beyond the committed prefix, durable ``move``
    records roll forward (the move record is the swap's commit point);
    everything after the first non-move tail record is truncated from
    the journal, physically, so recovering twice is idempotent.
    """
    if stats is None:
        stats = QueryStats()
    records, torn = scan_journal(journal, stats, tracer)
    committed = len(records) if committed_lsn is None else committed_lsn
    if len(records) < committed:
        raise JournalTornError(
            f"journal holds {len(records)} valid records but LSN "
            f"{committed} was acknowledged; refusing to silently lose a "
            f"committed write"
        )
    kept = records[:committed]
    dropped = 0
    for rec in records[committed:]:
        if rec.record.get("op") == "move" and dropped == 0:
            kept.append(rec)  # durable commit point: roll forward
        else:
            dropped += 1
    stats.torn_tail_records += dropped + (1 if torn else 0)
    keep_pages = kept[-1].end_page if kept else 0
    if journal.num_pages > keep_pages:
        journal.truncate_pages(keep_pages)
    journal.records = len(kept)

    ws = WriteStore(dict(base_tables), journal=journal)
    report = RecoveryReport(records_scanned=len(records),
                            torn_tail_records=dropped + (1 if torn else 0))
    with span_context(tracer, "journal-apply"):
        for rec in kept:
            ws.apply_record(rec.record)
            if rec.record.get("op") == "move":
                report.moves_rolled_forward += 1
            else:
                report.recovered_batches += 1
                stats.recovered_batches += 1
    report.replay_pages = stats.journal_replay_pages
    report.epoch = ws.epoch
    report.horizon = ws.horizon
    return ws, report


def recover_engine(engine, journal: Optional[RedoJournal] = None,
                   committed_lsn: Optional[int] = None,
                   stats: Optional[QueryStats] = None,
                   tracer: Optional[Tracer] = None) -> RecoveryReport:
    """Cold-start recovery for one engine (CStore or SystemX).

    Replays ``journal`` (default: the engine's own, when it has ever
    written) against the engine's *genesis* tables — never the current,
    possibly-moved base, which is what makes recovering twice a no-op —
    then:

    * adopts the recovered write store (pending rows serve as ordinary
      snapshot reads);
    * when a rolled-forward move advanced the merge horizon past the
      epoch the serving pages reflect, rebuilds base storage from the
      recovered effective tables through the same shadow-build path the
      tuple mover uses (kill points disarmed: recovery never re-crashes);
    * for the column store, re-derives any zone-map sidecar whose epoch
      stamp trails the recovered epoch, reusing the scrubber's
      stale-synopsis pass.

    All I/O is charged to ``stats`` through the cost model.  A clean
    start (no journal, or an empty one) touches nothing and reports all
    zeros.
    """
    if stats is None:
        stats = QueryStats()
    if journal is None and engine._writes is not None:
        journal = engine._writes.journal
    if journal is None:
        return RecoveryReport()  # never wrote: nothing to recover
    ws, report = recover_store(dict(engine._genesis_tables), journal,
                               committed_lsn, stats, tracer)
    ws.journal.disk.fault_injector = engine.disk.fault_injector
    engine._writes = ws
    if ws.horizon > 0 and engine._zm_epoch != ws.horizon:
        # a committed move's pages died with the process: roll it
        # forward by rebuilding from the recovered effective tables
        effective = {n: ws.base_table(n) for n in ws.table_names()}
        with span_context(tracer, "recovery-rebuild"):
            engine._swap_in(
                engine._rebuild_from_effective(effective, ws.horizon, stats),
                ws.horizon)
    if hasattr(engine, "_projections"):
        # column store: the scrubber's stale-synopsis pass re-derives
        # any sidecar whose stamp trails the recovered epoch (heap
        # sidecars are re-stamped wholesale by the rebuild above)
        from ..scrub import rebuild_stale_synopses

        with span_context(tracer, "stale-synopsis"):
            rebuilt, behind = rebuild_stale_synopses(engine)
        report.stale_sidecars = rebuilt
        report.behind_delta = behind
    return report


# --------------------------------------------------------------------- #
# the crash/restart harness
# --------------------------------------------------------------------- #
def _default_factory(kind: str):
    if kind == "cs":
        from ..colstore.engine import CStore
        from ..storage.colfile import CompressionLevel

        return lambda data, inj: CStore(
            data, levels=(CompressionLevel.MAX,), fault_injector=inj)
    if kind == "rs":
        from ..rowstore.engine import SystemX
        from ..rowstore.designs import DesignKind

        return lambda data, inj: SystemX(
            data, designs=(DesignKind.TRADITIONAL,), writes=True,
            fault_injector=inj)
    raise ValueError(f"unknown engine kind {kind!r}; use 'cs' or 'rs'")


class CrashHarness:
    """Deterministic crash → cold restart → recovery, one cycle.

    Drives an engine through DML with seeded kill points armed.  When
    one fires, the attempted operation reports ``None`` (never
    acknowledged) and the harness remembers the crash.  A subsequent
    :meth:`crash_and_recover` throws away the entire engine — every
    in-memory structure — and re-opens from the simulated disk alone:
    fresh engine over the genesis data, surviving redo journal, and a
    replay bounded by the last *acknowledged* LSN.

    The restart injector keeps the fault policies (so replay itself can
    hit transient reads) but drops the crash policies — a restarted
    process does not inherit its predecessor's kill schedule.
    """

    def __init__(self, data, kind: str = "cs", seed: int = 0,
                 crashes: Sequence[CrashPolicy] = (),
                 policies: Sequence[FaultPolicy] = (),
                 make_engine=None) -> None:
        self.data = data
        self.kind = kind
        self.injector = FaultInjector(seed, policies, crashes=crashes)
        self._make = make_engine or _default_factory(kind)
        self.engine = self._make(data, self.injector)
        #: last acknowledged LSN (the harness's "client-side" ledger)
        self.committed_lsn = 0
        #: the crash, once one fired
        self.crashed: Optional[SimulatedCrashError] = None
        #: acknowledged operations, for reference replay
        self.acked: List[Tuple] = []
        #: operations the crash swallowed (attempted, never acked)
        self.unacked: List[Tuple] = []

    def _journal(self) -> Optional[RedoJournal]:
        ws = self.engine._writes
        return None if ws is None else ws.journal

    def insert(self, table: str, rows) -> Optional[int]:
        """Insert; ``None`` means the crash fired and nothing was acked."""
        try:
            n = self.engine.insert(table, rows)
        except SimulatedCrashError as crash:
            self.crashed = crash
            self.unacked.append(("insert", table, rows))
            return None
        self.committed_lsn = self._journal().records
        self.acked.append(("insert", table, rows))
        return n

    def delete(self, table: str, predicates) -> Optional[int]:
        """Delete; ``None`` means the crash fired and nothing was acked."""
        try:
            n = self.engine.delete(table, predicates)
        except SimulatedCrashError as crash:
            self.crashed = crash
            self.unacked.append(("delete", table, predicates))
            return None
        self.committed_lsn = self._journal().records
        self.acked.append(("delete", table, predicates))
        return n

    def move(self) -> Optional[int]:
        """Run the tuple mover; ``None`` means the crash fired mid-move."""
        try:
            n = self.engine.move()
        except SimulatedCrashError as crash:
            self.crashed = crash
            self.unacked.append(("move",))
            return None
        j = self._journal()
        if j is not None:
            self.committed_lsn = j.records
        if n:
            self.acked.append(("move",))
        return n

    def crash_and_recover(self, stats: Optional[QueryStats] = None,
                          tracer: Optional[Tracer] = None) -> RecoveryReport:
        """Discard all in-memory state; re-open from disk and replay."""
        journal = self._journal()
        self.injector = FaultInjector(self.injector.seed,
                                      self.injector.policies)
        self.engine = self._make(self.data, self.injector)
        return self.engine.recover(journal, self.committed_lsn, stats,
                                   tracer)

    def reference_store(self) -> WriteStore:
        """An independent replay of exactly the acknowledged operations
        onto fresh genesis tables — the never-crashed oracle the
        recovered engine must be row-identical to."""
        ws = WriteStore(dict(self.data.tables))
        scratch = QueryStats()
        for op in self.acked:
            if op[0] == "insert":
                ws.insert(op[1], op[2], scratch)
            elif op[0] == "delete":
                ws.delete(op[1], op[2], scratch)
            else:  # a completed move only advances bookkeeping
                ws.complete_move(ws.effective_tables())
        return ws


__all__ = ["JournalRecord", "RecoveryReport", "scan_journal",
           "recover_store", "recover_engine", "CrashHarness"]
