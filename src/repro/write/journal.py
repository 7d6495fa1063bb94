"""The append-only redo journal behind every accepted write.

Writes are priced like everything else in the reproduction: each accepted
batch is serialized to JSON, chunked into 32 KB pages, and appended to a
journal file on a *dedicated* simulated disk — dedicated so the journal
survives the tuple mover swapping the engine's data disk underneath it,
and so journal I/O lands on the ledger of the write that caused it rather
than whichever query happens to be running.

Appends share the read path's failure model: the disk's fault injector
may fail an ``append_page`` transiently, and the journal retries with the
*same* bounded backoff schedule the buffer pool uses for reads (the
constants are imported, not copied, so the two schedules can never
drift).  A page that keeps failing past the retry bound raises
:class:`~repro.errors.WriteFaultError`; the caller is guaranteed that no
write-store state was mutated.

Every durable tuple move ends in a :class:`Checkpoint`: the moved base
tables (which stand for the moved pages, since page images are a
deterministic function of the tables), the epoch they were moved at and
the absolute LSN of the move record.  Once recorded, every page up to
and including that record is dropped in one step, so the journal holds
only what happened since the last move; LSNs stay absolute across the
drop.  A fresh journal is seeded with a checkpoint of the tables its
write store was opened on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import TransientIOError, WriteFaultError
from ..obs import Tracer, span_context
from ..simio.buffer_pool import MAX_READ_RETRIES, _backoff_us
from ..simio.disk import PAGE_SIZE, SimulatedDisk
from ..simio.faults import (CRASH_AFTER_JOURNAL_APPEND,
                            CRASH_BEFORE_JOURNAL_APPEND, crash_point)
from ..simio.stats import QueryStats
from ..storage.table import Table

#: Write retries share the read path's bound — one knob, two paths.
MAX_WRITE_RETRIES = MAX_READ_RETRIES

#: The single journal file on the journal's private disk.
JOURNAL_FILE = "journal.redo"


@dataclass(frozen=True)
class Checkpoint:
    """The base tables as of a durable move: recovery's starting point."""

    tables: Dict[str, Table]
    epoch: int  #: write epoch (and merge horizon) of ``tables``
    lsn: int  #: absolute LSN of the last record ``tables`` cover


class RedoJournal:
    """An append-only JSON record log on its own simulated disk, cut
    back to its last checkpoint after every durable move."""

    def __init__(self, tables: Dict[str, Table]) -> None:
        self.disk = SimulatedDisk()
        self.disk.create(JOURNAL_FILE)
        #: absolute LSN of the last record appended (a record may span
        #: pages; records dropped behind a checkpoint still count)
        self.records = 0
        self.checkpoint = Checkpoint(dict(tables), 0, 0)
        # leading pages the checkpoint covers but a crash kept from
        # being dropped (0 whenever no drop is pending)
        self._covered_pages = 0

    @property
    def num_pages(self) -> int:
        return self.disk.file(JOURNAL_FILE).num_pages

    def append(self, record: Dict, stats: QueryStats,
               tracer: Optional[Tracer] = None) -> int:
        """Serialize ``record``, append it page by page, return page count.

        All journal I/O (including failed attempts and their backoff) is
        charged to ``stats``.  Raises :class:`WriteFaultError` after
        :data:`MAX_WRITE_RETRIES` consecutive failures on one page; pages
        already appended stay appended (a torn record tail is detectable
        and harmless — the record was never acknowledged).

        The two journal kill points bracket this method's I/O:
        ``crash:before-journal-append`` dies with nothing of the record
        durable, ``crash:after-journal-append`` dies with the record
        fully durable but the caller never acknowledged.
        """
        crash_point(self.disk.fault_injector, CRASH_BEFORE_JOURNAL_APPEND)
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("ascii")
        chunks = [payload[i:i + PAGE_SIZE]
                  for i in range(0, len(payload), PAGE_SIZE)]
        saved = self.disk.stats
        self.disk.stats = stats
        try:
            with span_context(tracer, "journal-append"):
                for chunk in chunks:
                    self._append_with_retry(chunk, stats)
                stats.journal_pages += len(chunks)
        finally:
            self.disk.stats = saved
        self.records += 1
        crash_point(self.disk.fault_injector, CRASH_AFTER_JOURNAL_APPEND)
        return len(chunks)

    def truncate_pages(self, keep_pages: int) -> None:
        """Physically drop every journal page past ``keep_pages``.

        Recovery uses this to erase a torn tail so that a second recovery
        of the same journal sees a clean end — truncation is what makes
        replay idempotent.
        """
        self.disk.file(JOURNAL_FILE).truncate(keep_pages)

    def record_checkpoint(self, tables: Dict[str, Table], epoch: int,
                          lsn: Optional[int] = None,
                          pages: Optional[int] = None) -> None:
        """Make ``tables`` at ``epoch`` the recovery start: they cover
        every record through ``lsn``, whose last page is page ``pages - 1``
        (default: the last record appended, and every page held).

        Records the checkpoint only; :meth:`drop_covered` then drops the
        covered pages.  A crash between the two leaves them behind, and
        recovery finishes the drop without reading them.
        """
        self.checkpoint = Checkpoint(
            dict(tables), epoch, self.records if lsn is None else lsn)
        self._covered_pages = self.num_pages if pages is None else pages

    def drop_covered(self) -> None:
        """Drop, in one step, every page the checkpoint covers."""
        self.disk.file(JOURNAL_FILE).truncate(0, self._covered_pages)
        self._covered_pages = 0

    def _append_with_retry(self, chunk: bytes, stats: QueryStats) -> None:
        for attempt in range(1, MAX_WRITE_RETRIES + 1):
            try:
                self.disk.append_page(JOURNAL_FILE, chunk)
                return
            except TransientIOError as exc:
                stats.io_retries += 1
                stats.retry_backoff_us += _backoff_us(attempt)
                if attempt == MAX_WRITE_RETRIES:
                    raise WriteFaultError(
                        f"journal append to {JOURNAL_FILE!r} failed after "
                        f"{MAX_WRITE_RETRIES} attempts: {exc}"
                    ) from exc


__all__ = ["Checkpoint", "RedoJournal", "JOURNAL_FILE", "MAX_WRITE_RETRIES"]
