"""An LRU buffer pool layered over the simulated disk.

The paper runs every experiment with a warm 500 MB buffer pool and notes
that buffer pool size barely matters because the scans exceed it
(Section 6.2).  This class reproduces that behaviour: page reads that hit
the pool are free (counted as ``buffer_hits``), misses go to the disk and
are charged there.

Capacity is expressed in bytes and enforced in whole pages with
least-recently-used eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from ..errors import ChecksumError, StorageError, TransientIOError
from .disk import PAGE_SIZE, SimulatedDisk, stripe_of
from .stats import QueryStats

#: Default capacity, matching the paper's System X configuration.
DEFAULT_CAPACITY_BYTES = 500 * 1024 * 1024

#: How many times a single page read is retried after a fault before the
#: error becomes final (transient errors propagate as
#: :class:`TransientIOError`; checksum mismatches quarantine the page and
#: propagate as :class:`ChecksumError`).
MAX_READ_RETRIES = 4

#: Capped exponential backoff schedule: 100 µs, 200, 400, 800, then flat
#: at 1600 µs.  Charged to the ledger's ``retry_backoff_us`` counter and
#: folded into simulated I/O seconds by the cost model.
_BACKOFF_BASE_US = 100
_BACKOFF_CAP_US = 1600


def _backoff_us(attempt: int) -> int:
    """Backoff charged after the ``attempt``-th failed read (1-based)."""
    return min(_BACKOFF_BASE_US * (2 ** (attempt - 1)), _BACKOFF_CAP_US)


def fill_page(disk: SimulatedDisk, name: str, page_no: int,
              stats: QueryStats) -> bytes:
    """Read one page from ``disk`` with retry, backoff, and verification.

    This is the buffer pool's fault-aware miss path.  Every physical
    read attempt is charged by the disk; retries add ``io_retries`` and
    ``retry_backoff_us`` to ``stats``.  Raises:

    * :class:`TransientIOError` once transient retries are exhausted;
    * :class:`ChecksumError` when the page image persistently fails CRC
      verification — the page is quarantined first, so later reads fail
      fast without re-reading garbage.
    """
    if disk.is_quarantined(name, page_no):
        raise ChecksumError(name, page_no, stripe_of(page_no),
                            detail="page is quarantined")
    attempts = 0
    while True:
        attempts += 1
        try:
            payload = disk.read_page(name, page_no)
        except TransientIOError:
            if attempts > MAX_READ_RETRIES:
                raise
            stats.io_retries += 1
            stats.retry_backoff_us += _backoff_us(attempts)
            continue
        if disk.verify_page(name, page_no, payload):
            return payload
        stats.checksum_failures += 1
        if attempts > MAX_READ_RETRIES:
            disk.quarantine(name, page_no)
            stats.pages_quarantined += 1
            raise ChecksumError(name, page_no, stripe_of(page_no))
        stats.io_retries += 1
        stats.retry_backoff_us += _backoff_us(attempts)


class BufferPool:
    """LRU page cache in front of a :class:`SimulatedDisk`.

    Parameters
    ----------
    disk:
        Backing simulated disk.
    capacity_bytes:
        Pool capacity; at least one page.
    """

    def __init__(
        self, disk: SimulatedDisk, capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    ) -> None:
        if capacity_bytes < PAGE_SIZE:
            raise StorageError(
                f"buffer pool must hold at least one page ({PAGE_SIZE} bytes)"
            )
        self.disk = disk
        self.capacity_pages = capacity_bytes // PAGE_SIZE
        self._pages: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
        #: lifetime effectiveness counters (never reset by :meth:`clear`,
        #: unlike the per-query ledger's ``buffer_hits``/``pages_read``)
        self.hits = 0
        self.misses = 0

    @property
    def stats(self) -> QueryStats:
        """The active ledger (shared with the disk)."""
        return self.disk.stats

    @property
    def hit_rate(self) -> float:
        """Lifetime fraction of page requests served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._pages)

    def read_page(self, name: str, page_no: int, times: int = 1) -> bytes:
        """Read a page through the pool.

        ``times`` > 1 stands for that many requests in a row: the first
        is a hit or a miss as usual and the repeats are buffer hits, so
        the ledger, the counters and the LRU order are those of
        ``times`` calls.
        """
        # cooperative cancellation lands here too: buffer hits never
        # reach the disk, but a cancelled query must still stop at the
        # next page boundary (a hit prices nothing, so one check covers
        # the repeats)
        if self.disk.cancellation is not None:
            self.disk.cancellation.check(self.stats)
        key = (name, page_no)
        cached = self._pages.get(key)
        if cached is not None:
            self._pages.move_to_end(key)
            self.stats.buffer_hits += times
            self.hits += times
            return cached
        payload = fill_page(self.disk, name, page_no, self.stats)
        self._insert(key, payload)
        self.misses += 1
        self.stats.buffer_hits += times - 1
        self.hits += times - 1
        return payload

    def scan_pages(
        self, name: str, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[bytes]:
        """Yield a page range through the pool, preserving sequential
        charging for the misses."""
        f = self.disk.file(name)
        end = f.num_pages if stop is None else min(stop, f.num_pages)
        for page_no in range(start, end):
            yield self.read_page(name, page_no)

    def warm(self, name: str) -> None:
        """Pre-load a file into the pool without charging the ledger.

        Used to set up the paper's "warm buffer pool" starting condition;
        the pool may of course still evict if the file exceeds capacity.
        """
        before = self.stats.snapshot()
        for page_no in range(self.disk.file(name).num_pages):
            payload = self.disk.file(name).pages[page_no]
            # Never cache a page that would not verify: a later miss-fill
            # must get the chance to detect (and report) the corruption.
            if self.disk.is_quarantined(name, page_no):
                continue
            if not self.disk.verify_page(name, page_no, payload):
                continue
            self._insert((name, page_no), payload)
        # warming is not part of any measured query; restore counters
        for counter, value in before.items():
            setattr(self.stats, counter, value)

    def clear(self) -> None:
        """Drop every cached page (a cold start)."""
        self._pages.clear()
        self.disk.reset_head()

    def invalidate(self, name: str) -> None:
        """Drop cached pages belonging to one file (after a rebuild)."""
        stale = [key for key in self._pages if key[0] == name]
        for key in stale:
            del self._pages[key]

    def _insert(self, key: Tuple[str, int], payload: bytes) -> None:
        self._pages[key] = payload
        self._pages.move_to_end(key)
        while len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)


__all__ = ["BufferPool", "DEFAULT_CAPACITY_BYTES", "MAX_READ_RETRIES",
           "fill_page"]
