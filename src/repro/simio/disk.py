"""A simulated disk that stores real page images and accounts every read.

The disk is a dictionary of named files, each an append-only list of page
byte strings (pages are 32 KB, matching the paper's System X configuration).
Reads return the actual stored bytes — storage formats above this layer
round-trip real data — while the disk charges the active
:class:`~repro.simio.stats.QueryStats` ledger for bytes transferred and for
seeks whenever an access is not sequential with the previous access to the
same device.

The accounting model mirrors a striped 4-disk volume treated as one logical
device: sequential runs are charged pure transfer time; every discontinuity
costs one seek.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import StorageError, TransientIOError
from .stats import NUM_STRIPE_DISKS, QueryStats

#: Page size used throughout (the paper's System X uses 32 KB pages).
PAGE_SIZE = 32 * 1024


def page_checksum(payload: bytes) -> int:
    """Checksum of one page image (CRC32, stored out of band).

    Kept in a per-file map beside the pages rather than inside them, so
    on-disk page formats — and every size/cost number derived from them —
    are unchanged by the integrity layer.
    """
    return zlib.crc32(payload) & 0xFFFFFFFF


def stripe_of(page_no: int) -> int:
    """Which member drive of the 4-disk stripe holds this page."""
    return page_no % NUM_STRIPE_DISKS


class DiskFile:
    """One named file on the simulated disk: an append-only page list."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.pages: List[bytes] = []
        #: per-page CRC32 recorded at write time, parallel to ``pages``
        self.checksums: List[int] = []
        # the image each write stored, parallel to ``pages`` (None for a
        # mutable image, which may change under us): exact ``bytes`` are
        # immutable, so a read handed that very object again needs no
        # second hash (see :meth:`crc_of`)
        self._written: List[Optional[bytes]] = []

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def size_bytes(self) -> int:
        """Occupied size: whole pages are charged even if partly filled."""
        return len(self.pages) * PAGE_SIZE

    def crc_of(self, page_no: int, image: bytes) -> int:
        """``page_checksum(image)``, hashed only when ``image`` is not the
        object the last write to ``page_no`` stored.

        Exact: the same object holds the same bytes, and anything that alters a
        stored image (fault injection, truncation, a direct assignment)
        puts a new object in ``pages``, which is hashed like any other.
        """
        if self._written[page_no] is image:
            return self.checksums[page_no]
        return page_checksum(image)

    def written_image(self, page_no: int) -> Optional[bytes]:
        """Page ``page_no``'s image if it is the very object the last
        write stored (it matches its CRC unhashed), else None."""
        image = self.pages[page_no]
        return image if self._written[page_no] is image else None

    def _store(self, page_no: int, payload: bytes) -> None:
        """Store ``payload`` as page ``page_no`` (one past the end
        appends) with its write-time CRC."""
        trusted = payload if type(payload) is bytes else None
        if page_no == len(self.pages):
            self.pages.append(payload)
            self.checksums.append(page_checksum(payload))
            self._written.append(trusted)
        else:
            self.pages[page_no] = payload
            self.checksums[page_no] = page_checksum(payload)
            self._written[page_no] = trusted

    def truncate(self, start: int, stop: Optional[int] = None) -> None:
        """Drop pages ``start..stop`` (to the end when ``stop`` is None).

        A tail drop (``start > 0``) or a prefix drop (``start == 0``):
        either way the pages, their CRCs and the remembered images move
        together, so every later page is renumbered consistently.
        """
        del self.pages[start:stop]
        del self.checksums[start:stop]
        del self._written[start:stop]


class SimulatedDisk:
    """Named page files plus an I/O ledger.

    The ``stats`` attribute is the active ledger; the benchmark harness
    swaps in a fresh :class:`QueryStats` before each measured query so
    per-query I/O is isolated.
    """

    def __init__(self, stats: Optional[QueryStats] = None) -> None:
        self.stats = stats if stats is not None else QueryStats()
        self._files: Dict[str, DiskFile] = {}
        #: optional :class:`~repro.simio.faults.FaultInjector` (duck-typed
        #: to avoid an import cycle); ``None`` means a perfect disk
        self.fault_injector = None
        #: optional :class:`~repro.serve.resilience.CancellationToken`
        #: (duck-typed) installed by the query service for the duration
        #: of one engine execution; checked before every page access so
        #: cancellation lands at page boundaries with the partial ledger
        #: intact
        self.cancellation = None
        #: pages fenced off after persistent checksum failure
        self._quarantined: Set[Tuple[str, int]] = set()
        # (file name, page number) of the most recent physical access, used
        # to decide whether the next access is sequential.
        self._head: Optional[Tuple[str, int]] = None
        # Page i of a file lives on stripe disk i mod 4; each drive has
        # its own arm, tracked as (file name, local page number).  A
        # sequential logical run is sequential on every member drive,
        # so the whole stripe pays one positioning per drive per stream.
        self._stripe_heads: List[Optional[Tuple[str, int]]] = \
            [None] * NUM_STRIPE_DISKS

    # ------------------------------------------------------------------ #
    # file management
    # ------------------------------------------------------------------ #
    def create(self, name: str) -> DiskFile:
        """Create an empty file; error if it already exists."""
        if name in self._files:
            raise StorageError(f"file {name!r} already exists")
        f = DiskFile(name)
        self._files[name] = f
        return f

    def drop(self, name: str) -> None:
        """Remove a file (used when rebuilding physical designs)."""
        self._files.pop(name, None)
        self._quarantined = {key for key in self._quarantined
                             if key[0] != name}

    def file(self, name: str) -> DiskFile:
        """Look up a file; raise :class:`StorageError` if absent."""
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no file named {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def files(self) -> List[str]:
        """Names of all files, sorted for reproducibility."""
        return sorted(self._files)

    @property
    def total_bytes(self) -> int:
        """Total occupied bytes across all files."""
        return sum(f.size_bytes for f in self._files.values())

    # ------------------------------------------------------------------ #
    # page I/O
    # ------------------------------------------------------------------ #
    def append_page(self, name: str, payload: bytes) -> int:
        """Append a page to ``name`` and return its page number.

        The payload must fit in one page; short payloads occupy (and are
        charged as) a full page, like any block device.
        """
        if len(payload) > PAGE_SIZE:
            raise StorageError(
                f"payload of {len(payload)} bytes exceeds page size {PAGE_SIZE}"
            )
        f = self.file(name)
        inj = self.fault_injector
        if inj is not None and getattr(inj, "take_write_fault", None) \
                is not None and inj.take_write_fault(name, f.num_pages):
            # the failed attempt wrote nothing durable; the caller owns
            # the retry loop (and its backoff charges)
            raise TransientIOError(name, f.num_pages)
        f._store(f.num_pages, payload)
        self.stats.bytes_written += PAGE_SIZE
        return f.num_pages - 1

    def rewrite_page(self, name: str, page_no: int, payload: bytes,
                     charge: bool = False) -> None:
        """Replace a page in place, refreshing its stored checksum.

        The two legitimate in-place writers — the B-tree leaf patcher and
        the scrubber's repair path — go through here so the checksum map
        stays consistent.  ``charge=True`` bills the write to the ledger
        (repairs are real I/O; structural patches during load are not
        part of any measured query).
        """
        if len(payload) > PAGE_SIZE:
            raise StorageError(
                f"payload of {len(payload)} bytes exceeds page size {PAGE_SIZE}"
            )
        f = self.file(name)
        if not 0 <= page_no < f.num_pages:
            raise StorageError(
                f"page {page_no} out of range for {name!r} ({f.num_pages} pages)"
            )
        f._store(page_no, payload)
        if charge:
            self.stats.bytes_written += PAGE_SIZE

    def read_page(self, name: str, page_no: int) -> bytes:
        """Read one page, charging transfer bytes and a seek if random."""
        if self.cancellation is not None:
            self.cancellation.check(self.stats)
        f = self.file(name)
        if not 0 <= page_no < f.num_pages:
            raise StorageError(
                f"page {page_no} out of range for {name!r} ({f.num_pages} pages)"
            )
        self._charge(name, page_no)
        inj = self.fault_injector
        if inj is not None and inj.take_transient(name, page_no):
            raise TransientIOError(name, page_no)
        return f.pages[page_no]

    def scan_pages(
        self, name: str, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[bytes]:
        """Yield pages ``start..stop`` sequentially (one seek total)."""
        f = self.file(name)
        end = f.num_pages if stop is None else min(stop, f.num_pages)
        for page_no in range(start, end):
            self._charge(name, page_no)
            yield f.pages[page_no]

    def _charge(self, name: str, page_no: int) -> None:
        if self._head != (name, page_no):
            self.stats.seeks += 1
        self.stats.bytes_read += PAGE_SIZE
        self.stats.pages_read += 1
        self._head = (name, page_no + 1)
        disk_no = page_no % NUM_STRIPE_DISKS
        local = page_no // NUM_STRIPE_DISKS
        seek = self._stripe_heads[disk_no] != (name, local)
        self.stats.charge_stripe_read(disk_no, PAGE_SIZE, seek)
        self._stripe_heads[disk_no] = (name, local + 1)

    def reset_head(self) -> None:
        """Forget head position (e.g. between queries)."""
        self._head = None
        self._stripe_heads = [None] * NUM_STRIPE_DISKS

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #
    def expected_checksum(self, name: str, page_no: int) -> int:
        """The CRC recorded when the page was written."""
        f = self.file(name)
        if not 0 <= page_no < f.num_pages:
            raise StorageError(
                f"page {page_no} out of range for {name!r} ({f.num_pages} pages)"
            )
        return f.checksums[page_no]

    def verify_page(self, name: str, page_no: int,
                    payload: Optional[bytes] = None) -> bool:
        """Does the (given or stored) page image match its write-time CRC?"""
        expected = self.expected_checksum(name, page_no)
        f = self.file(name)
        if payload is None:
            payload = f.pages[page_no]
        return f.crc_of(page_no, payload) == expected

    def quarantine(self, name: str, page_no: int) -> None:
        """Fence off a persistently corrupt page: all further reads fail
        fast with :class:`~repro.errors.ChecksumError` instead of
        re-reading garbage."""
        self._quarantined.add((name, page_no))

    def unquarantine(self, name: str, page_no: int) -> None:
        """Lift the fence (after the scrubber repaired the page)."""
        self._quarantined.discard((name, page_no))

    def is_quarantined(self, name: str, page_no: int) -> bool:
        return (name, page_no) in self._quarantined

    def quarantined_pages(self) -> List[Tuple[str, int]]:
        """All fenced pages, sorted for reproducibility."""
        return sorted(self._quarantined)


__all__ = ["SimulatedDisk", "DiskFile", "PAGE_SIZE", "page_checksum",
           "stripe_of"]
