"""Zone-map synopses: per-block min/max sidecars that let scans skip I/O.

Every :class:`~repro.storage.colfile.ColumnFile` and rowstore heap written
through :class:`~repro.storage.heapfile.HeapFile` gets a sidecar file named
``<data file>.zm`` holding, per block (column files) or per page (heaps),
the minimum and maximum stored value — plus, for low-cardinality integer
blocks, a small exact distinct-value set.  These are the "small
materialized aggregates" / zone maps of the columnar-storage literature:
a scan consults them *before* asking the buffer pool for pages, so blocks
whose value range cannot satisfy the predicate cost zero simulated I/O and
zero numpy work.

Design rules, in order of importance:

* **Never wrong, only slower.**  A synopsis is an accelerator, not an
  authority.  If the sidecar is missing, fails its CRC, or describes a
  value domain the predicate does not match, the loader returns ``None``
  (with a :class:`SynopsisWarning` on corruption) and the caller falls
  back to scanning every block.
* **CRC-protected like pages.**  Sidecars are ordinary disk files: each
  page carries a write-time CRC32 in the disk's out-of-band checksum map,
  the fault injector can corrupt them (glob ``*.zm``), and the scrubber
  audits and rebuilds them deterministically from the data pages.
* **Charge-free consultation, visible in the ledger.**  Reading a sidecar
  is modeled as a metadata lookup (the decoded synopsis is cached on the
  owning file object, keyed by the sidecar's page CRCs), so it charges no
  ``pages_read``/``bytes_read``.  What *is* charged: one
  ``synopsis_probes`` tick per block examined (priced by
  ``CostModel.synopsis_probe_seconds``), plus a bookkeeping-only
  ``blocks_skipped`` count — so zone maps can never make the on-mode read
  more pages than the off-mode.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .plan.predicates import Domain, domain_mask, stored_domain
from .simio.disk import PAGE_SIZE

#: Sidecar file suffix: ``lineorder.max.0.quantity`` → ``....quantity.zm``.
SIDECAR_SUFFIX = ".zm"

_MAGIC = b"RZM1"
_KIND_COLUMN = 0
_KIND_HEAP = 1
_VK_INT = 0
_VK_BYTES = 1
#: Keep an exact distinct set only when a block has at most this many
#: distinct values (dictionary/RLE-friendly columns); beyond that the
#: min/max pair is the whole synopsis.
MAX_DISTINCT = 16
_NO_DISTINCT = 0xFFFF

#: files with fewer blocks than this get no sidecar — skipping at most
#: one block can never repay a whole extra page of storage
MIN_SIDECAR_BLOCKS = 2


class SynopsisWarning(UserWarning):
    """A synopsis could not be used (corrupt or undecodable); the scan
    falls back to reading every block.  Results are unaffected."""


def sidecar_name(data_name: str) -> str:
    """Sidecar file name for a data file."""
    return data_name + SIDECAR_SUFFIX


def is_sidecar(name: str) -> bool:
    return name.endswith(SIDECAR_SUFFIX)


# ---------------------------------------------------------------------- #
# builders (write side)
# ---------------------------------------------------------------------- #
class ColumnSynopsisBuilder:
    """Accumulates per-block min/max (+ small distinct sets) for one
    column file, in block order, then serializes to a sidecar blob.

    The builder sees the same decoded value chunks the writer frames into
    pages, so rebuilding from the data pages (the scrubber does this)
    reproduces the blob byte for byte.
    """

    def __init__(self) -> None:
        self._mins: List = []
        self._maxs: List = []
        self._distincts: List[Optional[np.ndarray]] = []
        self._value_kind: Optional[int] = None
        self._width = 0

    @property
    def num_blocks(self) -> int:
        return len(self._mins)

    def add_block(self, chunk: np.ndarray) -> None:
        """Record one block's values (a non-empty 1-D array)."""
        if chunk.dtype.kind in "iu":
            kind, width = _VK_INT, 0
            # one sort serves all three (and is far cheaper than the
            # hashing ``np.unique`` of numpy >= 2.3 on a block)
            ordered = np.sort(chunk)
            lo, hi = int(ordered[0]), int(ordered[-1])
            firsts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            distinct = (ordered[np.concatenate(([0], firsts))].astype(np.int64)
                        if len(firsts) < MAX_DISTINCT else None)
        elif chunk.dtype.kind == "S":
            kind, width = _VK_BYTES, chunk.dtype.itemsize
            values = chunk.tolist()  # trailing NULs stripped, like numpy
            lo, hi = min(values), max(values)
            distinct = None
        else:
            raise TypeError(f"unsupported synopsis dtype {chunk.dtype!r}")
        if self._value_kind is None:
            self._value_kind, self._width = kind, width
        elif (kind, width) != (self._value_kind, self._width):
            raise TypeError("mixed value kinds in one column synopsis")
        self._mins.append(lo)
        self._maxs.append(hi)
        self._distincts.append(distinct)

    def blob(self) -> bytes:
        """Serialize to the deterministic ``RZM1`` column format."""
        vk, width, n = self._value_kind, self._width, self.num_blocks
        parts = [_MAGIC, bytes([_KIND_COLUMN, vk]),
                 struct.pack("<HI", width, n)]
        if vk == _VK_INT:
            parts.append(np.asarray(self._mins, np.int64).tobytes())
            parts.append(np.asarray(self._maxs, np.int64).tobytes())
            for distinct in self._distincts:
                if distinct is None:
                    parts.append(struct.pack("<H", _NO_DISTINCT))
                else:
                    parts.append(struct.pack("<H", len(distinct)))
                    parts.append(distinct.tobytes())
        else:
            parts.append(np.asarray(self._mins, f"S{width}").tobytes())
            parts.append(np.asarray(self._maxs, f"S{width}").tobytes())
        return b"".join(parts)

    def write(self, disk, data_name: str) -> None:
        """Persist the sidecar next to ``data_name``.

        Single-block files get no sidecar: a zone map that can at best
        skip one block is not worth its own 32 KB page, and most small
        dimension/compressed files are exactly one block — without this
        gate the synopsis layer would nearly double their footprint.
        """
        if self.num_blocks >= MIN_SIDECAR_BLOCKS:
            write_sidecar(disk, sidecar_name(data_name), self.blob())


def heap_synopsis_blob(table, fmt) -> Optional[bytes]:
    """Per-page min/max over every field of ``table`` laid out as the
    :class:`~repro.storage.rowpage.RowFormat` ``fmt`` pages it (``None``
    for an empty or single-page heap — see :data:`MIN_SIDECAR_BLOCKS`).
    The record header carries no queryable values and is skipped.

    One reduction per column over the page starts.  A string field
    reduces its dictionary codes and maps them through the bytes its
    records store: codes follow sorted string order, and CHAR(n)
    truncation keeps that order, so a page's extreme codes store its
    extreme bytes.
    """
    total = table.num_rows
    if -(-total // fmt.rows_per_page) < MIN_SIDECAR_BLOCKS:
        return None
    starts = np.arange(0, total, fmt.rows_per_page)
    parts = [_MAGIC, bytes([_KIND_HEAP, 0]),
             struct.pack("<IH", len(starts), len(fmt.schema))]
    for field in fmt.schema:
        column = table.column(field.name)
        extremes = [np.minimum.reduceat(column.data, starts),
                    np.maximum.reduceat(column.data, starts)]
        if column.dictionary is None:
            kind, width = _VK_INT, 0
            extremes = [codes.astype(np.int64) for codes in extremes]
        else:
            stored = fmt.stored_strings(column)
            kind, width = _VK_BYTES, stored.dtype.itemsize
            extremes = [stored[codes] for codes in extremes]
        encoded = field.name.encode("ascii")
        parts.append(struct.pack("<H", len(encoded)) + encoded
                     + bytes([kind]) + struct.pack("<H", width))
        parts.extend(values.tobytes() for values in extremes)
    return b"".join(parts)


def write_sidecar(disk, name: str, blob: bytes) -> None:
    """Write a synopsis blob as an ordinary CRC-mapped disk file."""
    disk.create(name)
    for offset in range(0, len(blob), PAGE_SIZE):
        disk.append_page(name, blob[offset:offset + PAGE_SIZE])


# ---------------------------------------------------------------------- #
# write-epoch stamps
# ---------------------------------------------------------------------- #
#: trailing write-epoch stamp: magic + little-endian uint64 epoch.  The
#: decoders above parse by offset from the front, so the trailer is
#: invisible to them; only the scrubber and the tuple mover look at it.
_STAMP_MAGIC = b"RZME"
_STAMP_BYTES = 12


def stamp_blob(blob: bytes, epoch: int) -> bytes:
    """Append the write-epoch trailer.  Epoch 0 is a no-op so sidecars
    of a never-written store stay byte-identical to builds that predate
    the write path."""
    if epoch <= 0:
        return blob
    return blob + _STAMP_MAGIC + struct.pack("<Q", epoch)


def split_stamp(blob: bytes) -> Tuple[bytes, int]:
    """``(payload without trailer, stamped epoch)`` — epoch 0 when the
    blob carries no trailer."""
    if len(blob) >= _STAMP_BYTES and blob[-_STAMP_BYTES:-8] == _STAMP_MAGIC:
        (epoch,) = struct.unpack("<Q", blob[-8:])
        return blob[:-_STAMP_BYTES], epoch
    return blob, 0


def stamp_sidecars(disk, epoch: int) -> None:
    """Rewrite every sidecar on ``disk`` carrying ``epoch``'s trailer.

    The tuple mover calls this on the shadow disk after a rebuild, so
    the scrubber can tell a sidecar that is *behind a pending delta*
    (stamp older than the store's write epoch) from one that silently
    drifted from its data pages.  Rewrites go through the ordinary page
    path, so the I/O is priced on whatever ledger the disk carries.
    """
    if epoch <= 0:
        return
    for name in disk.files():
        if not is_sidecar(name):
            continue
        payload, _old = split_stamp(b"".join(disk.file(name).pages))
        disk.drop(name)
        write_sidecar(disk, name, stamp_blob(payload, epoch))


def sidecar_epoch(disk, name: str) -> int:
    """The write-epoch stamp of one sidecar file (0 when unstamped)."""
    _payload, epoch = split_stamp(b"".join(disk.file(name).pages))
    return epoch


# ---------------------------------------------------------------------- #
# decoded forms (read side)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ColumnSynopsis:
    """Decoded zone maps for one column file: arrays indexed by block."""

    value_kind: int
    mins: np.ndarray
    maxs: np.ndarray
    #: per-block exact distinct sets (``None`` where cardinality > limit)
    distincts: Tuple[Optional[np.ndarray], ...]


@dataclass(frozen=True)
class _HeapColumn:
    value_kind: int
    mins: np.ndarray
    maxs: np.ndarray


@dataclass(frozen=True)
class HeapSynopsis:
    """Decoded zone maps for one heap file: per-page bounds per column."""

    num_pages: int
    columns: Dict[str, _HeapColumn]


def _decode_column_blob(blob: bytes) -> ColumnSynopsis:
    if blob[:4] != _MAGIC or blob[4] != _KIND_COLUMN:
        raise ValueError("not a column synopsis blob")
    vk = blob[5]
    width, n = struct.unpack_from("<HI", blob, 6)
    offset = 12
    if vk == _VK_INT:
        mins = np.frombuffer(blob, np.int64, n, offset)
        offset += 8 * n
        maxs = np.frombuffer(blob, np.int64, n, offset)
        offset += 8 * n
        distincts: List[Optional[np.ndarray]] = []
        for _ in range(n):
            (count,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            if count == _NO_DISTINCT:
                distincts.append(None)
            else:
                distincts.append(np.frombuffer(blob, np.int64, count, offset))
                offset += 8 * count
    else:
        mins = np.frombuffer(blob, f"S{width}", n, offset)
        offset += width * n
        maxs = np.frombuffer(blob, f"S{width}", n, offset)
        distincts = [None] * n
    return ColumnSynopsis(vk, mins, maxs, tuple(distincts))


def _decode_heap_blob(blob: bytes) -> HeapSynopsis:
    if blob[:4] != _MAGIC or blob[4] != _KIND_HEAP:
        raise ValueError("not a heap synopsis blob")
    num_pages, num_columns = struct.unpack_from("<IH", blob, 6)
    offset = 12
    columns: Dict[str, _HeapColumn] = {}
    for _ in range(num_columns):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset:offset + name_len].decode("ascii")
        offset += name_len
        kind = blob[offset]
        (width,) = struct.unpack_from("<H", blob, offset + 1)
        offset += 3
        dtype = np.dtype(np.int64) if kind == _VK_INT else np.dtype(f"S{width}")
        mins = np.frombuffer(blob, dtype, num_pages, offset)
        offset += dtype.itemsize * num_pages
        maxs = np.frombuffer(blob, dtype, num_pages, offset)
        offset += dtype.itemsize * num_pages
        columns[name] = _HeapColumn(kind, mins, maxs)
    return HeapSynopsis(num_pages, columns)


def _read_verified_blob(disk, name: str):
    """Return ``(cache_key, blob-or-None)`` for a sidecar file.

    The key is the tuple of *computed* CRCs over the stored page images,
    so any mutation of the sidecar — corruption or rebuild — changes the
    key and invalidates cached decodes.  A page whose computed CRC
    disagrees with the write-time map yields ``blob=None`` after a
    :class:`SynopsisWarning`.
    """
    f = disk.file(name)
    computed = tuple(f.crc_of(page_no, payload)
                     for page_no, payload in enumerate(f.pages))
    for page_no, crc in enumerate(computed):
        if crc != disk.expected_checksum(name, page_no) \
                or disk.is_quarantined(name, page_no):
            warnings.warn(SynopsisWarning(
                f"synopsis {name!r} page {page_no} fails verification; "
                "scans fall back to reading every block"), stacklevel=4)
            return computed, None
    return computed, b"".join(f.pages)


def _load(owner, disk, data_name: str, decoder):
    name = sidecar_name(data_name)
    if not disk.exists(name):
        return None
    key, blob = _read_verified_blob(disk, name)
    cached = getattr(owner, "_zm_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    synopsis = None
    if blob is not None:
        try:
            synopsis = decoder(blob)
        except Exception:
            warnings.warn(SynopsisWarning(
                f"synopsis {name!r} is undecodable; scans fall back to "
                "reading every block"), stacklevel=3)
    owner._zm_cache = (key, synopsis)
    return synopsis


def load_column_synopsis(colfile) -> Optional[ColumnSynopsis]:
    """Decoded sidecar for a :class:`ColumnFile`, or ``None`` (missing or
    corrupt — the caller scans every block).  Consultation is modeled as
    a metadata lookup: no I/O counters move; the decode is cached on the
    file object keyed by the sidecar's page CRCs."""
    return _load(colfile, colfile.disk, colfile.name, _decode_column_blob)


def load_heap_synopsis(heap) -> Optional[HeapSynopsis]:
    """Decoded sidecar for a :class:`HeapFile`, or ``None``."""
    return _load(heap, heap.disk, heap.name, _decode_heap_blob)


# ---------------------------------------------------------------------- #
# pruning (read side)
# ---------------------------------------------------------------------- #
def _compatible(synopsis_kind: int, sample) -> bool:
    if synopsis_kind == _VK_INT:
        return isinstance(sample, (int, np.integer))
    return isinstance(sample, (bytes, np.bytes_))


def survivors(mins: np.ndarray, maxs: np.ndarray, domain: Domain
              ) -> np.ndarray:
    """The zone-map survivor test shared by column blocks and heap
    pages: ``True`` where a unit whose values lie in ``[mins, maxs]``
    may hold a value of ``domain`` (an inclusive ``(lo, hi)`` or sorted
    needles, see :func:`~repro.plan.predicates.stored_domain`)."""
    if isinstance(domain, tuple):
        lo, hi = domain
        return ~((maxs < lo) | (mins > hi))
    if len(domain) == 0:
        return np.zeros(len(mins), bool)
    # smallest needle >= the unit's min; the unit overlaps the needle
    # set iff that needle also sits at or below its max
    idx = np.searchsorted(domain, mins)
    clipped = np.minimum(idx, len(domain) - 1)
    return (idx < len(domain)) & (domain[clipped] <= maxs)


def prune_blocks(synopsis: ColumnSynopsis, first: int, last: int,
                 domain: Domain) -> Optional[np.ndarray]:
    """Survivor mask over blocks ``first..last`` (inclusive), or ``None``
    when the synopsis cannot be applied (value-domain mismatch).  A
    ``True`` entry means the block *may* contain qualifying values and
    must be read."""
    samples = domain if isinstance(domain, tuple) else domain[:1]
    if not all(_compatible(synopsis.value_kind, v) for v in samples):
        return None
    mask = survivors(synopsis.mins[first:last + 1],
                     synopsis.maxs[first:last + 1], domain)
    # exact refinement where a block recorded its full distinct set
    for i in np.flatnonzero(mask):
        distinct = synopsis.distincts[first + i]
        if distinct is not None and not domain_mask(distinct, domain).any():
            mask[i] = False
    return mask


def heap_page_mask(synopsis: HeapSynopsis,
                   predicates: Sequence) -> np.ndarray:
    """AND of per-predicate page masks; pages where every predicate may
    match."""
    mask = np.ones(synopsis.num_pages, bool)
    for pred in predicates:
        column = synopsis.columns.get(pred.column)
        if column is not None:
            mask &= survivors(column.mins, column.maxs,
                              stored_domain(pred, column.mins.dtype))
    return mask


def mask_runs(mask: np.ndarray, base: int = 0) -> List[Tuple[int, int]]:
    """Surviving index runs as inclusive ``(first, last)`` pairs, offset
    by ``base`` — the unit of sequential I/O after pruning."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [(base + int(idx[s]), base + int(idx[e]))
            for s, e in zip(starts, ends)]


__all__ = [
    "SIDECAR_SUFFIX", "MAX_DISTINCT", "SynopsisWarning", "sidecar_name",
    "is_sidecar", "ColumnSynopsisBuilder", "heap_synopsis_blob",
    "write_sidecar", "ColumnSynopsis", "HeapSynopsis",
    "load_column_synopsis", "load_heap_synopsis", "survivors",
    "prune_blocks", "heap_page_mask", "mask_runs",
    "stamp_blob", "split_stamp", "stamp_sidecars", "sidecar_epoch",
]
