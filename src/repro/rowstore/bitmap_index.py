"""Bitmap indexes, stored as compressed rid lists.

System X's bitmap plans (the paper's "traditional (bitmap)" configuration)
map each distinct column value to the set of rids holding it.  Like
modern word-aligned-hybrid bitmap implementations, the per-value bitmap is
kept compressed; an equality predicate reads one value's rid set, a range
or IN predicate ORs several, and conjunction intersects rid sets from
different columns.

Physical layout: each value's rid list is delta + bit-packed (ascending
rids compress well), all blobs are packed back-to-back into 32 KB pages,
and an in-memory directory maps value -> (byte offset, length).  Reading
a value's rid set reads exactly the pages its blob spans, so sparse
probes cost a page or two while ORing many values degrades toward a full
index scan — the behaviour behind the paper's observation that "merging
bitmaps adds some overhead and bitmap scans can be slower than pure
sequential scans" (Section 6.2.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..errors import EncodingError, StorageError
from ..simio.buffer_pool import BufferPool
from ..simio.disk import PAGE_SIZE, SimulatedDisk
from ..storage.encodings.delta import decode_stream, encode_frames


class BitmapIndex:
    """value -> compressed rid set, for one column of one table."""

    def __init__(self, disk: SimulatedDisk, name: str,
                 directory: Dict[int, Tuple[int, int]], num_rows: int) -> None:
        self.disk = disk
        self.name = name
        self.directory = directory
        self.num_rows = num_rows
        # the directory as arrays, by value: value, blob offset and length
        values = np.fromiter(directory, np.int64, len(directory))
        order = np.argsort(values)
        self._values = values[order]
        self._blobs = np.array(list(directory.values()),
                               dtype=np.int64).reshape(-1, 2)[order]

    @classmethod
    def build(cls, disk: SimulatedDisk, name: str, values: np.ndarray
              ) -> "BitmapIndex":
        """Index ``values`` (row i holds values[i]); values are raw codes."""
        # a stable sort keeps each value's rids ascending
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_values))
                                 + 1))
        counts = np.diff(starts, append=len(values))
        frames = encode_frames(order.astype(np.int64), counts)
        lengths = np.fromiter(map(len, frames), np.int64, len(frames))
        offsets = np.cumsum(lengths) - lengths
        directory: Dict[int, Tuple[int, int]] = dict(zip(
            sorted_values[starts].tolist(),
            zip(offsets.tolist(), lengths.tolist())))
        disk.create(name)
        buffer = b"".join(frames)
        for start in range(0, max(len(buffer), 1), PAGE_SIZE):
            disk.append_page(name, buffer[start:start + PAGE_SIZE])
        return cls(disk, name, directory, len(values))

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def size_bytes(self) -> int:
        return self.disk.file(self.name).size_bytes

    @property
    def num_values(self) -> int:
        return len(self.directory)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _entries(self, values: Iterable[int]) -> np.ndarray:
        """Directory entries of the distinct ``values`` present, in the
        order each first appears."""
        values = np.fromiter(values, np.int64) if not isinstance(
            values, np.ndarray) else values.astype(np.int64, copy=False)
        distinct, first = np.unique(values, return_index=True)
        entries = np.searchsorted(self._values, distinct)
        present = entries < len(self._values)
        present[present] = self._values[entries[present]] == distinct[present]
        return entries[present][np.argsort(first[present])]

    def _read_lists(self, pool: BufferPool, entries: np.ndarray
                    ) -> np.ndarray:
        """The rid lists of directory ``entries`` back to back, each
        ascending.

        The pages are requested in the order an entry-by-entry read asks
        for them, but each run of repeats of one page is a single pool
        visit.  The distinct pages are joined once, in page order, so a
        blob that straddles pages is contiguous there too, and every list
        is decoded out of that one stream at once.
        """
        offsets, lengths = self._blobs[entries].T
        firsts = offsets // PAGE_SIZE
        spans = (offsets + lengths - 1) // PAGE_SIZE - firsts + 1
        # the page sequence of the per-entry requests, then its runs
        seq = np.repeat(firsts - np.cumsum(spans) + spans, spans) \
            + np.arange(int(spans.sum()))
        runs = np.flatnonzero(np.diff(seq, prepend=-1))
        times = np.diff(runs, append=len(seq))
        pages = {p: pool.read_page(self.name, p, n)
                 for p, n in zip(seq[runs].tolist(), times.tolist())}
        # only the file's last page is short, and it sorts last
        held = np.array(sorted(pages), dtype=np.int64)
        stream = b"".join([pages[p] for p in held.tolist()] + [bytes(8)])
        at = np.searchsorted(held, firsts) * PAGE_SIZE + offsets % PAGE_SIZE
        rids = decode_stream(stream, at, lengths)
        pool.stats.values_decompressed += len(rids)
        return rids

    def read_rids(self, pool: BufferPool, value: int) -> np.ndarray:
        """The ascending rid set for one value (empty if absent)."""
        return self._read_lists(pool, self._entries([int(value)]))

    def read_union(self, pool: BufferPool, values: Iterable[int]
                   ) -> np.ndarray:
        """OR together the rid sets of ``values`` (result ascending).

        Charges one position op per rid merged, the bitmap-merge overhead
        the paper calls out.  OR is a set union, so a value listed twice
        is read once.  Each rid holds one value, so the lists are
        disjoint: they are set in one boolean map over the table's rows,
        and a rid outside it, or one set twice, is a corrupt list.
        """
        rids = self._read_lists(pool, self._entries(values))
        if (rids.view(np.uint64) >= self.num_rows).any():
            raise EncodingError(
                f"bitmap {self.name!r} holds a rid outside its "
                f"{self.num_rows} rows")
        members = np.zeros(self.num_rows, dtype=bool)
        members[rids] = True
        merged = np.flatnonzero(members)
        if len(merged) != len(rids):
            raise EncodingError(
                f"bitmap {self.name!r} holds a rid under two values")
        pool.stats.position_ops += len(merged)
        return merged

    def read_range(self, pool: BufferPool, low: int, high: int
                   ) -> np.ndarray:
        """OR of every value in [low, high] that exists in the directory."""
        inside = (self._values >= low) & (self._values <= high)
        return self.read_union(pool, self._values[inside])


def intersect_rid_sets(pool: BufferPool, rid_sets: Sequence[np.ndarray]
                       ) -> np.ndarray:
    """AND rid sets from different columns (all ascending).

    Charges a position op per element inspected, mirroring bitmap AND
    cost.
    """
    if not rid_sets:
        raise StorageError("intersect of zero rid sets")
    result = rid_sets[0]
    for other in rid_sets[1:]:
        pool.stats.position_ops += len(result) + len(other)
        # both ascending and duplicate-free: a membership test keeps that
        result = result[np.isin(result, other, kind="table")]
    return result


__all__ = ["BitmapIndex", "intersect_rid_sets"]
