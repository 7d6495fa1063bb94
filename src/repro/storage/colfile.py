"""Column files: one column stored as compressed blocks on the disk.

C-Store's physical format, reduced to the essentials that matter for the
paper's experiments:

* values live in **position order** (the i-th value belongs to the i-th
  tuple — Section 6.3.1), so positions never need to be stored;
* each 32 KB page holds as many encoded values as fit.  Blocks are
  variable-length in positions: a plain int32 page holds ~8 K values, but
  an RLE page over a sorted column can cover millions of positions — this
  is precisely how the paper's orderdate column shrinks to ~64 KB and why
  flight 1 sees an order-of-magnitude compression win;
* no per-tuple headers — headers would live in their own column.

Reads go through the buffer pool and yield
:class:`~repro.storage.blocks.ArrayBlock` / ``RleBlock`` objects.  When a
block was stored RLE and the caller asks for direct operation, the runs
are returned unexpanded; otherwise decoding charges
``values_decompressed`` for every value expanded from a non-plain codec.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import StorageError
from ..simio.buffer_pool import BufferPool
from ..simio.disk import PAGE_SIZE, SimulatedDisk
from ..synopsis import ColumnSynopsisBuilder
from .blocks import ArrayBlock, Block, RleBlock
from .column import Column, StringDictionary
from .encodings import decode_payload, decode_payload_runs
from .encodings.codec import (Codec, CodecId, decode_payload_at, encoded_size,
                              smallest_encoding)
from .encodings.plain import PLAIN

#: Per-page overhead this module writes before the framed codec payload.
_PAGE_HEADER_BYTES = 8
#: Maximum framed payload per page.
_PAGE_CAPACITY = PAGE_SIZE - _PAGE_HEADER_BYTES
_PLAIN_ID = bytes([CodecId.PLAIN])
_RLE_ID = bytes([CodecId.RLE])
#: A fetch decodes positions one by one while they are fewer than one in
#: this many of their block: extracting one costs about what decoding
#: this many in bulk does (an 8-byte window each, against a shared pass).
_SPARSE_FACTOR = 8


class CompressionLevel(enum.Enum):
    """How aggressively a column file compresses its blocks.

    * ``NONE`` — everything plain; string columns are expanded to their
      full CHAR width (Figure 8's "PJ, No C").
    * ``INT`` — string columns stay as int32 dictionary codes but no
      further compression is applied (Figure 8's "PJ, Int C").
    * ``MAX`` — per-block greedy codec selection over all codecs
      (the C-Store default; Figure 8's "PJ, Max C").
    """

    NONE = "none"
    INT = "int"
    MAX = "max"


class ColumnFile:
    """One column persisted as a sequence of encoded page-blocks."""

    def __init__(
        self,
        disk: SimulatedDisk,
        name: str,
        num_values: int,
        block_starts: np.ndarray,
        dtype: np.dtype,
        dictionary: Optional[StringDictionary],
        level: CompressionLevel,
    ) -> None:
        self.disk = disk
        self.name = name
        self.num_values = num_values
        self.block_starts = block_starts
        self.dtype = dtype
        self.dictionary = dictionary
        self.level = level

    # ------------------------------------------------------------------ #
    # creation
    # ------------------------------------------------------------------ #
    @classmethod
    def load(
        cls,
        disk: SimulatedDisk,
        name: str,
        column: Column,
        level: CompressionLevel = CompressionLevel.MAX,
    ) -> "ColumnFile":
        """Write ``column`` to a new file ``name`` at ``level``."""
        values, dtype, dictionary = cls._physical_values(column, level)
        disk.create(name)
        starts: List[int] = []
        pos = 0
        n = len(values)
        # reserve room for the largest codec framing header (16 bytes)
        max_plain = max(1, (_PAGE_CAPACITY - 16) // dtype.itemsize)
        synopsis = ColumnSynopsisBuilder()
        while pos < n:
            chunk, framed = cls._fill_page(values, pos, max_plain, level)
            starts.append(pos)
            count = len(chunk).to_bytes(_PAGE_HEADER_BYTES, "little")
            disk.append_page(name, count + framed)
            synopsis.add_block(chunk)
            pos += len(chunk)
        synopsis.write(disk, name)
        if n == 0:
            starts.append(0)
            framed = PLAIN.frame(values)
            disk.append_page(name, (0).to_bytes(_PAGE_HEADER_BYTES, "little")
                             + framed)
        return cls(disk, name, n, np.asarray(starts, dtype=np.int64), dtype,
                   dictionary, level)

    @staticmethod
    def _fill_page(
        values: np.ndarray, pos: int, max_plain: int, level: CompressionLevel
    ) -> Tuple[np.ndarray, bytes]:
        """Choose the largest chunk starting at ``pos`` whose encoding fits
        one page, and return (chunk, framed payload)."""
        n = len(values)
        size = min(max_plain, n - pos)
        chunk = values[pos:pos + size]
        codec = ColumnFile._codec_for(chunk, level)
        framed = codec.frame(chunk)
        if len(framed) > _PAGE_CAPACITY:
            raise StorageError(
                f"worst-case block of {len(framed)} bytes exceeds page capacity"
            )
        if level is not CompressionLevel.MAX:
            return chunk, framed
        # grow greedily while the encoding keeps fitting (RLE/dictionary
        # blocks can cover far more positions than the plain worst case);
        # sizes are computed, and only the chunk that is kept is encoded
        while pos + len(chunk) < n:
            grown = values[pos:pos + len(chunk) * 2]
            grown_codec, grown_size = ColumnFile._sized_codec_for(grown, level)
            if grown_size > _PAGE_CAPACITY:
                break
            chunk, codec = grown, grown_codec
        return chunk, framed if len(chunk) == size else codec.frame(chunk)

    @staticmethod
    def _sized_codec_for(chunk: np.ndarray, level: CompressionLevel
                         ) -> Tuple[Codec, int]:
        """The codec ``level`` stores ``chunk`` with, and the framed size."""
        if level is CompressionLevel.MAX and chunk.dtype.kind == "i":
            return smallest_encoding(chunk)
        return PLAIN, encoded_size(PLAIN, chunk)

    @staticmethod
    def _codec_for(chunk: np.ndarray, level: CompressionLevel) -> Codec:
        return ColumnFile._sized_codec_for(chunk, level)[0]

    @staticmethod
    def _physical_values(
        column: Column, level: CompressionLevel
    ) -> Tuple[np.ndarray, np.dtype, Optional[StringDictionary]]:
        """The array actually stored, its dtype, and the dictionary kept
        beside it (None when values are self-describing)."""
        if column.dictionary is None:
            return column.data, column.ctype.numpy_dtype, None
        if level is CompressionLevel.NONE:
            width = column.ctype.width
            decoded = np.asarray(column.dictionary.strings, dtype=f"S{width}")
            return decoded[column.data], np.dtype(f"S{width}"), None
        return column.data, np.dtype(np.int32), column.dictionary

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        return len(self.block_starts)

    @property
    def size_bytes(self) -> int:
        """Occupied whole-page bytes."""
        return self.disk.file(self.name).size_bytes

    @property
    def compressed_payload_bytes(self) -> int:
        """Actual encoded bytes (excluding page slack); the honest number
        for storage-size comparisons like Section 6.2's."""
        return sum(len(p) for p in self.disk.file(self.name).pages)

    def block_for_position(self, position: int) -> int:
        """Block number whose range contains ``position``."""
        if not 0 <= position < max(self.num_values, 1):
            raise StorageError(
                f"position {position} out of range for {self.name!r}"
            )
        return int(np.searchsorted(self.block_starts, position, side="right") - 1)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _parse_page(self, payload: bytes, block_no: int, direct: bool,
                    pool: BufferPool) -> Block:
        start = int(self.block_starts[block_no])
        codec_id = payload[_PAGE_HEADER_BYTES:_PAGE_HEADER_BYTES + 1]
        if direct and codec_id == _RLE_ID:
            run_values, run_lengths = decode_payload_runs(
                payload, _PAGE_HEADER_BYTES)
            return RleBlock(start, run_values, run_lengths)
        data = decode_payload(payload, _PAGE_HEADER_BYTES)
        self._account(payload, block_no, len(data), pool)
        return ArrayBlock(start, data)

    def _account(self, payload: bytes, block_no: int, decoded: int,
                 pool: BufferPool) -> None:
        """Charge the ledger for a block whose codec held ``decoded``
        values — all of them, however few the caller kept, because the
        simulated engine decompresses whole blocks — and check that
        count against the page header."""
        if payload[_PAGE_HEADER_BYTES:_PAGE_HEADER_BYTES + 1] != _PLAIN_ID:
            pool.stats.values_decompressed += decoded
        count = int.from_bytes(payload[:_PAGE_HEADER_BYTES], "little")
        if decoded != count:
            raise StorageError(
                f"block {block_no} of {self.name!r} decoded {decoded} values,"
                f" expected {count}"
            )

    def iter_blocks(
        self,
        pool: BufferPool,
        direct: bool = False,
        first_block: int = 0,
        last_block: Optional[int] = None,
    ) -> Iterator[Block]:
        """Sequentially read blocks ``first_block..last_block`` inclusive."""
        stop = self.num_blocks if last_block is None else last_block + 1
        block_no = first_block
        for payload in pool.scan_pages(self.name, first_block, stop):
            yield self._parse_page(payload, block_no, direct, pool)
            block_no += 1

    def read_block(self, pool: BufferPool, block_no: int,
                   direct: bool = False) -> Block:
        """Random access to one block."""
        payload = pool.read_page(self.name, block_no)
        return self._parse_page(payload, block_no, direct, pool)

    def read_all(self, pool: BufferPool) -> np.ndarray:
        """Decode the whole column into one array (load/verify paths)."""
        parts: List[np.ndarray] = []
        for block in self.iter_blocks(pool):
            parts.append(block.to_array() if isinstance(block, RleBlock)
                         else block.data)
        if not parts:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate(parts)

    def fetch(self, pool: BufferPool, positions: np.ndarray) -> np.ndarray:
        """Values at ``positions`` (sorted ascending), reading only the
        blocks that contain them — the late-materialization fetch.

        Position-ordered block skipping is what makes selective plans
        cheap: a query that survives 0.01% of positions touches a handful
        of pages instead of the whole column.  Within a block, a sparse
        request decodes only the positions asked for; the ledger is
        charged for the whole block either way.
        """
        out = np.empty(len(positions), dtype=self.dtype)
        if len(positions) == 0:
            return out
        # sorted positions: one split at the block starts slices them
        edges = [0] + np.searchsorted(positions, self.block_starts[1:]
                                      ).tolist() + [len(positions)]
        for block_no in range(self.num_blocks):
            low, high = edges[block_no], edges[block_no + 1]
            if low == high:
                continue  # blocks holding no position are never read
            local = positions[low:high] - self.block_starts[block_no]
            out[low:high] = self._fetch_block(pool, block_no, local)
        return out

    def _fetch_block(self, pool: BufferPool, block_no: int,
                     local: np.ndarray) -> np.ndarray:
        """Values at block-relative ascending positions ``local``."""
        payload = pool.read_page(self.name, block_no)
        count = int.from_bytes(payload[:_PAGE_HEADER_BYTES], "little")
        if len(local) * _SPARSE_FACTOR > count:
            return self._parse_page(payload, block_no, False, pool).data[local]
        values, decoded = decode_payload_at(payload, local, _PAGE_HEADER_BYTES)
        self._account(payload, block_no, decoded, pool)
        return values


__all__ = ["ColumnFile", "CompressionLevel"]
