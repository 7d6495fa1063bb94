"""Codec base class, payload framing, registry, and auto-selection.

Every codec turns a 1-D numpy array into ``bytes`` and back.  Payloads are
self-describing: the first byte is the :class:`CodecId`, so a column file
can mix codecs block-by-block (a block of a mostly-sorted column may be
RLE while its neighbour is bit-packed).

Codecs are stateless singletons; per-payload parameters (dtype, bit width,
dictionary) live inside the payload itself.
"""

from __future__ import annotations

import abc
import enum
import struct
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import EncodingError

_DTYPE_CODES = {
    "i4": b"I",
    "i8": b"L",
}
_CODE_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_CODES.items()}


def pack_dtype(dtype: np.dtype) -> bytes:
    """One-byte tag for a supported dtype (int32/int64/fixed bytes)."""
    if dtype.kind == "S":
        # 'S' + 2-byte width
        return b"S" + struct.pack("<H", dtype.itemsize)
    key = f"{dtype.kind}{dtype.itemsize}"
    try:
        return _DTYPE_CODES[key]
    except KeyError:
        raise EncodingError(f"unsupported dtype {dtype}") from None


def unpack_header(layout: struct.Struct, payload: bytes, offset: int) -> tuple:
    """``layout.unpack_from`` that reports a short payload as corrupt."""
    try:
        return layout.unpack_from(payload, offset)
    except struct.error:
        raise EncodingError(
            f"payload header truncated: want {layout.size} bytes at {offset},"
            f" have {max(len(payload) - offset, 0)}"
        ) from None


def check_positions(positions: np.ndarray, count: int) -> int:
    """Refuse block-relative ``positions`` outside ``[0, count)``;
    returns the highest of them (-1 for none)."""
    highest = int(positions.max()) if len(positions) else -1
    if len(positions) and (positions.min() < 0 or highest >= count):
        raise EncodingError(
            f"position outside the block's {count} values")
    return highest


_STRING_WIDTH = struct.Struct("<H")


def unpack_dtype(payload: bytes, offset: int) -> Tuple[np.dtype, int]:
    """Inverse of :func:`pack_dtype`; returns (dtype, new offset)."""
    tag = payload[offset:offset + 1]
    if tag == b"S":
        (width,) = unpack_header(_STRING_WIDTH, payload, offset + 1)
        return np.dtype(f"S{width}"), offset + 3
    try:
        return _CODE_DTYPES[tag], offset + 1
    except KeyError:
        raise EncodingError(f"unknown dtype tag {tag!r}") from None


class CodecId(enum.IntEnum):
    """Stable on-disk identifiers for each codec."""

    PLAIN = 0
    RLE = 1
    BITPACK = 2
    DELTA = 3
    DICTIONARY = 4


class BlockStats:
    """Statistics of one block of values, each computed at most once.

    Every codec's :meth:`Codec.encoded_size` is a closed form over these,
    so choosing among codecs costs one pass per statistic instead of one
    encoding per codec.
    """

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.count = len(values)
        #: bytes per value at the natural width
        self.width = values.dtype.itemsize

    @cached_property
    def tag_bytes(self) -> int:
        """Length of the dtype tag every codec header starts with."""
        return len(pack_dtype(self.values.dtype))

    @cached_property
    def max(self) -> int:
        return int(self.values.max()) if self.count else 0

    @cached_property
    def runs(self) -> int:
        """Number of maximal runs of equal adjacent values."""
        if self.count == 0:
            return 0
        values = self.values
        return 1 + int(np.count_nonzero(values[1:] != values[:-1]))

    @cached_property
    def distinct(self) -> int:
        # a sort and a pass: ``np.unique`` hashes on numpy >= 2.3, which
        # on block-sized arrays costs ten times the sort it replaced
        if self.count == 0:
            return 0
        ordered = np.sort(self.values)
        return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))

    @cached_property
    def delta_range(self) -> Tuple[int, int]:
        """(min, max) of the adjacent differences taken in wrapping int64
        arithmetic; (0, 0) for fewer than two values."""
        if self.count < 2:
            return 0, 0
        deltas = np.diff(self.values.astype(np.int64, copy=False))
        return int(deltas.min()), int(deltas.max())


class Codec(abc.ABC):
    """A compression scheme for one block of column values."""

    codec_id: CodecId
    name: str

    @abc.abstractmethod
    def encode(self, values: np.ndarray) -> bytes:
        """Encode ``values`` (excluding the codec-id framing byte)."""

    @abc.abstractmethod
    def encoded_size(self, stats: BlockStats) -> int:
        """``len(self.encode(stats.values))``, computed from ``stats``."""

    @abc.abstractmethod
    def decode(self, payload: bytes, offset: int = 0) -> np.ndarray:
        """Decode what :meth:`encode` produced, found at
        ``payload[offset:]``."""

    def decode_at(self, payload: bytes, positions: np.ndarray,
                  offset: int = 0) -> Tuple[np.ndarray, int]:
        """``(decode(...)[positions], number of encoded values)``.
        Codecs whose layout is addressable override this to leave the
        other values undecoded."""
        values = self.decode(payload, offset)
        return values[positions], len(values)

    def can_encode(self, values: np.ndarray) -> bool:
        """Whether this codec applies to ``values`` at all."""
        return True

    def frame(self, values: np.ndarray) -> bytes:
        """Encode with the one-byte codec-id prefix used in column files."""
        return bytes([int(self.codec_id)]) + self.encode(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<codec {self.name}>"


_REGISTRY: Dict[int, Codec] = {}


def register(codec: Codec) -> Codec:
    """Add a codec singleton to the registry (module import side effect)."""
    _REGISTRY[int(codec.codec_id)] = codec
    return codec


def codec_by_id(codec_id: int) -> Codec:
    """Look up the codec for a framed payload's first byte."""
    try:
        return _REGISTRY[codec_id]
    except KeyError:
        raise EncodingError(f"unknown codec id {codec_id}") from None


def _codec_of(framed: bytes, offset: int) -> Codec:
    if len(framed) <= offset:
        raise EncodingError("empty payload")
    return codec_by_id(framed[offset])


def decode_payload(framed: bytes, offset: int = 0) -> np.ndarray:
    """Decode the framed payload (codec id byte + codec payload) at
    ``framed[offset:]``."""
    return _codec_of(framed, offset).decode(framed, offset + 1)


def decode_payload_at(framed: bytes, positions: np.ndarray, offset: int = 0
                      ) -> Tuple[np.ndarray, int]:
    """The values at ``positions`` of the framed payload at
    ``framed[offset:]``, and how many values the payload holds."""
    return _codec_of(framed, offset).decode_at(framed, positions, offset + 1)


def decode_payload_runs(framed: bytes, offset: int = 0
                        ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """If the payload is RLE, return (run_values, run_lengths) without
    expanding; otherwise None.  This is the hook for direct operation on
    compressed data."""
    runs = getattr(_codec_of(framed, offset), "decode_runs", None)
    if runs is None:
        return None
    return runs(framed, offset + 1)


def encoded_size(codec: Codec, values: np.ndarray) -> int:
    """Framed byte size of ``values`` under ``codec``:
    ``len(codec.frame(values))`` without producing the frame."""
    if not codec.can_encode(values):
        raise EncodingError(f"{codec.name} codec cannot encode these values")
    return 1 + codec.encoded_size(BlockStats(values))


def smallest_encoding(values: np.ndarray,
                      candidates: Optional[Tuple[Codec, ...]] = None
                      ) -> Tuple[Codec, int]:
    """The codec with the smallest framed output for ``values`` and that
    size; the first candidate wins a tie."""
    from .plain import PLAIN
    from .rle import RLE
    from .bitpack import BITPACK
    from .delta import DELTA
    from .dictionary import DICTIONARY

    if candidates is None:
        candidates = (PLAIN, RLE, BITPACK, DELTA, DICTIONARY)
    stats = BlockStats(values)
    best: Optional[Codec] = None
    best_size = 0
    for codec in candidates:
        if not codec.can_encode(values):
            continue
        size = 1 + codec.encoded_size(stats)
        if best is None or size < best_size:
            best, best_size = codec, size
    if best is None:
        raise EncodingError(f"no codec can encode dtype {values.dtype}")
    return best, best_size


def choose_codec(values: np.ndarray, candidates: Optional[Tuple[Codec, ...]] = None
                 ) -> Codec:
    """Pick the codec with the smallest framed output for ``values``.

    This is the load-time greedy selection C-Store performs per column
    block.  Sizes are exact and computed, not measured: see
    :meth:`Codec.encoded_size`.
    """
    return smallest_encoding(values, candidates)[0]


__all__ = [
    "Codec",
    "CodecId",
    "register",
    "codec_by_id",
    "decode_payload",
    "decode_payload_at",
    "decode_payload_runs",
    "BlockStats",
    "encoded_size",
    "smallest_encoding",
    "choose_codec",
    "pack_dtype",
    "unpack_dtype",
    "unpack_header",
    "check_positions",
]
