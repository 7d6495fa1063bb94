"""Delta encoding: first value plus zig-zag-coded, bit-packed deltas.

Effective on sorted or near-sorted integer columns whose consecutive
differences are small — e.g. the position column of a sorted projection,
or a datekey column within one partition.
"""

from __future__ import annotations

import struct

import numpy as np

from ...errors import EncodingError
from .codec import (BlockStats, Codec, CodecId, pack_dtype, register,
                    unpack_dtype, unpack_header)
from .bitpack import bits_needed, pack_bits, packed_bytes, unpack_bits


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed to unsigned so small magnitudes stay small.

    0→0, -1→1, 1→2, -2→3, ... — the classic varint-friendly mapping.
    """
    v = values.astype(np.int64, copy=False)
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    v = values.astype(np.uint64, copy=False)
    return ((v >> np.uint64(1)) ^ -(v & np.uint64(1))).view(np.int64)


class DeltaCodec(Codec):
    """First value verbatim; remaining values as packed zig-zag deltas."""

    codec_id = CodecId.DELTA
    name = "delta"
    _HEADER = struct.Struct("<IqB")

    def can_encode(self, values: np.ndarray) -> bool:
        return values.dtype.kind == "i"

    def encode(self, values: np.ndarray) -> bytes:
        if not self.can_encode(values):
            raise EncodingError(f"delta codec cannot encode dtype {values.dtype}")
        count = len(values)
        first = int(values[0]) if count else 0
        bits, packed = bits_needed(0), b""
        if count > 1:
            wide = values.astype(np.int64, copy=False)
            deltas = zigzag(wide[1:] - wide[:-1])
            bits = bits_needed(int(deltas.max()))
            packed = pack_bits(deltas, bits)
        header = (
            pack_dtype(values.dtype)
            + self._HEADER.pack(count, first, bits)
        )
        return header + packed

    def encoded_size(self, stats: BlockStats) -> int:
        # zig-zag grows with magnitude on either side of zero, so the
        # widest delta is the smallest or the largest one
        widest = max(2 * delta if delta >= 0 else -2 * delta - 1
                     for delta in stats.delta_range)
        return (stats.tag_bytes + self._HEADER.size
                + packed_bytes(max(stats.count - 1, 0), bits_needed(widest)))

    def decode(self, payload: bytes, offset: int = 0) -> np.ndarray:
        dtype, offset = unpack_dtype(payload, offset)
        count, first, bits = unpack_header(self._HEADER, payload, offset)
        offset += self._HEADER.size
        if count == 0:
            return np.zeros(0, dtype=dtype)
        out = np.empty(count, dtype=np.int64)
        out[0] = first
        if count > 1:
            out[1:] = unzigzag(unpack_bits(payload, count - 1, bits,
                                           offset=offset))
            out.cumsum(out=out)
        return out.astype(dtype, copy=False)


DELTA = register(DeltaCodec())

__all__ = ["DeltaCodec", "DELTA", "zigzag", "unzigzag"]
