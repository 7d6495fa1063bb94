"""Plain (uncompressed) codec: values verbatim at their natural width.

Also the only codec that handles fixed-width byte strings (``S<n>``
dtypes), which the column engine uses when compression is disabled and
string columns must be stored expanded, exactly as a row store would keep
CHAR(n) fields.
"""

from __future__ import annotations

import struct

import numpy as np

from ...errors import EncodingError
from .codec import (BlockStats, Codec, CodecId, pack_dtype, register,
                    unpack_dtype, unpack_header)


class PlainCodec(Codec):
    """Raw little-endian array bytes, prefixed with dtype and count."""

    codec_id = CodecId.PLAIN
    name = "plain"
    _HEADER = struct.Struct("<I")

    def can_encode(self, values: np.ndarray) -> bool:
        return values.dtype.kind in ("i", "S")

    def encode(self, values: np.ndarray) -> bytes:
        if not self.can_encode(values):
            raise EncodingError(f"plain codec cannot encode dtype {values.dtype}")
        header = pack_dtype(values.dtype) + self._HEADER.pack(len(values))
        return header + np.ascontiguousarray(values).tobytes()

    def encoded_size(self, stats: BlockStats) -> int:
        return (stats.tag_bytes + self._HEADER.size
                + stats.count * stats.width)

    def decode(self, payload: bytes, offset: int = 0) -> np.ndarray:
        dtype, offset = unpack_dtype(payload, offset)
        (count,) = unpack_header(self._HEADER, payload, offset)
        offset += self._HEADER.size
        expected = count * dtype.itemsize
        # the copy gives the values an aligned buffer of their own: a
        # view at this odd offset would slow every operator downstream
        body = payload[offset:offset + expected]
        if len(body) != expected:
            raise EncodingError(
                f"plain payload truncated: want {expected} bytes, have {len(body)}"
            )
        return np.frombuffer(body, dtype=dtype, count=count)


PLAIN = register(PlainCodec())

__all__ = ["PlainCodec", "PLAIN"]
