"""Per-block dictionary encoding: distinct values + packed indices.

Complementary to the table-level string dictionaries in
:mod:`repro.storage.column`: this codec works on any integer block with
few distinct values (e.g. a nation-code column inside the denormalized
fact table of Figure 8), storing the distinct values once and bit-packing
an index per row.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from ...errors import EncodingError
from .codec import (BlockStats, Codec, CodecId, pack_dtype, register,
                    unpack_dtype, unpack_header)
from .bitpack import (bits_needed, extract_bits, pack_bits, packed_bytes,
                      unpack_bits)


class DictionaryCodec(Codec):
    """Distinct-value table plus bit-packed per-row indices."""

    codec_id = CodecId.DICTIONARY
    name = "dictionary"
    _HEADER = struct.Struct("<IIB")

    def can_encode(self, values: np.ndarray) -> bool:
        return values.dtype.kind == "i"

    def encode(self, values: np.ndarray) -> bytes:
        if not self.can_encode(values):
            raise EncodingError(
                f"dictionary codec cannot encode dtype {values.dtype}"
            )
        distinct, indices = np.unique(values, return_inverse=True)
        bits = bits_needed(max(len(distinct) - 1, 0))
        header = (
            pack_dtype(values.dtype)
            + self._HEADER.pack(len(values), len(distinct), bits)
        )
        return (
            header
            + np.ascontiguousarray(distinct).tobytes()
            + pack_bits(indices, bits)
        )

    def encoded_size(self, stats: BlockStats) -> int:
        distinct = stats.distinct
        return (stats.tag_bytes + self._HEADER.size + distinct * stats.width
                + packed_bytes(stats.count, bits_needed(max(distinct - 1, 0))))

    def _parse(self, payload: bytes, offset: int):
        """(distinct values, index count, index width, index offset)."""
        dtype, offset = unpack_dtype(payload, offset)
        count, ndistinct, bits = unpack_header(self._HEADER, payload, offset)
        offset += self._HEADER.size
        indices_at = offset + ndistinct * dtype.itemsize
        if len(payload) < indices_at:
            raise EncodingError(
                f"dictionary payload truncated: want {indices_at - offset}"
                f" bytes of values, have {max(len(payload) - offset, 0)}"
            )
        if count and ndistinct == 0:
            raise EncodingError("dictionary payload corrupt: no distinct values")
        if bits != bits_needed(max(ndistinct - 1, 0)):
            raise EncodingError(
                f"dictionary payload corrupt: {bits}-bit indices into"
                f" {ndistinct} distinct values"
            )
        distinct = np.frombuffer(payload, dtype, ndistinct, offset)
        return distinct, count, bits, indices_at

    @staticmethod
    def _lookup(distinct: np.ndarray, indices: np.ndarray) -> np.ndarray:
        try:
            return distinct[indices]
        except IndexError:
            raise EncodingError(
                f"dictionary payload corrupt: index beyond its"
                f" {len(distinct)} distinct values"
            ) from None

    def decode(self, payload: bytes, offset: int = 0) -> np.ndarray:
        distinct, count, bits, offset = self._parse(payload, offset)
        return self._lookup(
            distinct, unpack_bits(payload, count, bits, np.intp, offset))

    def decode_at(self, payload: bytes, positions: np.ndarray,
                  offset: int = 0) -> Tuple[np.ndarray, int]:
        distinct, count, bits, offset = self._parse(payload, offset)
        return self._lookup(distinct, extract_bits(
            payload, count, bits, positions, np.intp, offset)), count


DICTIONARY = register(DictionaryCodec())

__all__ = ["DictionaryCodec", "DICTIONARY"]
