"""Run-length encoding with direct-operation support.

RLE replaces a run of equal values with ``(value, length)``.  On the SSB
fact table's sort column the paper reports an average run length near
25,000 — the source of the order-of-magnitude flight-1 speedup — because a
predicate or aggregate can be applied to an entire run at once
(Section 5.1, "operating directly on compressed data").

:meth:`RleCodec.decode_runs` returns the run arrays without expansion;
the column scan operators use it to process runs instead of values.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from ...errors import EncodingError
from .codec import (BlockStats, Codec, CodecId, check_positions, pack_dtype,
                    register, unpack_dtype, unpack_header)


def runs_of(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``values`` into (run_values, run_lengths).

    >>> runs_of(np.array([1, 1, 1, 2, 2]))
    (array([1, 2]), array([3, 2], dtype=uint32))
    """
    n = len(values)
    if n == 0:
        return values[:0], np.zeros(0, dtype=np.uint32)
    boundaries = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    return values[starts], (ends - starts).astype(np.uint32)


class RleCodec(Codec):
    """``(value, length)`` pairs stored as two packed arrays."""

    codec_id = CodecId.RLE
    name = "rle"
    _HEADER = struct.Struct("<II")

    def can_encode(self, values: np.ndarray) -> bool:
        return values.dtype.kind == "i"

    def encode(self, values: np.ndarray) -> bytes:
        if not self.can_encode(values):
            raise EncodingError(f"rle codec cannot encode dtype {values.dtype}")
        run_values, run_lengths = runs_of(values)
        header = (
            pack_dtype(values.dtype)
            + self._HEADER.pack(len(values), len(run_values))
        )
        return (
            header
            + np.ascontiguousarray(run_values).tobytes()
            + np.ascontiguousarray(run_lengths).tobytes()
        )

    def encoded_size(self, stats: BlockStats) -> int:
        return (stats.tag_bytes + self._HEADER.size
                + stats.runs * (stats.width + 4))

    def _parse(self, payload: bytes, offset: int
               ) -> Tuple[np.ndarray, np.ndarray, int]:
        dtype, offset = unpack_dtype(payload, offset)
        count, nruns = unpack_header(self._HEADER, payload, offset)
        offset += self._HEADER.size
        lengths_at = offset + nruns * dtype.itemsize
        if len(payload) < lengths_at + nruns * 4:
            raise EncodingError(
                f"rle payload truncated: want {lengths_at + nruns * 4 - offset}"
                f" bytes of runs, have {max(len(payload) - offset, 0)}"
            )
        run_values = np.frombuffer(payload, dtype, nruns, offset)
        run_lengths = np.frombuffer(payload, np.uint32, nruns, lengths_at)
        if int(run_lengths.sum()) != count:
            raise EncodingError("rle payload corrupt: run lengths do not sum")
        return run_values, run_lengths, count

    def decode(self, payload: bytes, offset: int = 0) -> np.ndarray:
        run_values, run_lengths, _count = self._parse(payload, offset)
        return np.repeat(run_values, run_lengths)

    def decode_at(self, payload: bytes, positions: np.ndarray,
                  offset: int = 0) -> Tuple[np.ndarray, int]:
        run_values, run_lengths, count = self._parse(payload, offset)
        check_positions(positions, count)
        run_ends = np.cumsum(run_lengths, dtype=np.int64)
        run = np.searchsorted(run_ends, positions, side="right")
        return run_values[run], count

    def decode_runs(self, payload: bytes, offset: int = 0
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """The runs themselves, for direct operation on compressed data."""
        run_values, run_lengths, _count = self._parse(payload, offset)
        return run_values, run_lengths


RLE = register(RleCodec())

__all__ = ["RleCodec", "RLE", "runs_of"]
