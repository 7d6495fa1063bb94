"""Delta encoding: first value plus zig-zag-coded, bit-packed deltas.

Effective on sorted or near-sorted integer columns whose consecutive
differences are small — e.g. the position column of a sorted projection,
or a datekey column within one partition.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

import numpy as np

from ...errors import EncodingError
from .codec import (BlockStats, Codec, CodecId, pack_dtype, register,
                    unpack_dtype, unpack_header)
from .bitpack import (_byte_and_lead, _fields, bits_needed, pack_bits,
                      packed_bytes, unpack_bits)


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

#: how a framed int64 delta payload starts: codec id, dtype tag
_INT64_FRAME = bytes([CodecId.DELTA]) + pack_dtype(np.dtype(np.int64))


#: the powers of two below 2**64: ``searchsorted`` of a value into them
#: is its bit length
_POWERS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def encode_frames(values: np.ndarray, counts: np.ndarray) -> List[bytes]:
    """``[DELTA.frame(run) for run in runs]``, where the runs are the
    int64 ``values`` cut into consecutive pieces of ``counts`` (>= 1)
    values — the inverse of :func:`decode_frames`.

    A bitmap index encodes thousands of rid lists of a few dozen rids,
    so framing them one by one is all per-call overhead.  Here all
    deltas are zigzagged at once and each run's width is one reduction;
    every run is padded to whole groups of eight lanes, so the runs of
    one width pack in one call, each from a byte of its own.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    per_frame = counts - 1
    within = np.ones(len(values), dtype=bool)
    within[starts] = False  # the delta into a run belongs to no run
    deltas = zigzag(np.diff(values))[within[1:]]
    delta_at = np.cumsum(per_frame) - per_frame
    packs = per_frame > 0
    widest = np.zeros(len(counts), dtype=np.uint64)
    if packs.any():
        widest[packs] = np.maximum.reduceat(deltas, delta_at[packs])
    widths = np.maximum(np.searchsorted(_POWERS, widest, side="right"), 1)
    groups = (per_frame + 7) >> 3
    lanes = np.zeros(int(groups.sum()) * 8, dtype=np.uint64)
    lanes[np.repeat((np.cumsum(groups) - groups) * 8 - delta_at, per_frame)
          + np.arange(len(deltas))] = deltas
    lane_width = np.repeat(widths, groups * 8)
    packed = [b""] * len(counts)
    for bits in np.unique(widths[packs]).tolist():
        stream = pack_bits(lanes[lane_width == bits], bits)
        runs = np.flatnonzero(packs & (widths == bits))
        byte_at = (np.cumsum(groups[runs]) - groups[runs]) * bits
        for run, at, n in zip(runs.tolist(), byte_at.tolist(),
                              per_frame[runs].tolist()):
            packed[run] = stream[at:at + packed_bytes(n, bits)]
    header = DeltaCodec._HEADER
    return [_INT64_FRAME + header.pack(count, first, bits) + body
            for count, first, bits, body in zip(
                counts.tolist(), values[starts].tolist(), widths.tolist(),
                packed)]


#: how a framed int64 delta payload starts: the tag, then the header
_FRAME_HEAD = np.dtype([("codec", "u1"), ("dtype", "u1"), ("count", "<u4"),
                        ("first", "<i8"), ("bits", "u1")])


def decode_stream(stream: bytes, at: np.ndarray, lengths: np.ndarray
                  ) -> np.ndarray:
    """``decode_payload`` of each framed int64 delta payload of
    ``stream`` — the one of ``lengths[i]`` bytes at byte ``at[i]``, as a
    bitmap index stores rid lists — back to back.  ``stream`` runs on for
    at least 8 bytes past every frame (a field is read as one word).

    A union reads thousands of lists of a few dozen rids, so nothing here
    runs per frame.  Every header is read by one gather and checked like
    any payload's (length, tags, bit width, packed length).  A stable
    sort by bit width makes each width's deltas one slice, cut out of
    ``stream`` at their bit offsets by one call; all deltas are then
    un-zigzagged once and prefix-summed once, each frame rebased on its
    own first value.
    """
    at = np.asarray(at, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not len(at):
        return np.zeros(0, dtype=np.int64)
    body = _FRAME_HEAD.itemsize
    if (lengths < body).any():
        raise EncodingError("delta frame header truncated")
    raw = np.frombuffer(stream, dtype=np.uint8)
    heads = raw[at[:, None] + np.arange(body)].view(_FRAME_HEAD)[:, 0]
    if ((heads["codec"] != _INT64_FRAME[0])
            | (heads["dtype"] != _INT64_FRAME[1])).any():
        raise EncodingError("not an int64 delta frame")
    counts = heads["count"].astype(np.int64)
    widths = heads["bits"].astype(np.int64)
    per_frame = np.maximum(counts - 1, 0)
    if ((per_frame > 0) & ((widths < 1) | (widths > 64))).any():
        raise EncodingError("bit width out of range")
    if (lengths - body < packed_bytes(per_frame, widths)).any():
        raise EncodingError("packed payload truncated")
    starts = np.cumsum(counts) - counts
    # the deltas in width order: frame order[i]'s are deltas[edges[i]:]
    order = np.argsort(widths, kind="stable")
    width_of, many = widths[order], per_frame[order]
    edges = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(many, out=edges[1:])
    # delta k of sorted frame i starts at bit shift[i] + k * width
    shift = np.repeat((at[order] + body) * 8 - edges[:-1] * width_of, many)
    deltas = np.empty(int(edges[-1]), dtype=np.uint64)
    cuts = np.flatnonzero(np.diff(width_of)) + 1
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(order)]):
        bits, first, last = int(width_of[lo]), int(edges[lo]), int(edges[hi])
        if first < last:
            bit_at = np.arange(first * bits, last * bits, bits)
            bit_at += shift[first:last]
            deltas[first:last] = _fields(raw, bits,
                                         *_byte_and_lead(bit_at, bits))
    deltas = unzigzag(deltas)
    sums = np.zeros(len(at), dtype=np.int64)
    adds = many > 0
    sums[order[adds]] = np.add.reduceat(deltas, edges[:-1][adds])
    out = np.empty(int(starts[-1] + counts[-1]), dtype=np.int64)
    slot = np.repeat(starts[order] + 1 - edges[:-1], many)
    slot += np.arange(len(deltas))
    out[slot] = deltas
    # a frame's first slot takes off the last value before it, so one
    # running sum rebases every frame on its own first value
    filled = counts > 0
    firsts = heads["first"][filled]
    lasts = firsts + sums[filled]
    out[starts[filled]] = firsts - np.concatenate(([0], lasts[:-1]))
    out.cumsum(out=out)
    return out


def decode_frames(frames: Sequence[bytes]) -> np.ndarray:
    """``decode_payload`` of each of ``frames`` — framed int64 delta
    payloads — back to back: :func:`decode_stream` of the joined frames.
    """
    lengths = np.fromiter(map(len, frames), np.int64, len(frames))
    return decode_stream(b"".join(frames) + bytes(8),
                         np.cumsum(lengths) - lengths, lengths)


__all__ = ["DeltaCodec", "DELTA", "zigzag", "unzigzag", "encode_frames",
           "decode_frames", "decode_stream"]
