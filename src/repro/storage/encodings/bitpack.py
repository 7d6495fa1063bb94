"""Fixed-width bit packing for non-negative integers.

Packs each value into the minimum number of bits that represents the
block's maximum — the workhorse for foreign-key and dictionary-code
columns, whose values are dense but smaller than their 4-byte container.

The packed stream is MSB-first: value ``i`` occupies stream bits
``[i*bits, (i+1)*bits)``, most significant bit first, and the last byte
is zero-padded.  Eight values therefore fill exactly ``bits`` bytes, so
the kernels treat the stream as *groups* of ``bits`` bytes holding eight
*lanes* each, and a lane sits at the same bits of every group: packing
is two small matrix products that shift each lane into the 64-bit words
of its group, unpacking one word read per lane and two shifts, over all
groups at once — work proportional to the values, not to their bits,
and a handful of numpy calls however few the values.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from ...errors import EncodingError
from .codec import (BlockStats, Codec, CodecId, check_positions, pack_dtype,
                    register, unpack_dtype, unpack_header)

#: widths whose packed stream is a plain big-endian integer array
_VIEW_WIDTHS = (8, 16, 32, 64)
#: (big-endian, native) word read per value: 32-bit up to 25 bits wide
_WORDS = ((np.dtype(">u4"), np.dtype("=u4")), (np.dtype(">u8"), np.dtype("=u8")))


def bits_needed(max_value: int) -> int:
    """Bits required to store values in ``[0, max_value]`` (at least 1)."""
    if max_value < 0:
        raise EncodingError("bit packing requires non-negative values")
    return max(1, int(max_value).bit_length())


def packed_bytes(count: int, bits: int) -> int:
    """Length of the packed stream of ``count`` values at ``bits`` each."""
    return (count * bits + 7) >> 3


def _check_width(bits: int) -> None:
    if not 1 <= bits <= 64:
        raise EncodingError(f"bit width {bits} out of range")


def _pack_matrices(bits: int):
    """``(down, heads, tails)`` such that the ``ceil(bits/8)`` 64-bit
    words of a group of eight lanes are ``(lanes >> down) @ heads +
    lanes @ tails``.

    uint64 arithmetic is modulo 2**64, so multiplying by a power of two
    is a left shift that drops what leaves the word, and lanes never
    overlap, so adding is OR-ing.  A lane that fits its word is one
    entry of ``heads``; one that straddles two is shifted ``down`` into
    the first and multiplied up, by ``tails``, into the second.
    """
    down = np.zeros(8, dtype=np.uint64)
    heads = np.zeros((8, (bits + 7) >> 3), dtype=np.uint64)
    tails = np.zeros_like(heads)
    for lane in range(8):
        word, used = divmod(lane * bits, 64)
        spill = used + bits - 64
        if spill <= 0:
            heads[lane, word] = 1 << -spill
        else:
            down[lane] = spill
            heads[lane, word] = 1
            tails[lane, word + 1] = 1 << (64 - spill)
    return down, heads, tails if tails.any() else None


def _byte_and_lead(starts: np.ndarray, bits: int):
    """Split the bit offsets at which ``bits``-bit values start into the
    byte each starts in and the bits of that byte that precede it (in
    the native word type the value is shifted in)."""
    return starts >> 3, (starts & 7).astype(_WORDS[bits > 25][1])


#: The lane geometry of every width, tabulated: short inputs (a bitmap
#: index packs thousands of rid-lists of a few dozen values) would
#: otherwise spend most of their time deriving it.
_PACK_MATRICES = {bits: _pack_matrices(bits) for bits in range(1, 65)}
_LANE_STARTS = {bits: _byte_and_lead(np.arange(8) * bits, bits)
                for bits in range(1, 65)}


def pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack the low ``bits`` bits of each of ``values``, MSB first."""
    _check_width(bits)
    count = len(values)
    if count == 0:
        return b""
    if bits in _VIEW_WIDTHS:
        return values.astype(f">u{bits >> 3}").tobytes()
    groups = (count + 7) >> 3
    lanes = np.zeros(groups * 8, dtype=np.uint64)
    lanes[:count] = values
    lanes &= np.uint64((1 << bits) - 1)
    lanes = lanes.reshape(groups, 8)
    down, heads, tails = _PACK_MATRICES[bits]
    words = (lanes >> down) @ heads
    if tails is not None:
        words += lanes @ tails
    stream = words.astype(">u8").view(np.uint8).reshape(groups, -1)[:, :bits]
    return stream.tobytes()[:packed_bytes(count, bits)]


def _stream_bytes(payload: bytes, count: int, bits: int,
                  offset: int) -> int:
    """Length of the packed stream at ``payload[offset:]``; refuses a
    payload too short to hold it."""
    _check_width(bits)
    nbytes = packed_bytes(count, bits)
    if len(payload) - offset < nbytes:
        raise EncodingError(
            f"packed payload truncated: want {nbytes} bytes,"
            f" have {max(len(payload) - offset, 0)}"
        )
    return nbytes


def _packed_stream(payload: bytes, count: int, bits: int, offset: int,
                   size: int) -> np.ndarray:
    """The packed stream at ``payload[offset:]``, checked to be whole,
    zero-padded to ``size`` bytes plus the 8 that a window starting in
    the last byte reads past it."""
    nbytes = _stream_bytes(payload, count, bits, offset)
    return np.frombuffer(payload[offset:offset + nbytes]
                         + bytes(size + 8 - nbytes), dtype=np.uint8)


def _fields(stream: np.ndarray, bits: int, byte: np.ndarray,
            lead: np.ndarray, rows: Optional[int] = None,
            stride: int = 0) -> np.ndarray:
    """The ``bits``-bit values that begin ``lead`` bits into byte
    ``byte`` of ``stream``, as native unsigned words of ``byte``'s shape;
    with ``rows``, of each of ``rows`` rows of ``stream`` ``stride``
    bytes apart, of shape ``(rows, len(byte))``.

    One (unaligned, overlapping) big-endian word is read at each value's
    first byte; shifting left drops the bits before the value, shifting
    right drops those after it.  A 32-bit word holds any value of up to
    25 bits that starts in its first byte, a 64-bit word up to 57; wider
    values can end in the byte after their word.
    """
    big, native = _WORDS[bits > 25]
    # the bytes (of a row) at which a word, and the byte after it, still
    # lie inside the stream's 8 bytes of padding
    if rows is None:
        shape, strides, at = (len(stream) - 8,), (1,), byte
    else:
        shape = (rows, len(stream) - 8 - (rows - 1) * stride)
        strides, at = (stride, 1), (slice(None), byte)
    values = np.ndarray(shape, big, stream, 0, strides)[at].astype(native)
    values <<= lead
    if bits > 57:
        tails = np.ndarray(shape, np.uint8, stream, 8, strides)[at]
        values |= tails.astype(native) >> (native.type(8) - lead)
    values >>= native.type(8 * native.itemsize - bits)
    return values


def unpack_bits(payload: bytes, count: int, bits: int,
                dtype: np.dtype = np.dtype(np.uint64),
                offset: int = 0) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``count`` values of ``dtype`` from
    the stream starting at ``payload[offset]``."""
    dtype = np.dtype(dtype)
    groups = (count + 7) >> 3
    stream = _packed_stream(payload, count, bits, offset, groups * bits)
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if bits in _VIEW_WIDTHS:
        return stream[:count * (bits >> 3)].view(f">u{bits >> 3}").astype(dtype)
    # a group is a row of ``bits`` bytes with a lane every ``bits`` bits:
    # all groups at once, no pass per lane
    lanes = _fields(stream, bits, *_LANE_STARTS[bits], groups, bits)
    same_width = lanes.dtype.itemsize == dtype.itemsize
    lanes = lanes.view(dtype) if same_width else lanes.astype(dtype)
    return lanes.reshape(-1)[:count]


def extract_bits(payload: bytes, count: int, bits: int,
                 positions: np.ndarray,
                 dtype: np.dtype = np.dtype(np.uint64),
                 offset: int = 0) -> np.ndarray:
    """``unpack_bits(...)[positions]`` without unpacking the rest; worth
    it for sparse ``positions`` only."""
    nbytes = _stream_bytes(payload, count, bits, offset)
    last = check_positions(positions, count)
    # value p starts at bit ``p*bits`` of the stream
    starts = positions.astype(np.int64) * bits
    if last >= 0 and offset + ((last * bits) >> 3) + 8 < len(payload):
        # every word read, and the byte after it, lies in the payload
        stream = np.frombuffer(payload, dtype=np.uint8)
        starts += 8 * offset
    else:
        stream = _packed_stream(payload, count, bits, offset, nbytes)
    return _fields(stream, bits,
                   *_byte_and_lead(starts, bits)).astype(dtype)


class BitPackCodec(Codec):
    """Minimal-width packing of a non-negative integer block."""

    codec_id = CodecId.BITPACK
    name = "bitpack"
    _HEADER = struct.Struct("<IB")

    def can_encode(self, values: np.ndarray) -> bool:
        if values.dtype.kind != "i":
            return False
        return len(values) == 0 or int(values.min()) >= 0

    def encode(self, values: np.ndarray) -> bytes:
        if not self.can_encode(values):
            raise EncodingError("bitpack requires non-negative integers")
        max_value = int(values.max()) if len(values) else 0
        bits = bits_needed(max_value)
        header = pack_dtype(values.dtype) + self._HEADER.pack(len(values), bits)
        return header + pack_bits(values, bits)

    def encoded_size(self, stats: BlockStats) -> int:
        return (stats.tag_bytes + self._HEADER.size
                + packed_bytes(stats.count, bits_needed(stats.max)))

    def _header(self, payload: bytes, offset: int):
        dtype, offset = unpack_dtype(payload, offset)
        count, bits = unpack_header(self._HEADER, payload, offset)
        return dtype, count, bits, offset + self._HEADER.size

    def decode(self, payload: bytes, offset: int = 0) -> np.ndarray:
        dtype, count, bits, offset = self._header(payload, offset)
        return unpack_bits(payload, count, bits, dtype, offset)

    def decode_at(self, payload: bytes, positions: np.ndarray,
                  offset: int = 0) -> Tuple[np.ndarray, int]:
        dtype, count, bits, offset = self._header(payload, offset)
        return extract_bits(payload, count, bits, positions, dtype,
                            offset), count


BITPACK = register(BitPackCodec())

__all__ = ["BitPackCodec", "BITPACK", "bits_needed", "packed_bytes",
           "pack_bits", "unpack_bits", "extract_bits"]
