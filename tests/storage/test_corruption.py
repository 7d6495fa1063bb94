"""Failure injection: corrupt page images must raise typed errors, not
return wrong data silently.

Since the integrity layer, any in-place mutation of a stored page is
caught by the buffer pool's CRC verification *before* the payload
reaches a decoder, so pool-path reads surface :class:`ChecksumError`.
The decoder-level defenses (codec ids, counts, run lengths) remain the
second line and are exercised directly on payload bytes.
"""

import struct

import numpy as np
import pytest

from repro.errors import (
    ChecksumError,
    EncodingError,
    PageFormatError,
    StorageError,
)
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.stats import QueryStats
from repro.storage.colfile import ColumnFile, CompressionLevel
from repro.storage.column import Column
from repro.storage.encodings import decode_payload
from repro.storage.encodings.codec import pack_dtype
from repro.storage.heapfile import HeapFile
from repro.storage.table import Table
from repro.types import int32


def _env():
    disk = SimulatedDisk(QueryStats())
    return disk, BufferPool(disk, 1024 * 1024)


def _corrupt(disk, name, page_no, payload):
    disk.file(name).pages[page_no] = payload


# --------------------------------------------------------------------- #
# pool path: the checksum layer catches every stored-image mutation
# --------------------------------------------------------------------- #
def test_colfile_truncated_page(disk, pool):
    col = Column.from_ints("v", np.arange(10_000, dtype=np.int32), int32())
    f = ColumnFile.load(disk, "c", col, CompressionLevel.NONE)
    original = disk.file("c").pages[0]
    _corrupt(disk, "c", 0, original[:100])
    pool.clear()
    with pytest.raises(ChecksumError) as info:
        f.read_all(pool)
    assert info.value.file == "c"
    assert info.value.page_no == 0


def test_colfile_unknown_codec_byte(disk, pool):
    col = Column.from_ints("v", np.arange(100, dtype=np.int32), int32())
    f = ColumnFile.load(disk, "c", col, CompressionLevel.NONE)
    page = bytearray(disk.file("c").pages[0])
    page[8] = 0x7F  # codec id byte
    _corrupt(disk, "c", 0, bytes(page))
    pool.clear()
    with pytest.raises(ChecksumError):
        f.read_all(pool)


def test_colfile_count_mismatch(disk, pool):
    col = Column.from_ints("v", np.arange(100, dtype=np.int32), int32())
    f = ColumnFile.load(disk, "c", col, CompressionLevel.NONE)
    page = bytearray(disk.file("c").pages[0])
    page[0] = 99  # declared count
    _corrupt(disk, "c", 0, bytes(page))
    pool.clear()
    with pytest.raises(StorageError):
        f.read_all(pool)


def test_corrupt_page_is_quarantined_and_fails_fast(disk, pool):
    col = Column.from_ints("v", np.arange(100, dtype=np.int32), int32())
    f = ColumnFile.load(disk, "c", col, CompressionLevel.NONE)
    _corrupt(disk, "c", 0, b"\x00" * 64)
    pool.clear()
    with pytest.raises(ChecksumError):
        f.read_all(pool)
    assert disk.is_quarantined("c", 0)
    assert disk.stats.checksum_failures > 0
    assert disk.stats.pages_quarantined == 1
    # second attempt fails fast without re-reading garbage
    before = disk.stats.pages_read
    with pytest.raises(ChecksumError, match="quarantined"):
        f.read_all(pool)
    assert disk.stats.pages_read == before


def test_heapfile_bad_page_multiple(disk, pool):
    table = Table("t", [Column.from_ints("a", np.arange(100, dtype=np.int32),
                                         int32())])
    heap = HeapFile.load(disk, "h", table)
    _corrupt(disk, "h", 0, b"x" * 13)
    pool.clear()
    with pytest.raises(ChecksumError):
        list(heap.scan_batches(pool))


def test_heapfile_bad_page_decoder_layer(disk, pool):
    """If garbage somehow carries a valid CRC (rewrite_page refreshes
    it), the slotted-page decoder still rejects the page."""
    table = Table("t", [Column.from_ints("a", np.arange(100, dtype=np.int32),
                                         int32())])
    heap = HeapFile.load(disk, "h", table)
    disk.rewrite_page("h", 0, b"x" * 13)
    pool.clear()
    with pytest.raises(PageFormatError):
        list(heap.scan_batches(pool))


# --------------------------------------------------------------------- #
# decoder layer: corrupt payload branches exercised directly
# --------------------------------------------------------------------- #
def test_rle_corrupt_run_lengths():
    from repro.storage.encodings.rle import RLE

    framed = bytearray(RLE.frame(np.repeat(np.int32(3), 10).astype(
        np.int32)))
    framed[-1] ^= 0xFF  # flip bits inside the run-length array
    with pytest.raises(EncodingError):
        decode_payload(bytes(framed))


def test_rle_run_lengths_do_not_sum():
    from repro.storage.encodings.codec import CodecId
    from repro.storage.encodings.rle import RLE

    values = np.repeat(np.arange(3, dtype=np.int32), 5)
    framed = bytearray(RLE.frame(values))
    assert framed[0] == CodecId.RLE.value
    # declared count lives right after the codec id + dtype descriptor;
    # bump it so the run lengths no longer sum to it
    dtype_len = len(pack_dtype(values.dtype))
    count_at = 1 + dtype_len
    (count,) = struct.unpack_from("<I", framed, count_at)
    assert count == len(values)
    struct.pack_into("<I", framed, count_at, count + 1)
    with pytest.raises(EncodingError,
                       match="run lengths do not sum"):
        decode_payload(bytes(framed))


def test_dictionary_no_distinct_values():
    from repro.storage.encodings.codec import CodecId

    # hand-craft: count=3 rows but an empty distinct table
    dtype = np.dtype(np.int32)
    payload = (
        bytes([CodecId.DICTIONARY.value])
        + pack_dtype(dtype)
        + struct.pack("<IIB", 3, 0, 1)   # count=3, ndistinct=0, bits=1
        + b"\x00"                        # packed indices for 3 rows
    )
    with pytest.raises(EncodingError,
                       match="no distinct values"):
        decode_payload(payload)


# a short packed body used to decode, zero-padded, into wrong values, and
# a short header escaped as a bare ``struct.error``
def _codecs():
    from repro.storage.encodings.bitpack import BITPACK
    from repro.storage.encodings.delta import DELTA
    from repro.storage.encodings.dictionary import DICTIONARY
    from repro.storage.encodings.plain import PLAIN
    from repro.storage.encodings.rle import RLE

    return {c.name: c for c in (PLAIN, RLE, BITPACK, DELTA, DICTIONARY)}


@pytest.mark.parametrize("name", ("bitpack", "delta", "dictionary"))
def test_truncated_packed_body_is_an_error_not_zero_padding(name):
    values = np.arange(1000, dtype=np.int32)
    framed = _codecs()[name].frame(values)
    assert np.array_equal(decode_payload(framed), values)
    for cut in (1, 20, 100):
        with pytest.raises(EncodingError, match="truncated"):
            decode_payload(framed[:-cut])


@pytest.mark.parametrize("name", ("bitpack", "delta", "dictionary"))
def test_truncated_packed_body_on_the_positional_path(name):
    from repro.storage.encodings.codec import decode_payload_at

    framed = _codecs()[name].frame(np.arange(1000, dtype=np.int32))
    positions = np.array([3, 999], dtype=np.int64)
    for cut in (1, 20, 100):
        with pytest.raises(EncodingError, match="truncated"):
            decode_payload_at(framed[:-cut], positions)


@pytest.mark.parametrize("name", sorted(_codecs()))
def test_truncated_header_is_an_encoding_error(name):
    framed = _codecs()[name].frame(np.arange(1000, dtype=np.int32))
    for keep in range(1, 16):
        with pytest.raises(EncodingError):
            decode_payload(framed[:keep])


def test_dictionary_index_beyond_the_table():
    from repro.storage.encodings.codec import CodecId

    dtype = np.dtype(np.int32)
    header = (bytes([CodecId.DICTIONARY]) + pack_dtype(dtype)
              + struct.pack("<IIB", 4, 3, 2))       # 4 rows, 3 values, 2 bits
    table = np.array([10, 20, 30], dtype=dtype).tobytes()
    good = header + table + bytes([0b00_01_10_00])  # indices 0 1 2 0
    assert decode_payload(good).tolist() == [10, 20, 30, 10]
    bad = header + table + bytes([0b00_01_11_00])   # index 3 of 3
    with pytest.raises(EncodingError, match="index beyond"):
        decode_payload(bad)
    # an index width that disagrees with the table size is corrupt too
    wide = (bytes([CodecId.DICTIONARY]) + pack_dtype(dtype)
            + struct.pack("<IIB", 4, 3, 8) + table + bytes(4))
    with pytest.raises(EncodingError, match="8-bit indices"):
        decode_payload(wide)


def test_dictionary_index_beyond_the_table_on_the_positional_path():
    from repro.storage.encodings.codec import CodecId, decode_payload_at

    dtype = np.dtype(np.int32)
    bad = (bytes([CodecId.DICTIONARY]) + pack_dtype(dtype)
           + struct.pack("<IIB", 4, 3, 2)
           + np.array([10, 20, 30], dtype=dtype).tobytes()
           + bytes([0b00_01_11_00]))                # index 3 of 3
    with pytest.raises(EncodingError, match="index beyond"):
        decode_payload_at(bad, np.array([2], dtype=np.int64))
    # positions that miss the bad index decode: the rest is not looked at
    got, count = decode_payload_at(bad, np.array([0, 1], dtype=np.int64))
    assert got.tolist() == [10, 20] and count == 4


def test_bit_width_out_of_range():
    from repro.storage.encodings.bitpack import unpack_bits

    for bits in (0, 65, 200):
        with pytest.raises(EncodingError, match="bit width"):
            unpack_bits(bytes(2000), 10, bits)
