"""The stored format is frozen, and three shortcuts equal what they
replace.

1. ``pack_bits`` / ``unpack_bits`` against the ``np.packbits`` /
   ``np.unpackbits`` implementation they replaced (kept here as the
   oracle), and golden digests of ``codec.frame`` taken on the commit
   before the kernels changed.
2. ``encoded_size`` (a closed form) against ``len(codec.frame(v))``, and
   ``ColumnFile.load`` against a loader that measures by encoding.
3. ``ColumnFile.fetch`` through positional decode against
   ``read_all()[positions]``, with the ledger of a whole-block decode.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import PAGE_SIZE, SimulatedDisk
from repro.simio.stats import QueryStats
from repro.storage.colfile import ColumnFile, CompressionLevel
from repro.storage.column import Column
from repro.storage.encodings import (
    CodecId,
    choose_codec,
    decode_payload,
    encoded_size,
)
from repro.storage.encodings.bitpack import (
    BITPACK,
    extract_bits,
    pack_bits,
    unpack_bits,
)
from repro.storage.encodings.codec import decode_payload_at
from repro.storage.encodings.delta import DELTA, DeltaCodec, decode_frames
from repro.storage.encodings.dictionary import DICTIONARY
from repro.storage.encodings.plain import PLAIN
from repro.storage.encodings.rle import RLE
from repro.types import int32, int64

ALL_CODECS = (PLAIN, RLE, BITPACK, DELTA, DICTIONARY)


# --------------------------------------------------------------------- #
# 1. the bit stream: oracle and golden frames
# --------------------------------------------------------------------- #
def oracle_pack_bits(values: np.ndarray, bits: int) -> bytes:
    """``pack_bits`` as it was: a bit matrix through ``np.packbits``."""
    if len(values) == 0:
        return b""
    v = values.astype(np.uint64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bit_matrix = ((v[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel()).tobytes()


def oracle_unpack_bits(payload: bytes, count: int, bits: int) -> np.ndarray:
    """``unpack_bits`` as it was: ``np.unpackbits`` and a matmul."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    raw = np.frombuffer(payload, dtype=np.uint8)
    flat = np.unpackbits(raw, count=count * bits)
    bit_matrix = flat.reshape(count, bits).astype(np.uint64)
    weights = np.uint64(1) << np.arange(bits - 1, -1, -1, dtype=np.uint64)
    return bit_matrix @ weights


RAGGED_COUNTS = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 8191)


def _values_of_width(bits: int, count: int) -> np.ndarray:
    """``count`` values spread over all of ``[0, 2**bits)``, both ends
    included."""
    rng = np.random.default_rng(bits * 10_007 + count)
    values = rng.integers(0, (1 << bits) - 1, size=count, dtype=np.uint64,
                          endpoint=True)
    values[:2] = (0, (1 << bits) - 1)[:count]
    return values


@pytest.mark.parametrize("bits", range(1, 65))
def test_bit_stream_equals_oracle(bits):
    for count in RAGGED_COUNTS:
        values = _values_of_width(bits, count)
        packed = pack_bits(values, bits)
        assert packed == oracle_pack_bits(values, bits), count
        assert len(packed) == (count * bits + 7) // 8
        unpacked = unpack_bits(packed, count, bits)
        assert unpacked.dtype == np.uint64
        assert np.array_equal(unpacked, oracle_unpack_bits(packed, count,
                                                           bits)), count
        assert np.array_equal(unpacked, values), count
        # the stream may sit at any offset of a larger payload
        shifted = b"\xff" * 3 + packed
        assert np.array_equal(unpack_bits(shifted, count, bits, offset=3),
                              values), count


@pytest.mark.parametrize("bits", (1, 5, 8, 11, 16, 17, 24, 25, 26, 31))
@pytest.mark.parametrize("dtype", (np.int32, np.int64, np.intp))
def test_unpack_straight_into_a_column_dtype(bits, dtype):
    values = _values_of_width(bits, 1001)
    out = unpack_bits(pack_bits(values, bits), 1001, bits, np.dtype(dtype))
    assert out.dtype == np.dtype(dtype)
    assert np.array_equal(out, values.astype(dtype))


def test_pack_accepts_signed_containers_and_masks_to_width():
    values = np.array([3, 1, 2, 0, 3], dtype=np.int32)
    assert pack_bits(values, 2) == oracle_pack_bits(values, 2)
    wide = np.array([0x1F3, 7], dtype=np.int64)  # does not fit 4 bits
    assert pack_bits(wide, 4) == oracle_pack_bits(wide, 4)


@pytest.mark.parametrize("bits", (1, 3, 8, 13, 24, 25, 33, 57, 58, 61, 64))
def test_extract_bits_equals_unpack_then_index(bits):
    count = 4099
    values = _values_of_width(bits, count)
    packed = b"\x00" * 5 + pack_bits(values, bits)
    for positions in ([0], [count - 1], [0, count - 1], [7, 8, 9, 4090],
                      list(range(0, count, 97)), list(range(count))):
        positions = np.asarray(positions, dtype=np.int64)
        got = extract_bits(packed, count, bits, positions, offset=5)
        assert np.array_equal(got, values[positions])
    assert len(extract_bits(packed, count, bits,
                            np.zeros(0, dtype=np.int64), offset=5)) == 0
    for outside in ([-1], [count], [3, count + 5]):
        with pytest.raises(EncodingError, match="outside"):
            extract_bits(packed, count, bits, np.asarray(outside), offset=5)


@pytest.mark.parametrize("bits", range(1, 65))
def test_extract_bits_where_the_stream_ends_the_payload(bits):
    """No byte follows the packed stream.  A word that lies inside the
    payload is read in place; one that would run past its end is read
    from the padded copy.  Every position whose word touches the last
    17 bytes takes one path or the other, alone and beside position 0,
    and each equals the unpacked value."""
    count = 203
    values = _values_of_width(bits, count)
    payload = b"\xff" * 3 + pack_bits(values, bits)
    # the 8-byte word read for value p starts at stream byte p*bits // 8
    near = [p for p in range(count)
            if 3 + (p * bits >> 3) + 8 > len(payload) - 17]
    assert near and near[-1] == count - 1
    for p in near:
        for positions in ([p], [0, p]):
            positions = np.asarray(positions, dtype=np.int64)
            got = extract_bits(payload, count, bits, positions, offset=3)
            assert np.array_equal(got, values[positions]), (p, positions)


def golden_arrays():
    """Hand-built, RNG-free inputs: the digests below must not depend on
    a generator's stream."""
    k = np.arange(5000, dtype=np.int64)
    return {
        "scrambled_i32": (k * 2654435761 % 100003).astype(np.int32),
        "sorted_i32": (k[:3000] * 7 + 11).astype(np.int32),
        "runs_i32": np.repeat(np.arange(40, dtype=np.int32), 77),
        "lowcard_i64": (k[:4001] * 31 % 13) + 10**12,
        "signed_i32": (k[:999] * 48271 % 2001 - 1000).astype(np.int32),
        "wide_i64": k[:257] * (2**55 + 12345) % (2**61 - 1),
        "single_i32": np.array([123456], dtype=np.int32),
        "empty_i32": np.array([], dtype=np.int32),
    }


#: (input, codec) -> (len, first 24 hex digits of sha256) of
#: ``codec.frame(input)``, computed on the commit before the shift/mask
#: kernels (6a43a7b).  A change here is a change of the stored format.
GOLDEN_FRAMES = {
    ("scrambled_i32", "plain"): (20006, "596fc5c1661f915de8ae913b"),
    ("scrambled_i32", "rle"): (40010, "b7171367421d618f2e79ea2c"),
    ("scrambled_i32", "bitpack"): (10632, "bb2f084475bf0aec93c53464"),
    ("scrambled_i32", "delta"): (10638, "6392ca58ab47930b229ff7a7"),
    ("scrambled_i32", "dictionary"): (28136, "d96e35dc8ed636cef72384cc"),
    ("sorted_i32", "plain"): (12006, "6c14ff63de2a30720a7c9a2f"),
    ("sorted_i32", "rle"): (24010, "32cede605a3f76044265cd9d"),
    ("sorted_i32", "bitpack"): (5632, "2fad47b2a562e160760da14d"),
    ("sorted_i32", "delta"): (1515, "e3122eab329a045ff82faa83"),
    ("sorted_i32", "dictionary"): (16511, "806a9261b03e48e9b7e6fb67"),
    ("runs_i32", "plain"): (12326, "9f8eb64d21bc4f83dd18b653"),
    ("runs_i32", "rle"): (330, "50c4e02ae37a6bf437331004"),
    ("runs_i32", "bitpack"): (2317, "19a28a2db3f9c4ec7d1e9be0"),
    ("runs_i32", "delta"): (785, "50f686f957cd4259536964f9"),
    ("runs_i32", "dictionary"): (2481, "b5b68b1de3235114b672a77f"),
    ("lowcard_i64", "plain"): (32014, "bf2b83923cd4f3f16d79e6c9"),
    ("lowcard_i64", "rle"): (48022, "e3045af10a85042b0a7fdce6"),
    ("lowcard_i64", "bitpack"): (20012, "19447b77f0c095d9fc5ddbdf"),
    ("lowcard_i64", "delta"): (2015, "de5180f20e2e60632e20c055"),
    ("lowcard_i64", "dictionary"): (2116, "e427bbcefec3d13e495405e6"),
    ("signed_i32", "plain"): (4002, "218aa601d47a9096da58452e"),
    ("signed_i32", "rle"): (8002, "b2775e56d01ad9b07e15ac5d"),
    ("signed_i32", "delta"): (1512, "3dc044bf1a941074994e0728"),
    ("signed_i32", "dictionary"): (5256, "732c4577da3399505d6fb151"),
    ("wide_i64", "plain"): (2062, "3c9481693be60bbd252d5f6e"),
    ("wide_i64", "rle"): (3094, "bce1a0374b68b44cea626adb"),
    ("wide_i64", "bitpack"): (1967, "0e455cef4cb0c911e957fb38"),
    ("wide_i64", "delta"): (1999, "5b56bfa533cb2742cb79020b"),
    ("wide_i64", "dictionary"): (2357, "506b8cef4fa13395de683fd0"),
    ("single_i32", "plain"): (10, "49c529d4e2617cffc78105f8"),
    ("single_i32", "rle"): (18, "c4801049702720e8b4322b3a"),
    ("single_i32", "bitpack"): (10, "26f187ec4a296b6c07759a34"),
    ("single_i32", "delta"): (15, "c0f7a9149e1957f8542fe3fe"),
    ("single_i32", "dictionary"): (16, "eb93b93a0a9ab213cd998933"),
    ("empty_i32", "plain"): (6, "734b91c578ed3d3f4c21345e"),
    ("empty_i32", "rle"): (10, "44ae3eac6b9e5d37761dbc05"),
    ("empty_i32", "bitpack"): (7, "39fa9158ea467bf577dca8dd"),
    ("empty_i32", "delta"): (15, "dc688dbae953aaeb3980b1c6"),
    ("empty_i32", "dictionary"): (11, "a2a6d3f96f8b440582761866"),
}


def test_golden_frames():
    arrays = golden_arrays()
    seen = set()
    for name, values in arrays.items():
        for codec in ALL_CODECS:
            if not codec.can_encode(values):
                continue
            framed = codec.frame(values)
            digest = hashlib.sha256(framed).hexdigest()[:24]
            assert (len(framed), digest) == GOLDEN_FRAMES[name, codec.name], \
                (name, codec.name)
            assert encoded_size(codec, values) == len(framed)
            back = decode_payload(framed)
            assert back.dtype == values.dtype
            assert np.array_equal(back, values)
            seen.add((name, codec.name))
    assert seen == set(GOLDEN_FRAMES)


# --------------------------------------------------------------------- #
# 2. sizes are computed, and the loader writes what it wrote before
# --------------------------------------------------------------------- #
def _shaped(draw, dtype):
    """Integer arrays of the shapes codec selection tells apart."""
    info = np.iinfo(dtype)
    shape = draw(st.sampled_from(
        ("any", "nonneg", "sorted", "constant", "lowcard", "runs")))
    size = draw(st.integers(min_value=0, max_value=200))
    if shape == "nonneg":
        elements = st.integers(0, info.max)
    elif shape == "lowcard":
        elements = st.sampled_from(draw(st.lists(
            st.integers(info.min, info.max), min_size=1, max_size=5)))
    elif shape == "constant":
        elements = st.just(draw(st.integers(info.min, info.max)))
    else:
        elements = st.integers(info.min, info.max)
    values = np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                      dtype=dtype)
    if shape == "sorted":
        values.sort()
    elif shape == "runs":
        values = np.repeat(values, draw(st.integers(1, 9)))
    return values


@st.composite
def int_arrays(draw):
    return _shaped(draw, draw(st.sampled_from((np.int32, np.int64))))


@given(int_arrays())
# 300 in tier-1; the chaos profile (tests/conftest.py) runs it deeper
@settings(max_examples=max(300, settings().max_examples), deadline=None)
def test_property_encoded_size_is_the_frame_length(values):
    for codec in ALL_CODECS:
        if codec.can_encode(values):
            assert encoded_size(codec, values) == len(codec.frame(values)), \
                codec.name
        else:
            with pytest.raises(EncodingError):
                encoded_size(codec, values)
    # and so the choice is the one measuring every frame makes
    sizes = [(len(c.frame(values)), i) for i, c in enumerate(ALL_CODECS)
             if c.can_encode(values)]
    assert choose_codec(values) is ALL_CODECS[min(sizes)[1]]


def test_encoded_size_of_byte_strings():
    values = np.array([b"abc", b"de", b"f"] * 50, dtype="S3")
    assert encoded_size(PLAIN, values) == len(PLAIN.frame(values))


def test_encoded_size_does_not_encode(monkeypatch):
    values = golden_arrays()["scrambled_i32"]
    for codec in ALL_CODECS:
        monkeypatch.setattr(type(codec), "encode", None)
    for codec in ALL_CODECS:
        assert encoded_size(codec, values) \
            == GOLDEN_FRAMES["scrambled_i32", codec.name][0]
    assert choose_codec(values) is BITPACK


_CAPACITY = PAGE_SIZE - 8


def _measuring_loader(values: np.ndarray):
    """``ColumnFile.load`` at ``MAX`` as it was: every candidate chunk is
    framed by every codec, and re-framed at every doubling.  Returns
    (block starts, page payloads)."""

    def smallest_frame(chunk):
        frames = [c.frame(chunk) for c in ALL_CODECS if c.can_encode(chunk)]
        return min(frames, key=len)  # first of the smallest, like ``<``

    starts, pages = [], []
    n, pos = len(values), 0
    max_plain = max(1, (_CAPACITY - 16) // values.dtype.itemsize)
    while pos < n:
        chunk = values[pos:pos + min(max_plain, n - pos)]
        framed = smallest_frame(chunk)
        while pos + len(chunk) < n:
            grown = values[pos:pos + len(chunk) * 2]
            grown_framed = smallest_frame(grown)
            if len(grown_framed) > _CAPACITY:
                break
            chunk, framed = grown, grown_framed
        starts.append(pos)
        pages.append(len(chunk).to_bytes(8, "little") + framed)
        pos += len(chunk)
    return starts, pages


def _synthetic_columns():
    rng = np.random.default_rng(20080609)
    n = 70_000
    return {
        "runs": np.repeat(np.arange(35, dtype=np.int32), 2000),
        "packed11": rng.integers(0, 2000, n).astype(np.int32),
        "packed17": rng.integers(0, 100_000, n).astype(np.int32),
        "sorted_dense": np.sort(rng.integers(10**9, 10**9 + 10**7, n)
                                ).astype(np.int64),
        "lowcard_big": rng.choice(
            np.array([10**12, -5, 7 * 10**15, 3, 10**9]), n),
        "signed": rng.integers(-2**31, 2**31 - 1, n).astype(np.int32),
        # codecs change along the column
        "mixed": np.concatenate([
            np.repeat(np.arange(5, dtype=np.int32), 4000),
            rng.integers(0, 50_000, 30_000).astype(np.int32),
            np.arange(20_000, dtype=np.int32) * 3,
        ]),
    }


@pytest.mark.parametrize("name", sorted(_synthetic_columns()))
def test_load_writes_what_a_measuring_loader_writes(disk, name):
    values = _synthetic_columns()[name]
    ctype = int32() if values.dtype == np.int32 else int64()
    colfile = ColumnFile.load(disk, "c", Column.from_ints("v", values, ctype),
                              CompressionLevel.MAX)
    starts, pages = _measuring_loader(values)
    assert colfile.block_starts.tolist() == starts
    assert disk.file("c").pages == pages


# --------------------------------------------------------------------- #
# 3. positional fetch: same values, same ledger
# --------------------------------------------------------------------- #
def _codec_columns():
    """One multi-block column per codec, each block stored with it."""
    rng = np.random.default_rng(7)
    n = 60_000
    return {
        CodecId.PLAIN: rng.integers(-2**31, 2**31 - 1, n).astype(np.int32),
        CodecId.RLE: np.repeat(rng.integers(0, 2**30, 12_000), 5
                               ).astype(np.int32),
        CodecId.BITPACK: rng.integers(0, 100_000, n).astype(np.int32),
        CodecId.DELTA: np.cumsum(rng.integers(-4000, 6000, n)).astype(np.int64)
        + 10**10,
        CodecId.DICTIONARY: rng.choice(
            rng.integers(-2**62, 2**62, 200), n),
    }


def _fresh_pool(disk):
    """An empty pool on a zeroed ledger, the head parked, so that runs
    over one disk start alike."""
    disk.stats.reset()
    disk.reset_head()
    return BufferPool(disk, capacity_bytes=64 * PAGE_SIZE)


@pytest.mark.parametrize("codec_id", list(CodecId), ids=lambda c: c.name)
def test_fetch_equals_read_all_with_the_whole_block_ledger(codec_id):
    values = _codec_columns()[codec_id]
    disk = SimulatedDisk(QueryStats())
    ctype = int32() if values.dtype == np.int32 else int64()
    colfile = ColumnFile.load(disk, "c", Column.from_ints("v", values, ctype),
                              CompressionLevel.MAX)
    assert colfile.num_blocks >= 3
    assert {page[8] for page in disk.file("c").pages} == {int(codec_id)}
    everything = colfile.read_all(_fresh_pool(disk))
    assert np.array_equal(everything, values)

    starts = colfile.block_starts.tolist()
    rng = np.random.default_rng(int(codec_id))
    n = len(values)
    requests = {
        "one": [starts[1] + 17],
        "block edges": sorted({0, starts[1] - 1, starts[1], starts[2] - 1,
                               starts[2], n - 1}),
        "sparse": np.sort(rng.choice(n, 40, replace=False)),
        "sparse in one block": starts[1] + np.arange(0, 200, 20),
        "dense": np.sort(rng.choice(n, n // 2, replace=False)),
        "dense in one block": np.arange(starts[1], starts[2]),
        "sparse and dense": np.concatenate([
            [3], np.arange(starts[1], starts[2], 2), [n - 2]]),
        "all": np.arange(n),
        "skips a block": [5, starts[2] + 5],
        "first and last block only": [0, 9, n - 9, n - 1],
        "first block only": np.arange(0, starts[1], 300),
        "last block only": np.arange(starts[-1], n, 300),
    }
    for label, positions in requests.items():
        positions = np.asarray(positions, dtype=np.int64)
        pool = _fresh_pool(disk)
        fetched = colfile.fetch(pool, positions)
        assert fetched.dtype == values.dtype, label
        assert np.array_equal(fetched, everything[positions]), label
        ledger = pool.stats.snapshot()
        # the ledger of decoding every touched block whole
        pool = _fresh_pool(disk)
        for block_no in np.unique(np.searchsorted(
                colfile.block_starts, positions, side="right") - 1):
            colfile.read_block(pool, int(block_no))
        assert ledger == pool.stats.snapshot(), label
        if codec_id is not CodecId.PLAIN:
            assert ledger["values_decompressed"] > 0, label


def test_fetch_of_nothing(disk, pool):
    col = Column.from_ints("v", np.arange(100, dtype=np.int32), int32())
    colfile = ColumnFile.load(disk, "c", col)
    out = colfile.fetch(pool, np.zeros(0, dtype=np.int64))
    assert out.dtype == np.int32 and len(out) == 0


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
def test_decode_payload_at_reports_the_block_count(codec):
    values = np.repeat(np.arange(300, dtype=np.int64) * 11 % 97, 3)
    framed = b"\x00" * 8 + codec.frame(values)
    positions = np.array([0, 5, 6, 449, 899], dtype=np.int64)
    got, count = decode_payload_at(framed, positions, 8)
    assert count == len(values)
    assert got.dtype == values.dtype
    assert np.array_equal(got, values[positions])


# --------------------------------------------------------------------- #
# 4. decode_frames: many rid lists in one pass equal one at a time
# --------------------------------------------------------------------- #
@st.composite
def rid_lists(draw):
    """An ascending int64 list whose deltas pack ``bits`` wide: lengths
    1, 2 and many, every width a zig-zagged non-negative delta can take
    short of overflowing the running sum."""
    bits = draw(st.integers(1, 63))
    count = draw(st.sampled_from((1, 2, 3, 9, 40)))
    count = min(count, 1 + (1 << min(63 - bits, 6)))
    widest = max((1 << bits) - 1 >> 1, 0)  # zig-zag doubles a delta >= 0
    deltas = draw(st.lists(st.integers(0, widest), min_size=count - 1,
                           max_size=count - 1))
    if deltas:
        deltas[draw(st.integers(0, len(deltas) - 1))] = widest
    first = draw(st.integers(0, 1 << 40))
    return np.cumsum([first] + deltas, dtype=np.int64)


@given(st.lists(rid_lists(), max_size=12))
@settings(max_examples=max(150, settings().max_examples), deadline=None)
def test_property_decode_frames_equals_decode_payload_per_frame(lists):
    frames = [DELTA.frame(values) for values in lists]
    got = decode_frames(frames)
    assert got.dtype == np.int64
    expected = [decode_payload(frame) for frame in frames]
    for values, decoded in zip(lists, expected):
        assert np.array_equal(decoded, values)
    assert np.array_equal(
        got, np.concatenate(expected) if expected else np.zeros(0, np.int64))


@st.composite
def frames_of_width(draw):
    """One framed int64 delta list whose zig-zagged deltas need exactly
    ``bits`` bits, 1-64; the running sum wraps like the codec's."""
    bits = draw(st.integers(1, 64))
    count = draw(st.integers(2, 40))
    zigzagged = draw(st.lists(st.integers(0, (1 << bits) - 1),
                              min_size=count - 1, max_size=count - 1))
    zigzagged[draw(st.integers(0, count - 2))] |= 1 << (bits - 1)
    z = np.array(zigzagged, dtype=np.uint64)
    deltas = (z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))
    first = np.uint64(draw(st.integers(0, (1 << 64) - 1)))
    values = np.cumsum(np.concatenate(([first], deltas)),
                       dtype=np.uint64).view(np.int64)
    frame = DELTA.frame(values)
    # codec id, dtype tag, then (count, first, width)
    assert DeltaCodec._HEADER.unpack_from(frame, 2)[2] == bits
    return frame


@given(st.lists(frames_of_width(), max_size=10))
@settings(max_examples=max(150, settings().max_examples), deadline=None)
def test_property_decode_frames_of_every_width(frames):
    """Frames of mixed widths 1-64 decode, all at once, to what
    ``DELTA.decode`` gives frame by frame."""
    expected = [DELTA.decode(frame, 1) for frame in frames]
    got = decode_frames(frames)
    assert np.array_equal(
        got, np.concatenate(expected) if expected else np.zeros(0, np.int64))


def test_decode_frames_mixes_widths_and_keeps_empty_lists_empty():
    lists = [np.array([7], dtype=np.int64),
             np.zeros(0, dtype=np.int64),
             np.array([5, 6, 8, 1 << 61], dtype=np.int64),
             np.array([-3, -9, 40], dtype=np.int64),   # not ascending
             np.arange(0, 3000, 3, dtype=np.int64)]
    got = decode_frames([DELTA.frame(values) for values in lists])
    assert np.array_equal(got, np.concatenate(lists))
    assert len(decode_frames([])) == 0
    assert len(decode_frames([DELTA.frame(lists[1])] * 2)) == 0


@given(st.lists(rid_lists(), min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_property_truncated_frame_raises(lists, data):
    frames = [DELTA.frame(values) for values in lists]
    victim = data.draw(st.integers(0, len(frames) - 1))
    keep = data.draw(st.integers(0, len(frames[victim]) - 1))
    frames[victim] = frames[victim][:keep]
    with pytest.raises(EncodingError):
        decode_frames(frames)


@pytest.mark.parametrize("imposter", [
    PLAIN.frame(np.arange(4, dtype=np.int64)),
    BITPACK.frame(np.arange(4, dtype=np.int64)),
    RLE.frame(np.arange(4, dtype=np.int64)),
    DELTA.frame(np.arange(4, dtype=np.int32)),
], ids=("plain", "bitpack", "rle", "delta-int32"))
def test_decode_frames_refuses_other_codecs_and_dtypes(imposter):
    good = DELTA.frame(np.arange(4, dtype=np.int64))
    with pytest.raises(EncodingError):
        decode_frames([good, imposter, good])


@pytest.mark.parametrize("bits", (0, 65))
def test_decode_frames_refuses_an_impossible_bit_width(bits):
    frame = bytearray(DELTA.frame(np.arange(9, dtype=np.int64)))
    frame[14] = bits  # codec id, dtype tag, count (4), first (8), width
    with pytest.raises(EncodingError):
        decode_payload(bytes(frame))
    with pytest.raises(EncodingError):
        decode_frames([bytes(frame)])
