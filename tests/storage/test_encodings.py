"""Codec unit + property tests: every codec round-trips every input it
claims to support, framed payloads self-describe, and auto-selection
never picks a codec larger than plain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.storage.encodings import (
    BitPackCodec,
    DeltaCodec,
    DictionaryCodec,
    PlainCodec,
    RleCodec,
    bits_needed,
    choose_codec,
    codec_by_id,
    decode_payload,
    decode_payload_runs,
    encoded_size,
    runs_of,
)
from repro.storage.encodings.bitpack import pack_bits, unpack_bits
from repro.storage.encodings.delta import unzigzag, zigzag

ALL_CODECS = [PlainCodec(), RleCodec(), BitPackCodec(), DeltaCodec(),
              DictionaryCodec()]

SAMPLE_ARRAYS = [
    np.array([], dtype=np.int32),
    np.array([0], dtype=np.int32),
    np.array([2**31 - 1, 0, -2**31], dtype=np.int64),
    np.arange(1000, dtype=np.int32),
    np.repeat(np.arange(7, dtype=np.int32), 13),
    np.array([5] * 4096, dtype=np.int32),
]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@pytest.mark.parametrize("array", SAMPLE_ARRAYS,
                         ids=lambda a: f"n{len(a)}_{a.dtype}")
def test_roundtrip(codec, array):
    if not codec.can_encode(array):
        pytest.skip("codec does not apply")
    out = decode_payload(codec.frame(array))
    assert out.dtype == array.dtype
    assert np.array_equal(out, array)


def test_plain_handles_byte_strings():
    arr = np.array([b"abc", b"de", b"f"], dtype="S3")
    out = decode_payload(PlainCodec().frame(arr))
    assert np.array_equal(out, arr)


def test_plain_rejects_floats():
    assert not PlainCodec().can_encode(np.array([1.5]))
    with pytest.raises(EncodingError):
        PlainCodec().encode(np.array([1.5]))


def test_rle_runs_of():
    values, lengths = runs_of(np.array([1, 1, 2, 2, 2, 1]))
    assert values.tolist() == [1, 2, 1]
    assert lengths.tolist() == [2, 3, 1]


def test_rle_runs_of_empty():
    values, lengths = runs_of(np.array([], dtype=np.int32))
    assert len(values) == 0 and len(lengths) == 0


def test_rle_decode_runs_without_expansion():
    arr = np.repeat(np.arange(5, dtype=np.int32), 100)
    runs = decode_payload_runs(RleCodec().frame(arr))
    assert runs is not None
    values, lengths = runs
    assert values.tolist() == [0, 1, 2, 3, 4]
    assert lengths.tolist() == [100] * 5


def test_non_rle_payload_has_no_runs():
    assert decode_payload_runs(PlainCodec().frame(
        np.arange(4, dtype=np.int32))) is None


def test_bitpack_rejects_negatives():
    assert not BitPackCodec().can_encode(np.array([-1], dtype=np.int32))


def test_bits_needed():
    assert bits_needed(0) == 1
    assert bits_needed(1) == 1
    assert bits_needed(2) == 2
    assert bits_needed(255) == 8
    assert bits_needed(256) == 9


def test_bits_needed_negative_raises():
    with pytest.raises(EncodingError):
        bits_needed(-1)


def test_zigzag_roundtrip_extremes():
    values = np.array([0, -1, 1, -2**40, 2**40], dtype=np.int64)
    assert np.array_equal(unzigzag(zigzag(values)), values)


def test_codec_registry_lookup():
    for codec in ALL_CODECS:
        assert codec_by_id(int(codec.codec_id)).name == codec.name


def test_unknown_codec_id_raises():
    with pytest.raises(EncodingError):
        codec_by_id(99)


def test_empty_payload_raises():
    with pytest.raises(EncodingError):
        decode_payload(b"")


def test_choose_codec_never_beats_plain_badly():
    rng = np.random.default_rng(1)
    for arr in (rng.integers(0, 2**30, 5000).astype(np.int32),
                np.sort(rng.integers(0, 100, 5000)).astype(np.int32),
                np.repeat(np.int32(3), 5000)):
        best = choose_codec(arr)
        assert encoded_size(best, arr) <= encoded_size(PlainCodec(), arr)


def test_choose_codec_picks_rle_for_constant():
    assert choose_codec(np.repeat(np.int32(9), 10_000).astype(np.int32)
                        ).name == "rle"


def test_choose_codec_picks_delta_for_sorted_dense():
    arr = np.sort(np.random.default_rng(0).integers(
        0, 2**30, 10_000)).astype(np.int32)
    assert choose_codec(arr).name in ("delta", "rle")


# --------------------------------------------------------------------- #
# property tests
# --------------------------------------------------------------------- #
int32_arrays = st.lists(
    st.integers(min_value=-2**31, max_value=2**31 - 1), max_size=300
).map(lambda xs: np.array(xs, dtype=np.int32))

nonneg_arrays = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), max_size=300
).map(lambda xs: np.array(xs, dtype=np.int32))


@given(int32_arrays)
@settings(max_examples=60, deadline=None)
def test_property_plain_rle_delta_roundtrip(arr):
    for codec in (PlainCodec(), RleCodec(), DeltaCodec(),
                  DictionaryCodec()):
        out = decode_payload(codec.frame(arr))
        assert np.array_equal(out, arr)
        assert out.dtype == arr.dtype


@given(nonneg_arrays)
@settings(max_examples=60, deadline=None)
def test_property_bitpack_roundtrip(arr):
    out = decode_payload(BitPackCodec().frame(arr))
    assert np.array_equal(out, arr)


@given(nonneg_arrays, st.integers(min_value=0, max_value=33))
@settings(max_examples=40, deadline=None)
def test_property_pack_bits_roundtrip(arr, extra_bits):
    # any width that holds the values round-trips, not only the minimal
    bits = bits_needed(int(arr.max()) if len(arr) else 0) + extra_bits
    packed = pack_bits(arr, bits)
    assert len(packed) == (len(arr) * bits + 7) // 8
    out = unpack_bits(packed, len(arr), bits)
    assert np.array_equal(out.astype(np.int64), arr.astype(np.int64))


@given(int32_arrays)
@settings(max_examples=60, deadline=None)
def test_property_runs_reconstruct(arr):
    values, lengths = runs_of(arr)
    assert np.array_equal(np.repeat(values, lengths), arr)
    if len(values) > 1:
        # adjacent runs always differ
        assert np.all(values[1:] != values[:-1])


@given(int32_arrays)
@settings(max_examples=60, deadline=None)
def test_property_choose_codec_roundtrips(arr):
    codec = choose_codec(arr)
    assert np.array_equal(decode_payload(codec.frame(arr)), arr)
