"""Position list representations and intersection (+ properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colstore.positions import (
    EMPTY,
    ArrayPositions,
    BitmapPositions,
    RangePositions,
    from_bitmap_maybe_range,
    intersect,
)
from repro.errors import ExecutionError
from repro.simio.stats import QueryStats


def _bm(offset, bits):
    return BitmapPositions(offset, np.asarray(bits, dtype=bool))


def _arr(*positions):
    return ArrayPositions(np.asarray(positions, dtype=np.int64))


def test_range_basics():
    r = RangePositions(5, 9)
    assert r.count == 4
    assert r.bounds() == (5, 9)
    assert r.to_array().tolist() == [5, 6, 7, 8]
    with pytest.raises(ExecutionError):
        RangePositions(3, 2)


def test_bitmap_basics():
    b = _bm(10, [0, 1, 1, 0, 1])
    assert b.count == 3
    assert b.bounds() == (11, 15)
    assert b.to_array().tolist() == [11, 12, 14]


def test_array_basics():
    a = _arr(1, 5, 9)
    assert a.count == 3
    assert a.bounds() == (1, 10)
    assert EMPTY.count == 0
    assert EMPTY.bounds() is None


def test_from_bitmap_collapses_contiguous():
    out = from_bitmap_maybe_range(100, np.array([0, 1, 1, 1, 0], dtype=bool))
    assert isinstance(out, RangePositions)
    assert (out.start, out.stop) == (101, 104)
    out2 = from_bitmap_maybe_range(0, np.array([1, 0, 1], dtype=bool))
    assert isinstance(out2, BitmapPositions)
    assert from_bitmap_maybe_range(0, np.zeros(4, dtype=bool)) is EMPTY


def test_intersect_range_range():
    s = QueryStats()
    out = intersect(RangePositions(0, 10), RangePositions(5, 20), s)
    assert isinstance(out, RangePositions)
    assert (out.start, out.stop) == (5, 10)
    assert intersect(RangePositions(0, 3), RangePositions(5, 8), s) is EMPTY


def test_intersect_bitmap_range():
    s = QueryStats()
    out = intersect(_bm(0, [1, 0, 1, 1, 0, 1]), RangePositions(2, 5), s)
    assert out.to_array().tolist() == [2, 3]


def test_intersect_bitmap_bitmap():
    s = QueryStats()
    out = intersect(_bm(0, [1, 1, 0, 1]), _bm(1, [1, 0, 1]), s)
    assert out.to_array().tolist() == [1, 3]
    assert s.position_ops > 0


def test_intersect_array_combinations():
    s = QueryStats()
    assert intersect(_arr(1, 3, 7), RangePositions(2, 8), s).to_array(
        ).tolist() == [3, 7]
    assert intersect(_arr(1, 3, 7), _bm(0, [0, 1, 0, 1, 0, 0, 0, 1]),
                     s).to_array().tolist() == [1, 3, 7]
    assert intersect(_arr(1, 3), _arr(3, 9), s).to_array().tolist() == [3]


def test_intersect_disjoint_bitmaps_empty():
    s = QueryStats()
    assert intersect(_bm(0, [1, 1]), _bm(10, [1, 1]), s) is EMPTY


@st.composite
def positions_strategy(draw):
    kind = draw(st.sampled_from(["range", "bitmap", "array"]))
    if kind == "range":
        start = draw(st.integers(0, 50))
        stop = start + draw(st.integers(0, 50))
        return RangePositions(start, stop)
    if kind == "bitmap":
        offset = draw(st.integers(0, 20))
        bits = draw(st.lists(st.booleans(), max_size=60))
        return BitmapPositions(offset, np.asarray(bits, dtype=bool))
    values = draw(st.sets(st.integers(0, 80), max_size=40))
    return ArrayPositions(np.asarray(sorted(values), dtype=np.int64))


@given(positions_strategy(), positions_strategy())
@settings(max_examples=200, deadline=None)
def test_property_intersect_equals_set_intersection(a, b):
    s = QueryStats()
    out = intersect(a, b, s)
    expected = sorted(set(a.to_array().tolist())
                      & set(b.to_array().tolist()))
    assert out.to_array().tolist() == expected


@given(positions_strategy())
@settings(max_examples=100, deadline=None)
def test_property_bounds_enclose_positions(p):
    bounds = p.bounds()
    arr = p.to_array()
    if len(arr) == 0:
        assert bounds is None or bounds[1] <= bounds[0] or True
    else:
        assert bounds is not None
        lo, hi = bounds
        assert lo == arr[0]
        assert hi == arr[-1] + 1


@st.composite
def bitmaps(draw):
    """Bitmaps of any length, most not a multiple of 8: random bits, and
    the shapes with edges — empty, all set, one bit at 0 or at len-1,
    one contiguous stretch, one stretch with a hole."""
    n = draw(st.one_of(st.integers(0, 70), st.integers(4000, 9000)))
    kind = draw(st.sampled_from(
        ("random", "empty", "full", "first", "last", "stretch", "sparse")))
    bits = np.zeros(n, dtype=bool)
    if kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        density = draw(st.sampled_from((0.001, 0.1, 0.5, 0.95)))
        bits = np.random.default_rng(seed).random(n) < density
    elif kind == "full":
        bits[:] = True
    elif kind == "first" and n:
        bits[0] = True
    elif kind == "last" and n:
        bits[-1] = True
    elif kind in ("stretch", "sparse") and n:
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
        bits[lo:hi] = True
        if kind == "sparse" and hi - lo > 2:
            bits[draw(st.integers(lo + 1, hi - 2))] = False
    return bits


@given(st.integers(0, 10**6), bitmaps())
def test_property_bitmap_facts_equal_their_naive_definitions(offset, bits):
    """Representation, count, bounds and the survivor array of a bitmap
    list, against ``flatnonzero``; the array is cached and read-only."""
    naive = np.flatnonzero(bits) + offset
    out = from_bitmap_maybe_range(offset, bits)
    if len(naive) == 0:
        assert out is EMPTY
    elif naive[-1] - naive[0] + 1 == len(naive):
        assert out == RangePositions(int(naive[0]), int(naive[-1]) + 1)
    else:
        assert isinstance(out, BitmapPositions)
    # the same facts with nothing seeded by from_bitmap_maybe_range
    for positions in (out, BitmapPositions(offset, bits)):
        assert positions.count == len(naive)
        assert positions.bounds() == (
            (int(naive[0]), int(naive[-1]) + 1) if len(naive) else None)
        array = positions.to_array()
        assert array.dtype == np.int64
        assert array.tolist() == naive.tolist()
        if isinstance(positions, BitmapPositions):
            assert positions.to_array() is array
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0
