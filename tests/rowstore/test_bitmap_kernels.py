"""System X's rid-set kernels against the per-value reads they replaced.

``BitmapIndex.read_union`` decodes every list of a union out of one
stream into a boolean map over the table's rows; the reference reads
each distinct value's blob through the pool on its own, decodes it with
the codec's own one-frame ``decode_payload`` and sorts the concatenation.
Rids, ledger, pool hits and misses and LRU order must all agree, for
sorted, unsorted, duplicated and absent values and for blobs that
straddle pages.  ``intersect_rid_sets`` is held to ``np.intersect1d``.
A stored list that decodes to a rid outside the table, or to a rid that
another list also holds, is corrupt: ``read_union`` and a T(B) query
both refuse it with ``EncodingError``.
"""

import functools
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.rowstore.bitmap_index import BitmapIndex, intersect_rid_sets
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import PAGE_SIZE, SimulatedDisk
from repro.simio.stats import QueryStats
from repro.ssb.generator import generate
from repro.ssb.queries import query_by_name
from repro.storage.encodings.codec import decode_payload
from tests.rowstore.reference_bitmap import reference_frame
from tests.rowstore.test_bitmap_union import ABSENT, DENSE, INDEX, STRADDLERS
from tests.rowstore.test_bitmap_union import WIDE

#: where a frame's first value sits: codec id, dtype tag, count (4)
FIRST_AT = 6


def _reference_union(index, pool, values):
    """Each distinct value's blob read and decoded on its own, sorted."""
    frames = [reference_frame(index, pool, v)
              for v in dict.fromkeys(map(int, values))]
    lists = [decode_payload(f) for f in frames if f is not None]
    rids = np.concatenate(lists) if lists else np.zeros(0, np.int64)
    pool.stats.values_decompressed += len(rids)
    merged = np.sort(rids)
    pool.stats.position_ops += len(merged)
    return merged


def _replay(steps, capacity_pages, union):
    disk = INDEX.disk
    disk.stats = QueryStats()
    disk.reset_head()
    pool = BufferPool(disk, capacity_pages * PAGE_SIZE)
    seen = []
    for values in steps:
        rids = union(INDEX, pool, values)
        seen.append((rids.tolist(), disk.stats.snapshot(), pool.hits,
                     pool.misses, list(pool._pages)))
    return seen


value_lists = st.lists(
    st.one_of(st.integers(0, WIDE + 2), st.sampled_from(STRADDLERS),
              st.sampled_from((DENSE, WIDE) + ABSENT)),
    max_size=40)
steps = st.lists(
    st.tuples(st.sampled_from(("as drawn", "sorted", "repeated")),
              value_lists)
    .map(lambda s: {"as drawn": s[1], "sorted": sorted(s[1]),
                    "repeated": s[1] + s[1][::-1]}[s[0]]),
    min_size=1, max_size=3)


@given(steps=steps, capacity_pages=st.sampled_from((1, 2, 64)))
def test_bitmap_kernel_union_matches_value_by_value_decode(steps,
                                                           capacity_pages):
    expected = _replay(steps, capacity_pages, _reference_union)
    got = _replay(steps, capacity_pages,
                  lambda index, pool, values: index.read_union(pool, values))
    assert got == expected


rid_sets = st.lists(
    st.lists(st.integers(0, 300), max_size=120, unique=True)
    .map(lambda rids: np.array(sorted(rids), dtype=np.int64)),
    min_size=1, max_size=4)


@given(rid_sets)
def test_bitmap_kernel_intersect_matches_intersect1d(sets):
    stats = QueryStats()
    got = intersect_rid_sets(BufferPool(SimulatedDisk(stats), PAGE_SIZE),
                             sets)
    expected = functools.reduce(np.intersect1d, sets)
    assert got.tolist() == expected.tolist()
    ops, result = 0, sets[0]
    for other in sets[1:]:
        ops += len(result) + len(other)
        result = np.intersect1d(result, other)
    assert stats.position_ops == ops


# --------------------------------------------------------------------- #
# corrupt lists
# --------------------------------------------------------------------- #
def _rewrite_first(index, value, first):
    """Store ``first`` as ``value``'s list's first rid, through
    ``rewrite_page`` so the page's checksum still passes."""
    offset, _ = index.directory[value]
    page_no, at = divmod(offset + FIRST_AT, PAGE_SIZE)
    assert at + 8 <= PAGE_SIZE  # the first value sits in one page
    disk = index.disk
    page = bytearray(disk.file(index.name).pages[page_no])
    page[at:at + 8] = struct.pack("<q", first)
    disk.rewrite_page(index.name, page_no, bytes(page))


def _small_index():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 40, 5_000).astype(np.int32)
    return BitmapIndex.build(SimulatedDisk(QueryStats()), "bmp", values), \
        values


@pytest.mark.parametrize("corruption", ("past-the-end", "negative",
                                        "twice"))
def test_bitmap_kernel_union_refuses_a_corrupt_list(corruption):
    index, values = _small_index()
    victim = int(values[-1])  # its list holds the last row
    assert int(values[0]) != victim
    first = {"past-the-end": index.num_rows, "negative": -3,
             # rid 0 belongs to another value's list too
             "twice": 0}[corruption]
    shift = first - int(np.flatnonzero(values == victim)[0])
    _rewrite_first(index, victim, first)
    pool = BufferPool(index.disk, 1 << 20)
    # the list itself decodes, shifted as written
    assert index.read_rids(pool, victim).tolist() == (
        np.flatnonzero(values == victim) + shift).tolist()
    refusal = "under two values" if corruption == "twice" else "outside"
    with pytest.raises(EncodingError, match=refusal):
        index.read_union(pool, range(40))
    with pytest.raises(EncodingError):
        index.read_union(pool, [victim] + list(range(40))[::-1])
    # the other lists are untouched
    others = [v for v in range(40) if v != victim]
    assert index.read_union(pool, others).tolist() == \
        np.flatnonzero(values != victim).tolist()


def test_bitmap_kernel_corrupt_list_fails_a_bitmap_query():
    data = generate(0.004)
    engine = SystemX(data, designs=[DesignKind.TRADITIONAL_BITMAP])
    query = query_by_name("Q1.1")  # reads the orderdate bitmap for 1993
    before = engine.execute(query, DesignKind.TRADITIONAL_BITMAP)
    index = engine.artifacts.bitmaps["orderdate"]
    orderdate = data.lineorder.column("orderdate").data
    victim = int(orderdate[(orderdate // 10_000) == 1993][0])
    _rewrite_first(index, victim, index.num_rows)
    engine.pool.clear()
    with pytest.raises(EncodingError):
        engine.execute(query, DesignKind.TRADITIONAL_BITMAP)
    assert before.result.rows
