"""A bitmap union visits each page once per run of repeats, invisibly.

``BitmapIndex._read_lists`` asks the pool for a page once per run of
consecutive requests for it and credits the repeats as buffer hits.
The value-by-value loop it replaced (``reference_bitmap``) is the
reference: for any value list — sorted, unsorted, duplicated, absent
from the directory, or with blobs that straddle pages — and any pool
size, the rids, the ledger, the pool's hit/miss counters and its LRU
order must all be the ones the reference produces.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.rowstore.bitmap_index import BitmapIndex
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import PAGE_SIZE, SimulatedDisk
from repro.simio.stats import QueryStats
from repro.storage.encodings.delta import decode_frames
from tests.rowstore.reference_bitmap import reference_frame, reference_union

ROWS = 100_000
SMALL_VALUES = 1500
#: one value on about a quarter of the rows, one whose single wide gap
#: packs every delta wide, so its blob spans three pages
DENSE, WIDE = 1600, 1601
ABSENT = (SMALL_VALUES, DENSE - 1, WIDE + 1)


def _index():
    rng = np.random.default_rng(29)
    values = rng.integers(0, SMALL_VALUES, ROWS).astype(np.int32)
    values[rng.choice(ROWS, 40_000, replace=False)] = DENSE
    values[0:80_000:2] = WIDE
    values[ROWS - 1] = WIDE
    disk = SimulatedDisk(QueryStats())
    return BitmapIndex.build(disk, "bmp", values)


INDEX = _index()
STRADDLERS = sorted(
    v for v, (offset, length) in INDEX.directory.items()
    if offset // PAGE_SIZE != (offset + length - 1) // PAGE_SIZE)


def test_bitmap_union_fixture_has_the_hard_cases():
    assert INDEX.disk.file("bmp").num_pages >= 4
    assert len(STRADDLERS) >= 3
    offset, length = INDEX.directory[WIDE]
    assert (offset + length - 1) // PAGE_SIZE - offset // PAGE_SIZE >= 2
    assert all(v not in INDEX.directory for v in ABSENT)


def _reference_rids(index, pool, value):
    frame = reference_frame(index, pool, value)
    rids = decode_frames([] if frame is None else [frame])
    pool.stats.values_decompressed += len(rids)
    return rids


def _replay(steps, capacity_pages, reference):
    """Run ``steps`` through a fresh pool; what each step left behind."""
    disk = INDEX.disk
    disk.stats = QueryStats()
    disk.reset_head()
    pool = BufferPool(disk, capacity_pages * PAGE_SIZE)
    seen = []
    for kind, values in steps:
        if kind == "rids":
            rids = (_reference_rids(INDEX, pool, values[0]) if reference
                    else INDEX.read_rids(pool, values[0]))
        else:
            rids = (reference_union(INDEX, pool, values) if reference
                    else INDEX.read_union(pool, values))
        seen.append((rids.tolist(), disk.stats.snapshot(), pool.hits,
                     pool.misses, list(pool._pages)))
    return seen


value_lists = st.lists(
    st.one_of(st.integers(0, WIDE + 2), st.sampled_from(STRADDLERS),
              st.sampled_from((DENSE, WIDE) + ABSENT)),
    min_size=1, max_size=40)
steps = st.lists(
    st.tuples(st.sampled_from(("union", "sorted", "rids")), value_lists)
    .map(lambda s: ("union", sorted(s[1])) if s[0] == "sorted" else s),
    min_size=1, max_size=3)


@given(steps=steps, capacity_pages=st.sampled_from((1, 2, 64)))
def test_bitmap_union_ledger_matches_value_by_value_reads(steps,
                                                          capacity_pages):
    expected = _replay(steps, capacity_pages, reference=True)
    assert _replay(steps, capacity_pages, reference=False) == expected
