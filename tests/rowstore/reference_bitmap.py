"""The value-by-value bitmap read ``BitmapIndex._read_lists`` replaced.

Before unions visited each page once per run of repeats, every value
asked the pool for each page its blob spans, one request at a time, and
the lists were decoded together afterwards.  It stays here as the
test-only reference of the union's ledger property: the same pages in
the same order, the same hits, misses and LRU order, the same rids.
"""

import numpy as np

from repro.simio.disk import PAGE_SIZE
from repro.storage.encodings.delta import decode_frames


def reference_frame(index, pool, value):
    """One value's stored rid list, its pages read through the pool
    (None if the value is absent)."""
    entry = index.directory.get(int(value))
    if entry is None:
        return None
    offset, length = entry
    first_page, start = divmod(offset, PAGE_SIZE)
    last_page = (offset + length - 1) // PAGE_SIZE
    pages = [pool.read_page(index.name, p)
             for p in range(first_page, last_page + 1)]
    whole = pages[0] if len(pages) == 1 else b"".join(pages)
    return whole[start:start + length]


def reference_union(index, pool, values):
    """``index.read_union(pool, values)`` read value by value; a value
    listed twice is read once (OR is a set union)."""
    frames = [reference_frame(index, pool, v)
              for v in dict.fromkeys(map(int, values))]
    rids = decode_frames([f for f in frames if f is not None])
    pool.stats.values_decompressed += len(rids)
    merged = np.sort(rids)
    pool.stats.position_ops += len(merged)
    return merged
