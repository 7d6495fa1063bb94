"""The page-by-page heap sidecar ``synopsis.heap_synopsis_blob`` replaced.

Before the sidecar was one reduction per column over the table, it was
built from the serialized record array, one page and one Python
``min``/``max`` at a time, strings compared as the bytes the records
store.  It stays here as the test-only reference: for any table and
page size the vectorised blob must equal this one byte for byte.
"""

import struct

import numpy as np

from repro.synopsis import (_KIND_HEAP, _MAGIC, _VK_BYTES, _VK_INT,
                            MIN_SIDECAR_BLOCKS)


def reference_heap_blob(records, rows_per_page):
    """Per-page min/max over every data field of a heap's record array
    (``None`` for an empty or single-page heap)."""
    total = len(records)
    if total == 0:
        return None
    names = [name for name in records.dtype.names
             if records.dtype[name].kind != "V"]
    num_pages = -(-total // rows_per_page)
    if num_pages < MIN_SIDECAR_BLOCKS:
        return None
    parts = [_MAGIC, bytes([_KIND_HEAP, 0]),
             struct.pack("<IH", num_pages, len(names))]
    for name in names:
        column = records[name]
        kind = _VK_INT if column.dtype.kind in "iu" else _VK_BYTES
        width = 0 if kind == _VK_INT else column.dtype.itemsize
        encoded = name.encode("ascii")
        parts.append(struct.pack("<H", len(encoded)) + encoded
                     + bytes([kind]) + struct.pack("<H", width))
        mins, maxs = [], []
        for start in range(0, total, rows_per_page):
            chunk = column[start:start + rows_per_page]
            if kind == _VK_INT:
                mins.append(int(chunk.min()))
                maxs.append(int(chunk.max()))
            else:
                values = chunk.tolist()
                mins.append(min(values))
                maxs.append(max(values))
        if kind == _VK_INT:
            parts.append(np.asarray(mins, np.int64).tobytes())
            parts.append(np.asarray(maxs, np.int64).tobytes())
        else:
            parts.append(np.asarray(mins, f"S{width}").tobytes())
            parts.append(np.asarray(maxs, f"S{width}").tobytes())
    return b"".join(parts)
