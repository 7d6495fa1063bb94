"""The per-row result tail ``repro.plan.tail.finish`` replaced.

Before the engines finished in columns, every output cell was built in
Python: each group's codes went through ``int()`` and a dictionary (or a
raw-bytes lookup plus ``bytes.decode``), each accumulator pair through a
scalar ``finalize``, and the rows were then sorted one ORDER BY key at a
time with a Python key per row (``ResultSet.order_by``) and cut by
LIMIT.  It stays here as the test-only reference: for any groups,
accumulators, ORDER BY and LIMIT, the columnar tail must return exactly
these rows, in exactly this order.
"""

import numpy as np

_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max


def reference_finalize(func, primary, secondary):
    """One output cell from its (primary, secondary) accumulators."""
    if func == "avg":
        count = secondary or 0
        return float(primary) / count if count else 0.0
    if func == "min" and primary == _INT64_MAX:
        return 0
    if func == "max" and primary == _INT64_MIN:
        return 0
    return int(primary)


def _sort_key(value):
    if isinstance(value, str):
        return (1, value)
    return (0, value)


def reference_finish(names, groups, reduced, order_by, limit):
    """Rows of the per-row tail.

    ``groups`` holds one ``(codes, decode)`` per group column, where
    ``decode`` maps one raw code to its output cell (None: ``int``);
    ``reduced`` one ``(func, primary, secondary)`` per aggregate.
    """
    num_groups = len(groups[0][0]) if groups else len(reduced[0][1])
    rows = []
    for gi in range(num_groups):
        cells = []
        for codes, decode in groups:
            raw = codes[gi]
            cells.append(int(raw) if decode is None else decode(raw))
        for func, primary, secondary in reduced:
            cells.append(reference_finalize(
                func, int(primary[gi]),
                None if secondary is None else int(secondary[gi])))
        rows.append(tuple(cells))
    for key in reversed(order_by):
        idx = names.index(key.key)
        rows.sort(key=lambda r: _sort_key(r[idx]), reverse=not key.ascending)
    return rows if limit is None else rows[:limit]
