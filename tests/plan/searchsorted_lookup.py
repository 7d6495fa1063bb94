"""The binary search ``repro.plan.keys.KeyIndex`` replaced.

Before the kernel existed, every equi-join repeated this by hand — the
row store's hash-table probe, the column store's probe scan and
dimension-row resolution, the row pipeline, the service's re-filter and
denormalization: stable-sort the keys, ``searchsorted`` each value,
clip the index into range and compare.  It stays here as the test-only
reference of the kernel's differential property.
"""

import numpy as np


def searchsorted_lookup(keys, values):
    """``(found, rows)`` as the hand-rolled copies computed them."""
    keys, values = np.asarray(keys), np.asarray(values)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if len(sorted_keys) == 0:
        return (np.zeros(len(values), dtype=bool),
                np.zeros(len(values), dtype=np.intp))
    idx = np.searchsorted(sorted_keys, values)
    idx = np.minimum(idx, len(sorted_keys) - 1)
    return sorted_keys[idx] == values, order[idx]
