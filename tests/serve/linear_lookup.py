"""The linear ``SemanticCache.find_subsuming`` the indexed one replaced.

Kept as the test-only reference of the equivalence contract
(``docs/serving.md``, "How lookups stay sub-linear"): it copies every
entry of every scope, puts the exact signature first by a stable sort,
walks the rest in LRU order and probes key sets with ``np.isin``, calling
``keyset_fn`` once per probe.  The indexed lookup must return the same
entry, promote on the same events and *first*-call ``keyset_fn`` for the
same dimensions in the same order.
"""

import numpy as np

from repro.serve.semcache import PositionEntry, subsumption_gaps


def linear_find_subsuming(cache, scope, requested, keyset_fn,
                          dimensions=None):
    with cache._lock:
        candidates = [e for e in cache._entries.values()
                      if isinstance(e, PositionEntry)
                      and e.scope == scope]
    candidates.sort(key=lambda e: e.signature != requested)
    for entry in candidates:
        gaps = subsumption_gaps(requested, entry.signature)
        if gaps is None:
            continue
        if keyset_fn is None and gaps:
            continue
        if dimensions is not None \
                and not set(gaps) <= set(dimensions):
            continue
        if all(_keyset_contained(entry, dim, keyset_fn)
               for dim in gaps):
            with cache._lock:
                if entry.key in cache._entries:
                    cache._entries.move_to_end(entry.key)
            return entry
    return None


def _keyset_contained(entry, dim, keyset_fn):
    cached_keys = entry.key_sets.get(dim)
    if cached_keys is None:
        return False
    requested_keys = keyset_fn(dim)
    if requested_keys.size == 0:
        return True
    if cached_keys.size == 0:
        return False
    return bool(np.isin(requested_keys, cached_keys).all())
