"""The key-lookup kernel under every equi-join of both engines.

``KeyIndex(keys).lookup(values)`` answers, for each probe value, whether
some key equals it and at which row of ``keys``.  It is what a hash
probe, a foreign-key-to-dimension-row resolution and a key-set
membership test all reduce to, so the column store's invisible join and
its late-materialized fallback, the row store's hash joins, the
early-materialized row pipeline and denormalization all call this one
class.

Two paths, chosen from the keys alone, and three lookup modes:

* **direct** — integer keys whose span ``max - min + 1`` is at most
  ``max(DIRECT_MIN_SPAN, DIRECT_DENSITY * len(keys))`` get an int32 slot
  table over ``[min, max]`` (Section 5.4: with dense keys "the key is the
  position", and resolving a foreign key is "simply a fast array
  look-up").  A probe is one subtraction, one clamp and one gather.
* **sorted** — sparser integer keys and non-integer keys (raw byte
  strings) keep a stable argsort.  A lookup binary-searches each probe
  value in the sorted keys: ``n log k`` for ``n`` values and ``k`` keys.
* **probe search** — a sorted-path lookup whose keys are integers and
  whose probe ascends strictly and holds more than
  ``PROBE_SEARCH_RATIO`` values per key (a vertical partition's position
  join probing with ascending positions) binary-searches each key in
  the probe instead: ``k log n``.  Both sides are compared in a dtype
  that holds both, so no key is narrowed to the probe's width; byte
  strings keep the search above, which would cut keys to the probe's.

Every mode returns the same answer for every input; which one runs is a
wall-clock matter only.  Nothing here touches a ledger: callers charge
their hash probes or vector lookups exactly as before.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: A direct table may always span this many slots (256 KB of int32),
#: however few keys it holds.  Filling one takes ~20 us on a 2-vCPU x86
#: host, and a direct probe saves ~25 ns over a binary search of even 64
#: keys, so the fill is repaid within about a thousand probes.
DIRECT_MIN_SPAN = 1 << 16

#: Beyond ``DIRECT_MIN_SPAN``, slots allowed per key.  Measured on the
#: same host, building an index over 2**12 to 2**18 keys and probing it
#: with as many values: direct is 4-5x faster than sorted at 32 slots per
#: key, 1.1-1.9x at 128 and slower at 256, where filling the mostly empty
#: table outweighs the search it saves (with 8 probes per key it still
#: wins 3-5x at 256).  On the benchmark's row-store flights the kernel
#: costs the same 30-40 ms per round at any value from 8 to 1024.  32 is
#: the largest density with a clear lead in isolation, and it bounds a
#: table to 128 bytes per key, against the sorted path's 16.
DIRECT_DENSITY = 32

#: The sorted path searches the keys in the probe instead when the probe
#: ascends strictly and holds more than this many values per key.
PROBE_SEARCH_RATIO = 1


class KeyIndex:
    """An immutable lookup structure over ``keys``, in any order.

    Build it once per join, then :meth:`lookup` as often as the join
    has blocks or batches to probe.
    """

    __slots__ = ("size", "_integer", "_low", "_slots", "_sorted", "_order")

    def __init__(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys)
        self.size = len(keys)
        self._integer = keys.dtype.kind in "iu"
        self._slots = self._sorted = self._order = None
        if self.size == 0:
            return
        if self._integer:
            low = int(keys.min())
            span = int(keys.max()) - low + 1
            if span <= max(DIRECT_MIN_SPAN, DIRECT_DENSITY * self.size):
                self._low = low
                offsets = keys.astype(np.int64) - low
                rows = np.arange(self.size, dtype=np.int32)
                # one more slot, always a miss, for out-of-range probes
                slots = np.full(span + 1, -1, dtype=np.int32)
                slots[offsets] = rows
                if np.count_nonzero(slots >= 0) < self.size:
                    # duplicate keys: each slot keeps its first row
                    np.minimum.at(slots, offsets, rows)
                self._slots = slots
                return
        if bool(np.all(keys[1:] >= keys[:-1])):
            self._sorted = keys
        else:
            self._order = np.argsort(keys, kind="stable")
            self._sorted = keys[self._order]

    @property
    def direct(self) -> bool:
        """True when lookups go through the slot table."""
        return self._slots is not None

    def lookup(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(found, rows)`` for each probe value.

        ``found[i]`` says whether ``values[i]`` is a key; where it is,
        ``keys[rows[i]] == values[i]`` and ``rows[i]`` is the first such
        row.  ``rows`` holds no meaning where ``found`` is False.
        Integer keys take integer probes of any dtype but uint64.
        """
        values = np.asarray(values)
        if self._integer and (values.dtype.kind not in "iu"
                              or values.dtype == np.uint64):
            raise TypeError(
                f"integer keys cannot be probed with {values.dtype} values")
        if self.size == 0:
            return (np.zeros(len(values), dtype=bool),
                    np.zeros(len(values), dtype=np.intp))
        if self._slots is not None:
            # value - min wraps modulo 2**64 when it overflows; read as
            # unsigned, every value outside [min, max] is then at least
            # the table's length, so one clamp sends it to the miss slot
            offsets = np.subtract(values, self._low, dtype=np.int64)
            unsigned = offsets.view(np.uint64)
            np.minimum(unsigned, len(self._slots) - 1, out=unsigned)
            rows = self._slots[offsets]
            return rows >= 0, rows
        if self._integer and len(values) > PROBE_SEARCH_RATIO * self.size:
            common = np.result_type(self._sorted, values)
            if common.kind in "iu":
                probe = values.astype(common, copy=False)
                if bool(np.all(probe[1:] > probe[:-1])):
                    return self._search_probe(probe)
        idx = np.searchsorted(self._sorted, values)
        np.minimum(idx, self.size - 1, out=idx)
        found = self._sorted[idx] == values
        return found, (idx if self._order is None else self._order[idx])

    def _search_probe(self, probe: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup` of a strictly ascending ``probe``, by searching
        each key in it: ``k log n`` rather than ``n log k``.  Each value
        is then some key's place at most once, and a run of equal keys
        resolves through its first member only.  ``probe`` has a dtype
        that holds every key."""
        keys = self._sorted.astype(probe.dtype, copy=False)
        places = np.searchsorted(probe, keys)
        np.minimum(places, len(probe) - 1, out=places)
        hits = probe[places] == keys
        hits[1:] &= keys[1:] != keys[:-1]
        places = places[hits]
        found = np.zeros(len(probe), dtype=bool)
        found[places] = True
        rows = np.zeros(len(probe), dtype=np.intp)
        rows[places] = (np.flatnonzero(hits) if self._order is None
                        else self._order[hits])
        return found, rows


__all__ = ["KeyIndex", "DIRECT_MIN_SPAN", "DIRECT_DENSITY",
           "PROBE_SEARCH_RATIO"]
