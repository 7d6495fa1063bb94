"""Position lists: the intermediate currency of late materialization.

Section 5.2: "Depending on the predicate selectivity, this list of
positions can be represented as a simple array, a bit string ... or as a
set of ranges of positions.  These position representations are then
intersected ... to create a single position list."

Three representations are implemented, each knowing how to intersect
with the others and how to convert to a sorted position array.  Range x
range intersection is O(1); bitmap x bitmap is a vectorized AND charged
per word of overlap; arrays are merged.  ``intersect`` dispatches to the
cheapest combination and charges ``position_ops`` for the work actually
performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ExecutionError
from ..simio.stats import QueryStats


@dataclass(frozen=True)
class RangePositions:
    """The contiguous positions [start, stop)."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ExecutionError(
                f"invalid position range [{self.start}, {self.stop})"
            )

    @property
    def count(self) -> int:
        return self.stop - self.start

    def bounds(self) -> Optional[Tuple[int, int]]:
        return (self.start, self.stop) if self.count else None

    def to_array(self) -> np.ndarray:
        return np.arange(self.start, self.stop, dtype=np.int64)


@dataclass(frozen=True)
class BitmapPositions:
    """A bit per position over [offset, offset + len(bits)).  Count,
    bounds and the survivor array are computed once per list; the array
    is shared by every fetch from it, so it is read-only."""

    offset: int
    bits: np.ndarray  # bool

    @cached_property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    @cached_property
    def _bounds(self) -> Optional[Tuple[int, int]]:
        if self.count == 0:
            return None
        first = int(np.argmax(self.bits))
        last = len(self.bits) - 1 - int(np.argmax(self.bits[::-1]))
        return (self.offset + first, self.offset + last + 1)

    def bounds(self) -> Optional[Tuple[int, int]]:
        return self._bounds

    @cached_property
    def _array(self) -> np.ndarray:
        array = np.flatnonzero(self.bits).astype(np.int64, copy=False)
        array += self.offset
        array.setflags(write=False)
        return array

    def to_array(self) -> np.ndarray:
        return self._array


@dataclass(frozen=True)
class ArrayPositions:
    """An explicit, ascending array of positions."""

    positions: np.ndarray

    @property
    def count(self) -> int:
        return len(self.positions)

    def bounds(self) -> Optional[Tuple[int, int]]:
        if len(self.positions) == 0:
            return None
        return (int(self.positions[0]), int(self.positions[-1]) + 1)

    def to_array(self) -> np.ndarray:
        return self.positions


Positions = Union[RangePositions, BitmapPositions, ArrayPositions]

EMPTY = ArrayPositions(np.zeros(0, dtype=np.int64))


def from_bitmap_maybe_range(offset: int, bits: np.ndarray) -> Positions:
    """Collapse a bitmap whose set bits are contiguous into a range.

    Contiguity is decided from the popcount and the first set bit — no
    index array is materialized just to count or bound the bitmap.
    """
    count = int(np.count_nonzero(bits))
    if count == 0:
        return EMPTY
    first = int(np.argmax(bits))
    if bits[first:first + count].all():
        return RangePositions(offset + first, offset + first + count)
    out = BitmapPositions(offset, bits)
    # seed the cached popcount (cached_property reads the instance dict)
    out.__dict__["count"] = count
    return out


def _clip_bitmap(bm: BitmapPositions, start: int, stop: int
                 ) -> BitmapPositions:
    lo = max(bm.offset, start)
    hi = min(bm.offset + len(bm.bits), stop)
    if hi <= lo:
        return BitmapPositions(start, np.zeros(0, dtype=bool))
    return BitmapPositions(lo, bm.bits[lo - bm.offset:hi - bm.offset])


def intersect(a: Positions, b: Positions, stats: QueryStats) -> Positions:
    """AND two position lists, charging per element actually combined."""
    # empty short-circuits
    if a.count == 0 or b.count == 0:
        return EMPTY
    if isinstance(a, RangePositions) and isinstance(b, RangePositions):
        stats.position_ops += 1
        lo, hi = max(a.start, b.start), min(a.stop, b.stop)
        return RangePositions(lo, hi) if hi > lo else EMPTY
    if isinstance(a, RangePositions):
        return intersect(b, a, stats)
    if isinstance(b, RangePositions):
        # clip a to the range
        if isinstance(a, BitmapPositions):
            clipped = _clip_bitmap(a, b.start, b.stop)
            stats.position_ops += max(len(clipped.bits) // 64, 1)
            return from_bitmap_maybe_range(clipped.offset, clipped.bits)
        inside = a.positions[(a.positions >= b.start)
                             & (a.positions < b.stop)]
        stats.position_ops += len(a.positions)
        return ArrayPositions(inside)
    if isinstance(a, BitmapPositions) and isinstance(b, BitmapPositions):
        lo = max(a.offset, b.offset)
        hi = min(a.offset + len(a.bits), b.offset + len(b.bits))
        if hi <= lo:
            return EMPTY
        bits = (a.bits[lo - a.offset:hi - a.offset]
                & b.bits[lo - b.offset:hi - b.offset])
        # bitwise AND proceeds a word (64 positions) at a time
        stats.position_ops += max((hi - lo) // 64, 1)
        return from_bitmap_maybe_range(lo, bits)
    if isinstance(a, BitmapPositions):
        return intersect(b, a, stats)
    if isinstance(b, BitmapPositions):
        arr = a.positions
        inside = arr[(arr >= b.offset) & (arr < b.offset + len(b.bits))]
        keep = b.bits[inside - b.offset]
        stats.position_ops += len(arr)
        return ArrayPositions(inside[keep])
    # array x array
    stats.position_ops += a.count + b.count
    common = np.intersect1d(a.positions, b.positions, assume_unique=True)
    return ArrayPositions(common)


__all__ = [
    "RangePositions",
    "BitmapPositions",
    "ArrayPositions",
    "Positions",
    "EMPTY",
    "intersect",
    "from_bitmap_maybe_range",
]
