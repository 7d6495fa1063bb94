"""In-memory column blocks: the unit passed between column operators.

Section 5.3 of the paper: column stores hand *blocks* of values between
operators in a single call, iterating fixed-width values as an array.
Two block shapes exist here:

* :class:`ArrayBlock` — a decoded numpy vector (integer values, dictionary
  codes, or raw ``S<n>`` bytes when compression is off);
* :class:`RleBlock` — run values + run lengths, kept compressed so that
  operators can work on runs directly (Section 5.1).

Each block knows its starting position within the column, which is how
late materialization lines blocks up with position lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np


@dataclass(frozen=True)
class ArrayBlock:
    """A decoded slice of a column: ``count`` values from ``start``."""

    start: int
    data: np.ndarray

    @property
    def count(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.start + len(self.data)

    @property
    def width_words(self) -> int:
        """Value width in 4-byte words — the CPU cost multiplier for
        operating on wide (e.g. uncompressed string) values."""
        return max(1, self.data.dtype.itemsize // 4)


@dataclass(frozen=True)
class RleBlock:
    """A compressed slice: run values with their lengths, from ``start``."""

    start: int
    run_values: np.ndarray
    run_lengths: np.ndarray

    @cached_property
    def count(self) -> int:
        return int(self.run_lengths.sum())

    @property
    def end(self) -> int:
        return self.start + self.count

    @property
    def num_runs(self) -> int:
        return len(self.run_values)

    def to_array(self) -> np.ndarray:
        """Expand to a plain vector (the caller charges decompression)."""
        return np.repeat(self.run_values, self.run_lengths)

    def run_starts(self) -> np.ndarray:
        """Absolute start position of each run."""
        out = np.empty(self.num_runs, dtype=np.int64)
        out[0:1] = self.start
        if self.num_runs > 1:
            np.cumsum(self.run_lengths[:-1], out=out[1:])
            out[1:] += self.start
        return out


Block = Union[ArrayBlock, RleBlock]

__all__ = ["ArrayBlock", "RleBlock", "Block"]
