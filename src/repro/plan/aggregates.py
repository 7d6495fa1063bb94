"""Aggregate function semantics shared by every engine.

Each supported function reduces to at most two int64 accumulators — a
primary and an optional secondary (AVG carries sum and count) — so
engines can accumulate incrementally (batch at a time, merging across
batches) and finalize once at the end.  All arithmetic is exact int64
until :func:`finalize`, so every engine produces bit-identical results
regardless of evaluation order.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..errors import PlanError

#: Functions the IR accepts.
SUPPORTED_FUNCS = ("sum", "count", "min", "max", "avg")

Cell = Union[int, float]

_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max


def validate_func(func: str) -> None:
    if func not in SUPPORTED_FUNCS:
        raise PlanError(
            f"unsupported aggregate {func!r}; supported: "
            f"{', '.join(SUPPORTED_FUNCS)}"
        )


def needs_expr_values(func: str) -> bool:
    """COUNT ignores its argument values; everything else needs them."""
    return func != "count"


def factorize_groups(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unique group keys (lexicographic by row order) and per-row inverse.

    Equivalent to ``np.unique(matrix, axis=1, return_inverse=True)`` but
    avoids the notoriously slow ``axis=`` path: the k group-code rows are
    ravelled into a single int64 packed key (first row most significant,
    so sorted packed order == lexicographic column order) and factorized
    with a 1-D ``np.unique``.  Falls back to the axis path only when the
    combined key domain cannot fit in an int64.
    """
    k, n = matrix.shape
    if n == 0:
        return matrix, np.zeros(0, dtype=np.int64)
    if k == 1:
        uniq, inverse = np.unique(matrix[0], return_inverse=True)
        return uniq[np.newaxis, :], inverse
    mins = matrix.min(axis=1)
    maxs = matrix.max(axis=1)
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(mins, maxs)]
    domain = 1
    for span in spans:  # exact product in Python ints; no silent overflow
        domain *= span
    if domain > 2 ** 62:
        uniq, inverse = np.unique(matrix, axis=1, return_inverse=True)
        return uniq, inverse
    key = np.zeros(n, dtype=np.int64)
    for row, lo, span in zip(matrix, mins, spans):
        key *= span
        key += row - lo
    _keys, index, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
    return matrix[:, index], inverse


def reduce_groups(
    func: str,
    values: np.ndarray,
    inverse: np.ndarray,
    num_groups: int,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-group (primary, secondary) accumulators for one batch.

    ``values`` are the aggregate-input expression values (int64);
    ``inverse`` maps each row to its group index.
    """
    validate_func(func)
    if func == "count":
        primary = np.zeros(num_groups, dtype=np.int64)
        np.add.at(primary, inverse, 1)
        return primary, None
    if func in ("sum", "avg"):
        primary = np.zeros(num_groups, dtype=np.int64)
        np.add.at(primary, inverse, values)
        if func == "sum":
            return primary, None
        secondary = np.zeros(num_groups, dtype=np.int64)
        np.add.at(secondary, inverse, 1)
        return primary, secondary
    if func == "min":
        primary = np.full(num_groups, _INT64_MAX, dtype=np.int64)
        np.minimum.at(primary, inverse, values)
        return primary, None
    primary = np.full(num_groups, _INT64_MIN, dtype=np.int64)
    np.maximum.at(primary, inverse, values)
    return primary, None


def reduce_scalar(func: str, values: np.ndarray
                  ) -> Tuple[int, Optional[int]]:
    """The no-GROUP-BY reduction of one batch."""
    validate_func(func)
    n = len(values)
    if func == "count":
        return n, None
    if func == "sum":
        return int(values.sum()) if n else 0, None
    if func == "avg":
        return (int(values.sum()) if n else 0), n
    if n == 0:
        return (_INT64_MAX, None) if func == "min" else (_INT64_MIN, None)
    if func == "min":
        return int(values.min()), None
    return int(values.max()), None


def merge(func: str, old: Tuple[int, Optional[int]],
          new: Tuple[int, Optional[int]]) -> Tuple[int, Optional[int]]:
    """Combine two partial accumulators (across batches)."""
    validate_func(func)
    if func == "min":
        return min(old[0], new[0]), None
    if func == "max":
        return max(old[0], new[0]), None
    if func == "avg":
        return old[0] + new[0], (old[1] or 0) + (new[1] or 0)
    return old[0] + new[0], None


def empty_accumulator(func: str) -> Tuple[int, Optional[int]]:
    """The identity element for :func:`merge`."""
    validate_func(func)
    if func == "min":
        return _INT64_MAX, None
    if func == "max":
        return _INT64_MIN, None
    if func == "avg":
        return 0, 0
    return 0, None


def finalize(func: str, primary: int, secondary: Optional[int]) -> Cell:
    """Turn accumulators into the output cell (AVG divides exactly at
    the end, so every engine agrees bit-for-bit)."""
    validate_func(func)
    if func == "avg":
        count = secondary or 0
        return float(primary) / count if count else 0.0
    if func == "min" and primary == _INT64_MAX:
        return 0  # empty input; SQL would say NULL, we normalize to 0
    if func == "max" and primary == _INT64_MIN:
        return 0
    return int(primary)


__all__ = [
    "SUPPORTED_FUNCS",
    "validate_func",
    "needs_expr_values",
    "factorize_groups",
    "reduce_groups",
    "reduce_scalar",
    "merge",
    "empty_accumulator",
    "finalize",
]
