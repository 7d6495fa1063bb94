"""Aggregate function semantics shared by every engine.

Each supported function reduces to at most two int64 accumulators — a
primary and an optional secondary (AVG carries sum and count) — so
engines can accumulate incrementally (batch at a time, merging across
batches) and finalize once at the end.  All arithmetic is exact int64
until :func:`finalize`, so every engine produces bit-identical results
regardless of evaluation order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ExecutionError
from .logical import SUPPORTED_FUNCS, validate_func

Cell = Union[int, float]

#: one aggregate's per-group (primary, secondary) accumulators
GroupReduction = Tuple[np.ndarray, Optional[np.ndarray]]

_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max


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


def merge_group_reductions(
    funcs: Sequence[str],
    parts: Sequence[Tuple[np.ndarray, List[GroupReduction]]],
) -> Tuple[np.ndarray, List[GroupReduction]]:
    """Combine partial grouped reductions (per batch, or base and WOS
    delta) into one.

    Each part carries its own key matrix and accumulators; the merged
    result is identical to grouping the undivided input because every
    accumulator adds (sum/count/avg) or takes elementwise extrema
    (min/max).  Groups come out in ascending key order.
    """
    live = [(u, r) for u, r in parts if u.shape[1] > 0]
    if not live:
        return parts[0] if parts else (np.zeros((0, 0), dtype=np.int64), [])
    matrix = np.concatenate([u for u, _ in live], axis=1)
    uniq, inverse = factorize_groups(matrix)
    num_groups = uniq.shape[1]
    merged: List[GroupReduction] = []
    for i, func in enumerate(funcs):
        primary_in = np.concatenate([r[i][0] for _, r in live])
        if func in ("sum", "count", "avg"):
            primary = np.zeros(num_groups, dtype=np.int64)
            np.add.at(primary, inverse, primary_in)
        elif func == "min":
            primary = np.full(num_groups, _INT64_MAX, dtype=np.int64)
            np.minimum.at(primary, inverse, primary_in)
        elif func == "max":
            primary = np.full(num_groups, _INT64_MIN, dtype=np.int64)
            np.maximum.at(primary, inverse, primary_in)
        else:
            raise ExecutionError(f"cannot merge aggregate {func!r}")
        secondary: Optional[np.ndarray] = None
        if func == "avg":
            secondary = np.zeros(num_groups, dtype=np.int64)
            np.add.at(secondary, inverse,
                      np.concatenate([r[i][1] for _, r in live]))
        merged.append((primary, secondary))
    return uniq, merged


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
    """Turn one group's accumulators into its output cell: the one-group
    case of :func:`finalize_column`."""
    validate_func(func)
    cell = finalize_column(func, np.array([primary], dtype=np.int64),
                           np.array([secondary or 0], dtype=np.int64))
    return cell[0].item()


def finalize_column(func: str, primary: np.ndarray,
                    secondary: Optional[np.ndarray]) -> np.ndarray:
    """Turn accumulators into output cells a column at a time.  AVG is
    one float64 divide at the end (0.0 where the count is 0), so every
    engine agrees bit-for-bit; MIN/MAX of empty input map to 0 (SQL
    would say NULL)."""
    if func == "avg":
        out = np.zeros(len(primary), dtype=np.float64)
        return np.divide(primary, secondary, out=out, where=secondary != 0)
    if func in ("min", "max"):
        empty = _INT64_MAX if func == "min" else _INT64_MIN
        return np.where(primary == empty, 0, primary)
    return primary


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
    "finalize_column",
    "merge_group_reductions",
    "GroupReduction",
]
