"""Dimension-side join helpers for the column store.

Two distinct costs live here (Section 5.4.1):

* ``dimension_rows_for_keys`` — mapping fact FK values to dimension rows,
  i.e. positions in the dimension's projection.  When the projection's
  key column reads first, first + 1, first + 2, ... in position order
  (customer/supplier/part after key reassignment, until a dimension
  write lands a key mid-projection), the key *is* the position and the
  mapping is a subtraction — "simply a fast array look-up".  Otherwise
  (the date table, or a written dimension) a real join is performed
  through a :class:`~repro.plan.keys.KeyIndex` over the key column in
  projection order, charged as one hash probe per value.
* ``gather_attribute`` — extracting dimension attribute values at a set
  of rows.  The invisible join performs this once, after all predicates,
  in a vectorized pass over an L2-resident column; the late materialized
  join performs it out-of-order mid-plan, which is charged at the scalar
  rate — the "significant cost" of [5] the invisible join avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...errors import ExecutionError
from ...plan.keys import KeyIndex
from ...simio.stats import QueryStats
from ...core.config import ExecutionConfig


def dimension_rows_for_keys(
    fk_values: np.ndarray,
    stats: QueryStats,
    config: ExecutionConfig,
    contiguous_from: Optional[int],
    index: Optional[KeyIndex] = None,
) -> np.ndarray:
    """Dimension row index for each FK value.

    ``contiguous_from`` is the first key when keys are contiguous in
    position order (the common case, enabling direct array extraction);
    otherwise ``index`` must be built over the key column in position
    order and each value pays a hash probe.
    """
    if contiguous_from is not None:
        if config.block_iteration:
            stats.block_calls += 1
            stats.values_scanned_vector += len(fk_values)
        else:
            stats.values_scanned_scalar += len(fk_values)
        return fk_values.astype(np.int64) - contiguous_from
    if index is None:
        raise ExecutionError(
            "non-contiguous dimension keys require the key column"
        )
    stats.hash_probes += len(fk_values)
    found, rows = index.lookup(fk_values)
    if index.size and not found.all():
        raise ExecutionError("dangling foreign key during dimension lookup")
    return rows


def gather_attribute(
    attr_values: np.ndarray,
    rows: np.ndarray,
    stats: QueryStats,
    config: ExecutionConfig,
    out_of_order: bool = False,
) -> np.ndarray:
    """Dimension attribute values at ``rows``.

    ``out_of_order=True`` charges the scalar rate per extraction —
    the mid-plan, cache-unfriendly extraction pattern of the late
    materialized join.  The invisible join's post-predicate extraction
    uses the vectorized rate (the column fits in L2; Section 5.4.1).
    """
    width_words = max(1, attr_values.dtype.itemsize // 4)
    n = len(rows)
    if out_of_order or not config.block_iteration:
        stats.values_scanned_scalar += n * width_words
    else:
        stats.block_calls += 1
        stats.values_scanned_vector += n * width_words
    return attr_values[rows]


@dataclass
class LmJoinResult:
    """One late-materialized join's output: surviving fact positions are
    tracked by the caller; this records the dimension rows aligned with
    them so group-by attributes can be extracted."""

    dimension: str
    rows: np.ndarray


__all__ = ["dimension_rows_for_keys", "gather_attribute", "LmJoinResult"]
