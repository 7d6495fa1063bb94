"""The columnar result tail every engine finishes through.

A grouped query reaches the tail as columns, groups unique and in
ascending key order: one :class:`GroupColumn` of int64 codes per GROUP
BY key — codes that sort like their values (integers, codes of a sorted
dictionary, or indexes into the sorted ``np.unique`` of raw bytes) — and
one finalized array per aggregate.  :func:`finish` orders with one
stable ``np.lexsort`` (so rows equal on every ORDER BY key keep
ascending group-key order), cuts LIMIT from the index vector, decodes
each group column with one gather and builds Python tuples once.  It
charges nothing: the engines charge ``dict_lookups`` and
``sort_compares`` where they always have (``docs/architecture.md``,
"Result tail").
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..result import ResultSet
from .logical import OrderKey


class GroupColumn(NamedTuple):
    """One GROUP BY output column: sortable int64 ``codes``, shown
    through ``vocabulary`` (None: the codes are the values)."""

    codes: np.ndarray
    vocabulary: Optional[np.ndarray] = None

    def decode(self, index: np.ndarray) -> list:
        codes = self.codes[index]
        return (codes if self.vocabulary is None
                else self.vocabulary[codes]).tolist()


def encode_group(raw: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """int64 codes for one group column's raw values, plus the sorted
    ``str`` vocabulary they index when the values are strings or bytes
    (None for integers, which are their own codes)."""
    if raw.dtype.kind in "SU":
        vocabulary, codes = np.unique(raw, return_inverse=True)
        return codes.astype(np.int64), vocabulary.astype(str)
    return raw.astype(np.int64), None


def _sort_key(column: np.ndarray, ascending: bool) -> np.ndarray:
    if ascending:
        return column
    return -column if column.dtype.kind == "f" else ~column


def finish(names: Sequence[str], groups: Sequence[GroupColumn],
           aggregates: Sequence[np.ndarray], order_by: Sequence[OrderKey],
           limit: Optional[int]) -> ResultSet:
    """Order, limit, decode and materialize grouped output columns
    (``names`` lists the group columns, then the aggregates)."""
    keys = [g.codes for g in groups] + list(aggregates)
    index = np.lexsort([
        _sort_key(keys[names.index(k.key)], k.ascending)
        for k in reversed(order_by)
    ]) if order_by else np.arange(len(keys[0]))
    index = index[:limit]
    columns = [g.decode(index) for g in groups] + [
        a[index].tolist() for a in aggregates]
    return ResultSet(list(names), list(zip(*columns)))


__all__ = ["GroupColumn", "encode_group", "finish"]
