"""Orderdate-year partitioning of fact tables.

System X partitions the lineorder table (and each materialized view) on
orderdate by year; queries with a date restriction scan only matching
partitions — worth about a factor of two on average (Section 6.1/6.2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

from ..plan.logical import StarQuery
from ..plan.predicates import eval_predicate
from ..storage.table import Table


def year_of_datekey(datekeys: np.ndarray) -> np.ndarray:
    """The year component of yyyymmdd keys."""
    return datekeys // 10000


def partition_by_year(table: Table, date_column: str = "orderdate"
                      ) -> Dict[int, Table]:
    """Split ``table`` into one sub-table per orderdate year.

    Row order inside each partition preserves the parent order, so a
    sorted parent yields sorted partitions.
    """
    years = year_of_datekey(table.column(date_column).data)
    out: Dict[int, Table] = {}
    for year in np.unique(years):
        positions = np.flatnonzero(years == year)
        part = table.take(positions, new_name=f"{table.name}_y{int(year)}")
        out[int(year)] = part
    return out


def qualifying_years(date_table: Table, query: StarQuery,
                     all_years: Sequence[int]) -> List[int]:
    """Years a partitioned fact scan must touch for ``query``.

    Derived by applying the query's date-dimension predicates to the
    (tiny, catalog-resident) date table — the pruning a DBA achieves by
    restricting on the partitioning column.  No date predicates means
    every partition qualifies.
    """
    preds = [p for p in query.predicates if p.table == "date"]
    if not preds:
        return list(all_years)
    mask = np.ones(date_table.num_rows, dtype=bool)
    for pred in preds:
        mask &= eval_predicate(date_table.column(pred.column), pred)
    keys = date_table.column("datekey").data[mask]
    if len(keys) == 0:
        return []
    hit = set(int(y) for y in np.unique(year_of_datekey(keys)))
    return [y for y in all_years if y in hit]


__all__ = ["partition_by_year", "qualifying_years", "year_of_datekey"]
