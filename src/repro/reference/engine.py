"""Naive StarQuery evaluation over in-memory tables.

The algorithm is deliberately the simplest correct one:

1. build a boolean mask over the fact table from fact predicates;
2. for every filtered dimension, evaluate its predicates, then map each
   fact FK to its dimension row (dimension keys are unique and sorted, so
   a binary search suffices) and AND the dimension verdicts in;
3. decode the group-by attributes of the surviving fact rows, collect
   each group's aggregate inputs row by row, reduce them with Python's
   ``sum``/``len``/``min``/``max``, and sort with plain ``sorted``.

No I/O, no cost ledger, no sharing of operator code with the measured
engines — not their reducers, not their finalization, not their
ordering — this is the oracle they are all compared against.  Its output
semantics are stated here once: AVG is ``float(sum) / count`` (0.0 over
no rows), MIN/MAX over no rows are 0, groups come out in ascending key
order, and ORDER BY is a stable sort, so rows equal on every ORDER BY key
keep ascending group-key order.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ExecutionError
from ..plan.logical import (
    BinOp,
    ColumnRef,
    Expr,
    Literal,
    OrderKey,
    StarQuery,
)
from ..result import Cell, ResultSet, Row
from ..storage.table import Table
from ..plan.predicates import check_aggregates, eval_predicate


def _dimension_row_index(dim: Table, key_column: str, fk: np.ndarray
                         ) -> np.ndarray:
    """Dimension row position for each FK value (-1 when absent).

    Dimension keys are unique and ascending by construction (contiguous
    1..N for customer/supplier/part, chronological yyyymmdd for date).
    """
    keys = dim.column(key_column).data
    idx = np.searchsorted(keys, fk)
    idx_clipped = np.minimum(idx, len(keys) - 1)
    found = keys[idx_clipped] == fk
    return np.where(found, idx_clipped, -1)


def selected_positions(tables: Dict[str, Table], query: StarQuery
                       ) -> np.ndarray:
    """Fact-table positions satisfying every predicate of ``query``."""
    fact = tables[query.fact_table]
    mask = np.ones(fact.num_rows, dtype=bool)
    for pred in query.fact_predicates():
        mask &= eval_predicate(fact.column(pred.column), pred)
    dims_with_preds = {p.table for p in query.predicates
                       if p.table != query.fact_table}
    for dim_name in sorted(dims_with_preds):
        dim = tables[dim_name]
        dim_mask = np.ones(dim.num_rows, dtype=bool)
        for pred in query.dimension_predicates(dim_name):
            dim_mask &= eval_predicate(dim.column(pred.column), pred)
        fk = fact.column(query.fk_of(dim_name)).data
        rows = _dimension_row_index(dim, query.key_of(dim_name), fk)
        ok = rows >= 0
        verdict = np.zeros(fact.num_rows, dtype=bool)
        verdict[ok] = dim_mask[rows[ok]]
        mask &= verdict
    return np.flatnonzero(mask)


def _eval_expr(expr: Expr, fact: Table, positions: np.ndarray) -> np.ndarray:
    """Evaluate an aggregate-input expression to int64 over ``positions``."""
    if isinstance(expr, ColumnRef):
        column = fact.column(expr.column)
        if column.dictionary is not None:
            raise ExecutionError(
                f"string column {expr.column!r} in arithmetic expression"
            )
        return column.data[positions].astype(np.int64)
    if isinstance(expr, Literal):
        return np.full(len(positions), expr.value, dtype=np.int64)
    if isinstance(expr, BinOp):
        left = _eval_expr(expr.left, fact, positions)
        right = _eval_expr(expr.right, fact, positions)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise ExecutionError(f"unknown expression node {type(expr).__name__}")


def _group_values(tables: Dict[str, Table], query: StarQuery,
                  ref: ColumnRef, positions: np.ndarray) -> List[Cell]:
    """One group-by key's decoded value for every selected fact row."""
    fact = tables[query.fact_table]
    if ref.table == query.fact_table:
        column = fact.column(ref.column)
        raw = column.data[positions]
    else:
        dim = tables[ref.table]
        fk = fact.column(query.fk_of(ref.table)).data[positions]
        rows = _dimension_row_index(dim, query.key_of(ref.table), fk)
        if np.any(rows < 0):
            raise ExecutionError(
                f"dangling foreign key into {ref.table!r} "
                f"(query {query.name!r})"
            )
        column = dim.column(ref.column)
        raw = column.data[rows]
    if column.dictionary is None:
        return raw.tolist()
    strings = column.dictionary.strings
    return [strings[code] for code in raw.tolist()]


def _reduce(func: str, values: Sequence[int]) -> Cell:
    """One aggregate over one group's input values."""
    if func == "count":
        return len(values)
    if func == "sum":
        return sum(values)
    if func == "avg":
        return float(sum(values)) / len(values) if values else 0.0
    if not values:
        return 0  # empty input; SQL would say NULL, we normalize to 0
    return min(values) if func == "min" else max(values)


def _ordered(columns: List[str], rows: List[Row],
             order_by: Sequence[OrderKey]) -> List[Row]:
    """``rows`` sorted per ORDER BY, least significant key first (each
    pass is stable, so earlier order survives among ties)."""
    for key in reversed(order_by):
        position = columns.index(key.key)
        rows = sorted(rows, key=lambda row: row[position],
                      reverse=not key.ascending)
    return rows


def execute(tables: Dict[str, Table], query: StarQuery) -> ResultSet:
    """Evaluate ``query`` and return its ordered :class:`ResultSet`."""
    check_aggregates(query, tables)
    fact = tables[query.fact_table]
    positions = selected_positions(tables, query)
    inputs = [
        [0] * len(positions) if agg.func == "count"
        else _eval_expr(agg.expr, fact, positions).tolist()
        for agg in query.aggregates
    ]
    keys = [_group_values(tables, query, ref, positions)
            for ref in query.group_by]
    groups: Dict[tuple, List[tuple]] = {}
    if not query.group_by:
        groups[()] = []
    for key, row in zip(zip(*keys) if keys else itertools.repeat(()),
                        zip(*inputs)):
        groups.setdefault(key, []).append(row)
    rows: List[Row] = []
    for key in sorted(groups):
        per_agg = list(zip(*groups[key])) or [()] * len(query.aggregates)
        rows.append(key + tuple(
            _reduce(agg.func, values)
            for agg, values in zip(query.aggregates, per_agg)))
    columns = [g.column for g in query.group_by] + [
        agg.alias for agg in query.aggregates
    ]
    rows = _ordered(columns, rows, query.order_by)
    return ResultSet(columns, rows[:query.limit])  # [:None] keeps all


__all__ = ["execute", "selected_positions"]
