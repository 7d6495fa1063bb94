"""Early materialization: tuple construction and row-style execution.

When late materialization is disabled (the ``l`` configurations and the
"CS Row-MV" mode of Figure 5), C-Store reads the needed columns, stitches
them into rows at the *start* of the plan, and executes the rest with
row-store operators (Section 6.1).  This module charges that path
honestly:

* ``construct_tuples`` — one tuple construction plus one attribute copy
  per column per row (decompression was already charged at read time);
* ``row_pipeline`` — per-tuple predicate evaluation, per-tuple hash
  probes into dimension tables, per-tuple attribute copies for the
  values carried along, and per-tuple aggregate updates, exactly the
  ledger profile of the row engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import ExecutionError
from ...plan.keys import KeyIndex
from ...plan.logical import (
    BinOp,
    ColumnRef,
    Expr,
    Literal,
    StarQuery,
)
from ...plan.predicates import domain_mask
from ...simio.stats import QueryStats


@dataclass
class DimensionRows:
    """A filtered dimension materialized for row-style probing:
    ``keys`` sorted ascending, attribute arrays aligned with them."""

    dimension: str
    keys: np.ndarray
    attrs: Dict[str, np.ndarray]

    @cached_property
    def index(self) -> KeyIndex:
        """The probe structure over ``keys``, built on first use."""
        return KeyIndex(self.keys)


def construct_tuples(fact_arrays: Dict[str, np.ndarray],
                     stats: QueryStats) -> int:
    """Charge the stitching of column data into rows; returns row count."""
    if not fact_arrays:
        return 0
    n = len(next(iter(fact_arrays.values())))
    for name, arr in fact_arrays.items():
        if len(arr) != n:
            raise ExecutionError(
                f"ragged tuple construction: {name!r} has {len(arr)} rows, "
                f"expected {n}"
            )
    stats.tuples_constructed += n
    stats.tuple_attrs_copied += n * len(fact_arrays)
    return n


def _width_words(arr: np.ndarray) -> int:
    return max(1, arr.dtype.itemsize // 4)


def _apply_row_predicate(values: np.ndarray, domain, stats: QueryStats
                         ) -> np.ndarray:
    """Per-tuple predicate evaluation (scalar charges)."""
    n = len(values)
    stats.iterator_calls += n
    stats.attr_extractions += n
    comparisons = 2 if isinstance(domain, tuple) else max(1, len(domain))
    stats.values_scanned_scalar += n * _width_words(values) * comparisons
    return domain_mask(values, domain)


def _eval_expr_rowwise(expr: Expr, column: Callable[[str], np.ndarray],
                       n: int, stats: QueryStats) -> np.ndarray:
    if isinstance(expr, ColumnRef):
        stats.attr_extractions += n
        return column(expr.column).astype(np.int64)
    if isinstance(expr, Literal):
        return np.full(n, expr.value, dtype=np.int64)
    if isinstance(expr, BinOp):
        left = _eval_expr_rowwise(expr.left, column, n, stats)
        right = _eval_expr_rowwise(expr.right, column, n, stats)
        stats.values_scanned_scalar += n
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise ExecutionError(f"unknown expression node {type(expr).__name__}")


def row_pipeline(
    query: StarQuery,
    fact_arrays: Dict[str, np.ndarray],
    fact_pred_domains: Sequence[Tuple[str, object]],
    dims: Sequence[DimensionRows],
    stats: QueryStats,
    num_rows: Optional[int] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[Optional[str]]]:
    """Row-store-style tail over constructed tuples.

    Returns (group arrays raw, aggregate input arrays, group source
    dimension per group column — None for fact columns).  The caller
    consolidates and decodes.  ``num_rows`` supplies the tuple count
    when the plan references no fact columns at all (a bare
    ``count(*)``), where ``fact_arrays`` cannot speak for it.
    """
    n = construct_tuples(fact_arrays, stats)
    if not fact_arrays and num_rows is not None:
        n = num_rows

    # per-tuple selection
    mask = np.ones(n, dtype=bool)
    for column, domain in fact_pred_domains:
        alive = np.flatnonzero(mask)
        verdict = _apply_row_predicate(fact_arrays[column][alive], domain,
                                       stats)
        mask[alive[~verdict]] = False
    selector = np.flatnonzero(mask)

    # per-tuple dimension joins: each probe charges as a row store's
    # does, attributes carried along included, but only the surviving
    # fact positions and each dimension's matched rows travel; values
    # are gathered once, after the last join
    matched: Dict[str, np.ndarray] = {}
    for dim in dims:
        fk_values = fact_arrays[query.fk_of(dim.dimension)][selector]
        stats.iterator_calls += len(fk_values)
        stats.hash_probes += len(fk_values)
        found, rows = dim.index.lookup(fk_values)
        if not found.all():
            selector, rows = selector[found], rows[found]
            matched = {d: r[found] for d, r in matched.items()}
        matched[dim.dimension] = rows
        stats.tuple_attrs_copied += len(rows) * len(dim.attrs)

    # per-tuple aggregation inputs
    rows_final = len(selector)
    kept: Dict[str, np.ndarray] = {}

    def column(name: str) -> np.ndarray:
        if name not in kept:
            kept[name] = fact_arrays[name][selector]
        return kept[name]

    agg_arrays = [
        np.ones(rows_final, dtype=np.int64) if agg.func == "count"
        else _eval_expr_rowwise(agg.expr, column, rows_final, stats)
        for agg in query.aggregates
    ]
    stats.agg_updates += rows_final

    attrs = {dim.dimension: dim.attrs for dim in dims}
    group_arrays: List[np.ndarray] = []
    group_dims: List[Optional[str]] = []
    for g in query.group_by:
        if g.table == query.fact_table:
            stats.attr_extractions += rows_final
            group_arrays.append(column(g.column))
            group_dims.append(None)
        else:
            group_arrays.append(attrs[g.table][g.column][matched[g.table]])
            group_dims.append(g.table)
    return group_arrays, agg_arrays, group_dims


__all__ = ["DimensionRows", "construct_tuples", "row_pipeline"]
