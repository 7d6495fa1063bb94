"""Vectorized aggregation and expression evaluation for the column store.

Aggregate inputs are evaluated column-at-a-time over int64; grouped
aggregation consolidates raw group codes with a single sort-based pass.
Charges are per value per operator pass, at the vector or scalar rate
depending on block iteration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import ExecutionError
from ...plan import aggregates as agg_semantics
from ...plan.aggregates import GroupReduction
from ...plan.logical import BinOp, ColumnRef, Expr, Literal
from ...simio.stats import QueryStats
from ...core.config import ExecutionConfig


def _charge(stats: QueryStats, config: ExecutionConfig, n: int,
            passes: int = 1) -> None:
    if config.block_iteration:
        stats.block_calls += 1
        stats.values_scanned_vector += n * passes
    else:
        stats.values_scanned_scalar += n * passes


def eval_fact_expr(
    expr: Expr,
    fact_columns: Dict[str, np.ndarray],
    stats: QueryStats,
    config: ExecutionConfig,
) -> np.ndarray:
    """Evaluate an aggregate-input expression over fetched fact columns."""
    if isinstance(expr, ColumnRef):
        try:
            return fact_columns[expr.column].astype(np.int64)
        except KeyError:
            raise ExecutionError(
                f"fact column {expr.column!r} was not fetched"
            ) from None
    if isinstance(expr, Literal):
        n = len(next(iter(fact_columns.values()))) if fact_columns else 0
        return np.full(n, expr.value, dtype=np.int64)
    if isinstance(expr, BinOp):
        left = eval_fact_expr(expr.left, fact_columns, stats, config)
        right = eval_fact_expr(expr.right, fact_columns, stats, config)
        _charge(stats, config, len(left))
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise ExecutionError(f"unknown expression node {type(expr).__name__}")


def scalar_aggregate(values_list: Sequence[np.ndarray], stats: QueryStats,
                     config: ExecutionConfig,
                     funcs: Optional[Sequence[str]] = None) -> List:
    """Reduce each input array (the no-GROUP-BY case of flight 1)."""
    if funcs is None:
        funcs = ["sum"] * len(values_list)
    out: List = []
    for func, values in zip(funcs, values_list):
        _charge(stats, config, len(values))
        primary, secondary = agg_semantics.reduce_scalar(func, values)
        out.append(agg_semantics.finalize(func, primary, secondary))
    return out



def grouped_aggregate(
    group_arrays: Sequence[np.ndarray],
    agg_arrays: Sequence[np.ndarray],
    stats: QueryStats,
    config: ExecutionConfig,
    funcs: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, List[GroupReduction]]:
    """Group and reduce.

    Returns (group key matrix [k x num_groups], per-aggregate (primary,
    secondary) accumulators — see :mod:`repro.plan.aggregates`).
    Charges one pass per value per group column (key formation) plus one
    per value per aggregate (accumulation).
    """
    if not group_arrays:
        raise ExecutionError("grouped_aggregate requires group columns")
    if funcs is None:
        funcs = ["sum"] * len(agg_arrays)
    n = len(group_arrays[0])
    for arr in group_arrays:
        _charge(stats, config, len(arr))
    matrix = np.stack([a.astype(np.int64) for a in group_arrays])
    if n == 0:
        return matrix, [(np.zeros(0, dtype=np.int64), None)
                        for _ in agg_arrays]
    uniq, inverse = agg_semantics.factorize_groups(matrix)
    reduced: List[GroupReduction] = []
    for func, values in zip(funcs, agg_arrays):
        _charge(stats, config, len(values))
        reduced.append(agg_semantics.reduce_groups(func, values, inverse,
                                                   uniq.shape[1]))
    return uniq, reduced


__all__ = [
    "eval_fact_expr",
    "scalar_aggregate",
    "grouped_aggregate",
]
