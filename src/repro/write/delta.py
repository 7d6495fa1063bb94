"""The delta evaluator: one query over the visible WOS fact rows.

A snapshot read whose epoch sees buffered fact inserts cannot be answered
from base pages alone.  The engines run their normal (patched) plan over
the base and ask this module for a *partial* over the WOS side — the
visible WOS fact rows joined against the effective dimensions — then
merge the two partials with :mod:`repro.plan.combine`.

The partial runs on the engines' own kernels in one pass over the WOS
image's columns: fact predicate masks, foreign keys resolved through the
image's :class:`~repro.plan.keys.KeyIndex` per effective dimension,
dimension predicate masks gathered at those rows, then the shared
grouping, reduction and result tail.  The WOS is in-memory by design,
so the delta pays no I/O; it pays compute, recorded under the
``wos-merge`` span by the caller: each buffered row checked once per
fact conjunct, a hash probe per surviving row per joined dimension, and
an aggregate update per surviving row.  ``delta_rows_merged`` counts the
buffered rows examined, so a read-only run is provably delta-free.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..plan.aggregates import (factorize_groups, finalize, finalize_column,
                               needs_expr_values, reduce_groups,
                               reduce_scalar)
from ..plan.logical import BinOp, ColumnRef, Expr, Literal, StarQuery
from ..plan.predicates import eval_predicate
from ..plan.tail import GroupColumn, finish
from ..result import ResultSet
from ..simio.stats import QueryStats
from ..storage.table import Table
from .store import Visibility


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _expr_values(expr: Expr, fact: Table, rows: np.ndarray) -> np.ndarray:
    """An aggregate-input expression as int64 over fact ``rows``."""
    if isinstance(expr, ColumnRef):
        column = fact.column(expr.column)
        if column.dictionary is not None:
            raise ExecutionError(
                f"string column {expr.column!r} in arithmetic expression")
        return column.data[rows].astype(np.int64)
    if isinstance(expr, Literal):
        return np.full(len(rows), expr.value, dtype=np.int64)
    if isinstance(expr, BinOp):
        return _ARITHMETIC[expr.op](_expr_values(expr.left, fact, rows),
                                    _expr_values(expr.right, fact, rows))
    raise ExecutionError(f"unknown expression node {type(expr).__name__}")


def delta_partial(query: StarQuery, vis: Visibility,
                  stats: QueryStats) -> ResultSet:
    """Evaluate ``query`` over ``vis``'s delta tables, charging ``stats``:
    a gather-ready partial when ``query`` is the partial query the
    caller ran over the base, so hidden aggregates line up."""
    tables = vis.delta_tables()
    fact = tables[query.fact_table]
    n = fact.num_rows
    fact_predicates = query.fact_predicates()
    mask = np.ones(n, dtype=bool)
    for pred in fact_predicates:
        mask &= eval_predicate(fact.column(pred.column), pred)
    dims = query.dimensions_used()
    at = {}
    for dim in dims:
        index = vis.key_index(dim, query.key_of(dim))
        found, rows = index.lookup(fact.column(query.fk_of(dim)).data)
        at[dim] = (found, rows)
        for pred in query.dimension_predicates(dim):
            verdict = found.copy()
            verdict[found] = eval_predicate(
                tables[dim].column(pred.column), pred)[rows[found]]
            mask &= verdict
    survivors = np.flatnonzero(mask)
    stats.delta_rows_merged += n
    # every buffered row is checked against the fact conjuncts (at least
    # one pass even for an unpredicated query: visibility itself reads
    # the row)
    stats.values_scanned_scalar += n * max(1, len(fact_predicates))
    stats.hash_probes += len(survivors) * len(dims)
    stats.agg_updates += len(survivors)

    names = ([g.column for g in query.group_by]
             + [a.alias for a in query.aggregates])
    # COUNT reads only how many inputs there are
    inputs = [_expr_values(a.expr, fact, survivors)
              if needs_expr_values(a.func) else survivors
              for a in query.aggregates]
    if not query.group_by:
        row = tuple(finalize(a.func, *reduce_scalar(a.func, values))
                    for a, values in zip(query.aggregates, inputs))
        return ResultSet(names, [row]).limited(query.limit)
    keys = []
    for ref in query.group_by:
        if ref.table == query.fact_table:
            column, rows = fact.column(ref.column), survivors
        else:
            found, rows = at[ref.table]
            if not found[survivors].all():
                raise ExecutionError(
                    f"dangling foreign key into {ref.table!r} "
                    f"(query {query.name!r})")
            column = tables[ref.table].column(ref.column)
            rows = rows[survivors]
        keys.append((column.data[rows].astype(np.int64), column.dictionary))
    uniq, inverse = factorize_groups(np.stack([codes for codes, _ in keys]))
    aggregates = [
        finalize_column(a.func,
                        *reduce_groups(a.func, values, inverse, uniq.shape[1]))
        for a, values in zip(query.aggregates, inputs)]
    groups = [GroupColumn(uniq[k], None if dictionary is None
                          else dictionary.vocabulary)
              for k, (_, dictionary) in enumerate(keys)]
    return finish(names, groups, aggregates, query.order_by, query.limit)


__all__ = ["delta_partial"]
