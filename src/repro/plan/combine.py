"""The partial-aggregate combiner behind the WOS merge read.

A snapshot read over pending writes answers one query from two inputs —
the base store and the write store's delta — and must return exactly the
rows one undivided input would.  :func:`partial_plan` rewrites the query
so that each side's result is a *mergeable* partial; :func:`gather`
merges the partials into the final result.

* AVG is scattered as a hidden (SUM, COUNT) pair and divided once at the
  gather: averaging per-side averages is wrong.
* Scalar MIN/MAX need a hidden row count, because an *empty* side's
  MIN finalizes to the engines' 0-normalization, which must not win the
  merge.
* ORDER BY and LIMIT move to the gather: no side knows the global order
  or cut-off.

Gather-side merging is charged nowhere — like trace construction, it is
coordinator bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..result import ResultSet
from .aggregates import (
    empty_accumulator,
    finalize,
    finalize_column,
    merge,
    merge_group_reductions,
)
from .logical import AggExpr, Literal, StarQuery
from .tail import GroupColumn, encode_group, finish

#: alias of the hidden per-partial row count behind scalar MIN/MAX
ROWS_ALIAS = "__partial_rows"


@dataclass(frozen=True)
class GatherSpec:
    """How to split a query into partials and merge them.

    ``cells`` has one entry per *original* aggregate: ``("avg", i, j)``
    points at the hidden SUM and COUNT result positions, ``(func, i)``
    at a passthrough position.  Positions index the partial result row
    *after* the group-by prefix.
    """

    partial_query: StarQuery
    cells: Tuple[Tuple, ...]
    rows_pos: Optional[int]


def partial_plan(query: StarQuery) -> GatherSpec:
    """Rewrite ``query`` so that each input's result is a partial.

    ORDER BY and LIMIT move to the gather; AVG scatters as SUM+COUNT;
    scalar queries containing MIN/MAX grow a hidden ``count(1)`` so
    empty partials can be told apart from partials whose true extreme
    is 0.
    """
    partial_aggs: List[AggExpr] = []
    cells: List[Tuple] = []
    for i, agg in enumerate(query.aggregates):
        if agg.func == "avg":
            cells.append(("avg", len(partial_aggs), len(partial_aggs) + 1))
            partial_aggs.append(
                AggExpr("sum", agg.expr, f"__partial_{i}_sum"))
            partial_aggs.append(
                AggExpr("count", agg.expr, f"__partial_{i}_cnt"))
        else:
            cells.append((agg.func, len(partial_aggs)))
            partial_aggs.append(agg)
    rows_pos: Optional[int] = None
    if not query.group_by and any(
        a.func in ("min", "max") for a in query.aggregates
    ):
        rows_pos = len(partial_aggs)
        partial_aggs.append(AggExpr("count", Literal(1), ROWS_ALIAS))
    partial_query = replace(
        query,
        aggregates=tuple(partial_aggs),
        order_by=(),
        limit=None,
    )
    return GatherSpec(partial_query, tuple(cells), rows_pos)


def gather(query: StarQuery, spec: GatherSpec,
           partials: Sequence[ResultSet]) -> ResultSet:
    """Merge partial results into the final result.

    Merging is positional — group-by columns may share names across
    dimensions (Q3.1 groups on two ``nation`` columns), so names cannot
    key anything.  Accumulators use the shared
    :mod:`repro.plan.aggregates` semantics, so the merge is exactly the
    cross-batch merge the engines already perform internally; grouped
    partials merge as columns and finish through the shared result tail
    (:mod:`repro.plan.tail`), in canonical group order before ORDER BY.
    """
    funcs = [agg.func for agg in query.aggregates]
    names = ([g.column for g in query.group_by]
             + [a.alias for a in query.aggregates])
    if not query.group_by:
        accs = [empty_accumulator(f) for f in funcs]
        for result in partials:
            if not result.rows:
                continue
            row = result.rows[0]
            empty = spec.rows_pos is not None and row[spec.rows_pos] == 0
            for i, cell in enumerate(spec.cells):
                if cell[0] == "avg":
                    part = (int(row[cell[1]]), int(row[cell[2]]))
                elif cell[0] in ("min", "max") and empty:
                    continue  # finalized 0 of an empty input is not a value
                else:
                    part = (int(row[cell[1]]), None)
                accs[i] = merge(funcs[i], accs[i], part)
        out_row = tuple(
            finalize(f, acc[0], acc[1]) for f, acc in zip(funcs, accs)
        )
        return ResultSet(names, [out_row]).limited(query.limit)
    width = len(query.group_by)
    rows = [row for result in partials for row in result.rows]
    if not rows:
        return ResultSet(names, [])
    columns = [np.array(column) for column in zip(*rows)]
    encoded = [encode_group(column) for column in columns[:width]]
    cell_parts = [
        (columns[width + cell[1]].astype(np.int64),
         columns[width + cell[2]].astype(np.int64) if cell[0] == "avg"
         else None)
        for cell in spec.cells
    ]
    uniq, merged = merge_group_reductions(
        funcs, [(np.stack([codes for codes, _ in encoded]), cell_parts)])
    groups = [GroupColumn(uniq[k], vocabulary)
              for k, (_, vocabulary) in enumerate(encoded)]
    return finish(names, groups,
                  [finalize_column(f, *acc) for f, acc in zip(funcs, merged)],
                  query.order_by, query.limit)


__all__ = ["GatherSpec", "partial_plan", "gather", "ROWS_ALIAS"]
