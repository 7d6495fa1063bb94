"""Scatter-gather execution over fact-table shards.

The executor is engine-neutral: it rewrites a :class:`StarQuery` into a
per-shard query whose aggregates are *mergeable*, eliminates shards
whose synopses prove they hold no qualifying rows, runs the surviving
shards through a caller-supplied ``execute_one`` callback (each shard is
a complete engine stack — its own disk array and buffer pool), and
merges the partial results, the simulated-I/O ledgers, and
the span trees.

Three invariants, all test-enforced:

* **Row identity** — ``shards=N`` returns exactly the rows of
  ``shards=1``.  AVG is the reason the rewrite exists: averaging
  per-shard averages is wrong, so each AVG is scattered as a hidden
  (SUM, COUNT) pair and divided once at the gather.  Scalar MIN/MAX
  need a hidden row count because an *empty* shard's MIN finalizes to
  the engines' 0-normalization, which must not win the global merge.
* **Ledger additivity** — the merged :class:`QueryStats` equals the sum
  of the per-shard ledgers plus the synopsis probes charged by shard
  elimination; nothing is lost or double counted.
* **Trace attribution** — the merged trace has one ``shard:K`` span per
  shard (eliminated shards appear with a zero ledger, mirroring how
  zone maps account skipped blocks), each executed span adopting that
  shard's verified engine trace, and ``Trace.verify`` passes against
  the merged flat ledger.  Gather-side merging is charged nowhere —
  like trace construction itself, it is coordinator bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Span, Trace
from ..plan.aggregates import (
    empty_accumulator,
    finalize,
    finalize_column,
    merge,
    merge_group_reductions,
)
from ..plan.logical import (
    AggExpr,
    CompareOp,
    Comparison,
    InSet,
    Literal,
    Predicate,
    RangePredicate,
    StarQuery,
)
from ..plan.tail import GroupColumn, encode_group, finish
from ..reference.predicates import eval_predicate
from ..result import ResultSet
from ..simio.stats import CostModel, QueryStats
from ..storage.table import Table
from .partition import ShardSynopsis

#: alias of the hidden per-shard row count behind scalar MIN/MAX
ROWS_ALIAS = "__shard_rows"


@dataclass(frozen=True)
class GatherSpec:
    """How to scatter a query and merge its partial results.

    ``cells`` has one entry per *original* aggregate: ``("avg", i, j)``
    points at the hidden SUM and COUNT result positions, ``(func, i)``
    at a passthrough position.  Positions index the shard result row
    *after* the group-by prefix.
    """

    shard_query: StarQuery
    cells: Tuple[Tuple, ...]
    rows_pos: Optional[int]


def shard_plan(query: StarQuery) -> GatherSpec:
    """Rewrite ``query`` for per-shard execution.

    ORDER BY and LIMIT move to the gather (a shard cannot know the
    global order or cut-off); AVG scatters as SUM+COUNT; scalar queries
    containing MIN/MAX grow a hidden ``count(1)`` so empty shards can be
    told apart from shards whose true extreme is 0.
    """
    shard_aggs: List[AggExpr] = []
    cells: List[Tuple] = []
    for i, agg in enumerate(query.aggregates):
        if agg.func == "avg":
            cells.append(("avg", len(shard_aggs), len(shard_aggs) + 1))
            shard_aggs.append(AggExpr("sum", agg.expr, f"__shard_{i}_sum"))
            shard_aggs.append(AggExpr("count", agg.expr, f"__shard_{i}_cnt"))
        else:
            cells.append((agg.func, len(shard_aggs)))
            shard_aggs.append(agg)
    rows_pos: Optional[int] = None
    if not query.group_by and any(
        a.func in ("min", "max") for a in query.aggregates
    ):
        # idempotent under re-planning: the WOS merge path plans the
        # already-rewritten shard query again, so reuse a hidden row
        # count that is already present instead of stacking another
        for i, agg in enumerate(shard_aggs):
            if agg.alias == ROWS_ALIAS:
                rows_pos = i
                break
        else:
            rows_pos = len(shard_aggs)
            shard_aggs.append(AggExpr("count", Literal(1), ROWS_ALIAS))
    shard_query = replace(
        query,
        aggregates=tuple(shard_aggs),
        order_by=(),
        limit=None,
    )
    return GatherSpec(shard_query, tuple(cells), rows_pos)


# ---------------------------------------------------------------------- #
# shard elimination
# ---------------------------------------------------------------------- #
def _predicate_interval(pred: Predicate) -> Optional[Tuple[int, int]]:
    """The inclusive int interval a row must fall in to satisfy ``pred``
    (None when the predicate is not interval-describable)."""
    if isinstance(pred, Comparison):
        if isinstance(pred.value, str):
            return None
        v = int(pred.value)
        lo, hi = -(2 ** 63), 2 ** 63 - 1
        return {
            CompareOp.EQ: (v, v),
            CompareOp.LT: (lo, v - 1),
            CompareOp.LE: (lo, v),
            CompareOp.GT: (v + 1, hi),
            CompareOp.GE: (v, hi),
        }[pred.op]
    if isinstance(pred, RangePredicate):
        if isinstance(pred.low, str) or isinstance(pred.high, str):
            return None
        return int(pred.low), int(pred.high)
    return None


def _inset_survives(pred: InSet, bounds: Tuple[int, int]) -> bool:
    """Can any IN-list value fall inside the shard's [min, max]?"""
    values = [v for v in pred.values if not isinstance(v, str)]
    if len(values) != len(pred.values):
        return True  # string list: no comparable bounds, keep the shard
    return any(bounds[0] <= int(v) <= bounds[1] for v in values)


def _date_envelope(query: StarQuery,
                   date_table: Table) -> Optional[Tuple[int, int]]:
    """The [min, max] datekey envelope qualifying the query's date
    predicates: None when unconstrained, ``(1, 0)`` (empty) when no date
    qualifies.  Conservative in between — sound for elimination."""
    if "date" not in query.joins.values():
        return None
    preds = query.dimension_predicates("date")
    if not preds:
        return None
    mask = np.ones(date_table.num_rows, dtype=bool)
    for pred in preds:
        mask &= eval_predicate(date_table.column(pred.column), pred)
    keys = date_table.column(query.key_of("date")).data[mask]
    if len(keys) == 0:
        return (1, 0)
    return int(keys.min()), int(keys.max())


def qualifying_shards(
    query: StarQuery,
    synopses: Sequence[ShardSynopsis],
    date_table: Table,
) -> Tuple[List[bool], int]:
    """Which shards can hold qualifying rows, plus the synopsis probes
    spent deciding.

    A shard survives unless (a) it is empty, (b) a fact predicate's
    interval misses the shard's column bounds, or (c) the query's date
    predicates qualify a datekey envelope disjoint from the shard's
    range on the date FK column.  Every check is against catalog-resident
    metadata — no simulated I/O happens here.
    """
    envelope = _date_envelope(query, date_table)
    date_fk = query.fk_of("date") if envelope is not None else None
    flags: List[bool] = []
    probes = 0
    for syn in synopses:
        if syn.num_rows == 0:
            flags.append(False)
            continue
        keep = True
        if envelope is not None and date_fk in syn.bounds:
            probes += 1
            lo, hi = syn.bounds[date_fk]
            if envelope[0] > hi or envelope[1] < lo:
                keep = False
        if keep:
            for pred in query.fact_predicates():
                if pred.column not in syn.bounds:
                    continue
                probes += 1
                bounds = syn.bounds[pred.column]
                if isinstance(pred, InSet):
                    if not _inset_survives(pred, bounds):
                        keep = False
                        break
                    continue
                interval = _predicate_interval(pred)
                if interval is None:
                    continue
                if interval[0] > bounds[1] or interval[1] < bounds[0]:
                    keep = False
                    break
        flags.append(keep)
    return flags, probes


# ---------------------------------------------------------------------- #
# gather
# ---------------------------------------------------------------------- #
def gather(query: StarQuery, spec: GatherSpec,
           shard_results: Sequence[ResultSet]) -> ResultSet:
    """Merge per-shard partial results into the final result.

    Merging is positional — group-by columns may share names across
    dimensions (Q3.1 groups on two ``nation`` columns), so names cannot
    key anything.  Accumulators use the shared
    :mod:`repro.plan.aggregates` semantics, so the merge is exactly the
    cross-batch merge the engines already perform internally; grouped
    partials merge as columns and finish through the shared result tail
    (:mod:`repro.plan.tail`), in canonical group order before ORDER BY
    whatever the shard count.
    """
    funcs = [agg.func for agg in query.aggregates]
    names = ([g.column for g in query.group_by]
             + [a.alias for a in query.aggregates])
    if not query.group_by:
        accs = [empty_accumulator(f) for f in funcs]
        for result in shard_results:
            if not result.rows:
                continue
            row = result.rows[0]
            if spec.rows_pos is not None and row[spec.rows_pos] == 0:
                empty_shard = True
            else:
                empty_shard = False
            for i, cell in enumerate(spec.cells):
                if cell[0] == "avg":
                    part = (int(row[cell[1]]), int(row[cell[2]]))
                elif cell[0] in ("min", "max") and empty_shard:
                    continue  # finalized 0 of an empty shard is not a value
                else:
                    part = (int(row[cell[1]]), None)
                accs[i] = merge(funcs[i], accs[i], part)
        out_row = tuple(
            finalize(f, acc[0], acc[1]) for f, acc in zip(funcs, accs)
        )
        return ResultSet(names, [out_row]).limited(query.limit)
    width = len(query.group_by)
    rows = [row for result in shard_results for row in result.rows]
    if not rows:
        return ResultSet(names, [])
    columns = [np.array(column) for column in zip(*rows)]
    encoded = [encode_group(column) for column in columns[:width]]
    partials = [
        (columns[width + cell[1]].astype(np.int64),
         columns[width + cell[2]].astype(np.int64) if cell[0] == "avg"
         else None)
        for cell in spec.cells
    ]
    uniq, merged = merge_group_reductions(
        funcs, [(np.stack([codes for codes, _ in encoded]), partials)])
    groups = [GroupColumn(uniq[k], vocabulary)
              for k, (_, vocabulary) in enumerate(encoded)]
    return finish(names, groups,
                  [finalize_column(f, *acc) for f, acc in zip(funcs, merged)],
                  query.order_by, query.limit)


# ---------------------------------------------------------------------- #
# the scatter-gather driver
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardReport:
    """Which shards ran and which the synopses eliminated."""

    executed: Tuple[int, ...]
    eliminated: Tuple[int, ...]


def scatter_gather(
    query: StarQuery,
    synopses: Sequence[ShardSynopsis],
    date_table: Table,
    execute_one: Callable[[int, StarQuery], object],
    cost_model: CostModel,
) -> Tuple[ResultSet, QueryStats, Trace, ShardReport]:
    """Run ``query`` across all shards and merge everything.

    ``execute_one(shard_index, shard_query)`` must return an engine run
    object exposing ``result``, ``stats``, ``cost``, and ``trace`` (both
    engines' run types do).  The returned trace is the merged span tree:
    ``shard-elimination`` (synopsis probes), then one ``shard:K`` span
    per shard; it is returned already :meth:`~repro.obs.Trace.verify`-ed
    against the merged flat ledger.
    """
    spec = shard_plan(query)
    flags, probes = qualifying_shards(query, synopses, date_table)
    merged = QueryStats(synopsis_probes=probes)
    spans: List[Span] = [
        Span("shard-elimination", QueryStats(synopsis_probes=probes),
             cost_model.cost(QueryStats(synopsis_probes=probes)))
    ]
    partials: List[ResultSet] = []
    executed: List[int] = []
    eliminated: List[int] = []
    for k, keep in enumerate(flags):
        if not keep:
            eliminated.append(k)
            zero = QueryStats()
            spans.append(Span(f"shard:{k}", zero, cost_model.cost(zero)))
            continue
        executed.append(k)
        run = execute_one(k, spec.shard_query)
        partials.append(run.result)
        merged.merge(run.stats)
        spans.append(
            Span(f"shard:{k}", QueryStats(**run.stats.snapshot()),
                 run.cost, children=[run.trace.root])
        )
    result = gather(query, spec, partials)
    root = Span("query", QueryStats(**merged.snapshot()),
                cost_model.cost(merged), children=spans)
    trace = Trace(root).verify(merged)
    report = ShardReport(tuple(executed), tuple(eliminated))
    return result, merged, trace, report


__all__ = [
    "GatherSpec",
    "ShardReport",
    "shard_plan",
    "qualifying_shards",
    "gather",
    "scatter_gather",
    "ROWS_ALIAS",
]
