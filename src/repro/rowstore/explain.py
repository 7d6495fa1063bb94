"""EXPLAIN for the row store: the plan shape each design would execute.

Descriptions follow Section 6.2.1's plan walkthroughs.  Dimension
selectivities are computed by actually filtering the (small) dimension
tables; partition pruning is resolved against the date table — both on
a throwaway ledger, so EXPLAIN never perturbs measurements.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..plan.logical import StarQuery
from ..plan.predicates import eval_predicate
from ..ssb.generator import SsbData
from .designs import Artifacts, BITMAPPED_FACT_COLUMNS, DesignKind
from .partitioning import qualifying_years


def explain(catalog: SsbData, artifacts: Artifacts, query: StarQuery,
            design: DesignKind, prune_partitions: bool = True) -> str:
    lines: List[str] = [
        f"EXPLAIN {query.name} [row store, design {design.value}]",
    ]
    dims = _dimension_lines(catalog, query)
    if design in (DesignKind.TRADITIONAL, DesignKind.MATERIALIZED_VIEWS):
        lines += _explain_scan_based(catalog, artifacts, query, design,
                                     prune_partitions, dims)
    elif design is DesignKind.TRADITIONAL_BITMAP:
        lines += _explain_bitmap(catalog, query, dims)
    elif design is DesignKind.VERTICAL_PARTITIONING:
        lines += _explain_vertical(query, dims)
    else:
        lines += _explain_index_only(query, dims)
    lines.append(_tail(query))
    return "\n".join(lines)


def _dimension_selectivity(catalog: SsbData, query: StarQuery,
                           dim: str) -> float:
    table = catalog.table(dim)
    mask = np.ones(table.num_rows, dtype=bool)
    for pred in query.dimension_predicates(dim):
        mask &= eval_predicate(table.column(pred.column), pred)
    return float(mask.sum()) / max(table.num_rows, 1)


def _dimension_lines(catalog: SsbData, query: StarQuery) -> List[str]:
    lines = ["  1. filter dimensions, build hash tables "
             "(most selective first):"]
    entries = []
    for dim in query.dimensions_used():
        sel = _dimension_selectivity(catalog, query, dim)
        preds = query.dimension_predicates(dim)
        pred_text = " AND ".join(str(p) for p in preds) or "no predicates"
        attrs = query.group_by_of(dim)
        carry = f"; carry [{', '.join(attrs)}]" if attrs else ""
        entries.append((sel, f"     {dim}: {pred_text} "
                             f"-> {sel:.2%} of keys{carry}"))
    for _sel, text in sorted(entries):
        lines.append(text)
    return lines


def _explain_scan_based(catalog, artifacts, query, design, prune, dims
                        ) -> List[str]:
    lines = list(dims)
    if design is DesignKind.MATERIALIZED_VIEWS:
        from ..ssb.queries import FLIGHT_OF

        flight = FLIGHT_OF.get(query.name)
        columns = artifacts.mv_columns.get(flight, [])
        source = (f"materialized view mv_f{flight} "
                  f"[{', '.join(columns)}]")
        partitions = sorted(artifacts.mv_partitions.get(flight, {}))
    else:
        source = "lineorder heap (all 17 columns)"
        partitions = sorted(artifacts.fact_partitions)
    years = qualifying_years(catalog.date, query, partitions) if prune \
        else partitions
    pruned = len(partitions) - len(years)
    lines.append(f"  2. sequential scan of {source}")
    lines.append(f"     partitions touched: {years} "
                 f"({pruned} pruned by orderdate year)" if pruned else
                 f"     partitions touched: all {len(partitions)}")
    for p in query.fact_predicates():
        lines.append(f"     pushed-down predicate: {p}")
    lines.append("  3. pipelined hash joins against the dimension hash "
                 "tables")
    return lines


def _explain_bitmap(catalog, query, dims) -> List[str]:
    lines = list(dims)
    lines.append("  2. bitmap access path over the unpartitioned heap:")
    for dim in query.dimensions_used():
        fk = query.fk_of(dim)
        if query.dimension_predicates(dim) and fk in BITMAPPED_FACT_COLUMNS:
            lines.append(f"     OR the {fk} rid sets of the surviving "
                         f"{dim} keys")
    for p in query.fact_predicates():
        if p.column in BITMAPPED_FACT_COLUMNS:
            lines.append(f"     bitmap range read for {p}")
        else:
            lines.append(f"     (post-filter after fetch: {p})")
    lines.append("     AND the rid sets; fetch qualifying tuples by rid")
    lines.append("  3. hash joins for group-by attribute extraction")
    return lines


def _explain_vertical(query, dims) -> List[str]:
    lines = list(dims)
    lines.append("  2. per-column position joins over two-column tables:")
    for dim in query.dimensions_used():
        fk = query.fk_of(dim)
        lines.append(f"     scan vp_{fk} (pos, {fk}); hash-probe the "
                     f"{dim} table")
    for p in query.fact_predicates():
        lines.append(f"     scan vp_{p.column} with predicate {p}")
    lines.append("  3. hash-join the per-column result sets on position")
    rest = [c for c in query.fact_columns_needed()
            if c not in {p.column for p in query.fact_predicates()}
            and c not in query.joins]
    if rest:
        lines.append(f"  4. pick up remaining columns by position join: "
                     f"[{', '.join(rest)}]")
    return lines


def _explain_index_only(query, dims) -> List[str]:
    cols = query.fact_columns_needed()
    lines = [
        "  1. full/range index scans over fact columns "
        f"[{', '.join(cols)}]",
        "     hash-join them on rid *before* any dimension filtering",
        "     (System X cannot defer these joins; builds may spill)",
    ]
    lines.append("  2. dimension attribute indexes (composite "
                 "(attr, key) keys):")
    for dim in query.dimensions_used():
        preds = query.dimension_predicates(dim)
        pred_text = " AND ".join(str(p) for p in preds) or "full scan"
        lines.append(f"     {dim}: {pred_text}; rid-join attribute "
                     f"indexes; build key -> attrs")
    lines.append("  3. hash-join the rid-joined fact columns with each "
                 "dimension")
    return lines


def render_span_section(trace) -> str:
    """The EXPLAIN ANALYZE tail: an observed span tree (see
    :mod:`repro.obs`), indented to match the plan lines."""
    from ..obs import render_trace

    lines = ["  span tree (simulated seconds):"]
    lines += ["  " + line for line in render_trace(trace).splitlines()[1:]]
    return "\n".join(lines)


def _tail(query: StarQuery) -> str:
    aggs = ", ".join(f"{a.func}(...) as {a.alias}"
                     for a in query.aggregates)
    if query.group_by:
        groups = ", ".join(f"{g.table}.{g.column}" for g in query.group_by)
        tail = f"  final: hash aggregate {aggs} group by ({groups})"
    else:
        tail = f"  final: aggregate {aggs}"
    if query.order_by:
        keys = ", ".join(k.key for k in query.order_by)
        tail += f"; sort by {keys}"
    return tail


__all__ = ["explain", "render_span_section"]
