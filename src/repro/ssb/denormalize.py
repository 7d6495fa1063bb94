"""Pre-joined (denormalized) fact tables for the Figure 8 experiment.

Section 6.3.3: the fact table and its dimensions are pre-joined so every
fact row carries all dimension attribute values; queries then run with no
joins at all.  The paper evaluates three storage treatments of the wide
table — strings unmodified ("PJ, No C"), strings dictionary-encoded to
integers ("PJ, Int C"), and full C-Store compression ("PJ, Max C") —
which map onto our :class:`~repro.storage.colfile.CompressionLevel`
values NONE / INT / MAX.

``denormalize`` builds the wide table (dimension columns named
``<dim>_<attr>``); ``rewrite_query`` turns any SSB query into an
equivalent join-free query over it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import PlanError
from ..plan.keys import KeyIndex
from ..plan.logical import (
    AggExpr,
    BinOp,
    ColumnRef,
    Comparison,
    Expr,
    InSet,
    Literal,
    Predicate,
    RangePredicate,
    StarQuery,
)
from ..storage.column import Column
from ..storage.table import SortOrder, Table
from .generator import SsbData
from .schema import FACT_SORT_KEYS

#: Name of the denormalized table.
DENORM_TABLE = "lineorder_denorm"

#: Dimension attributes folded into the wide table (the ones any SSB
#: query touches; folding all 40+ would only inflate load time).
DENORM_ATTRIBUTES: Dict[str, Tuple[str, ...]] = {
    "customer": ("region", "nation", "city"),
    "supplier": ("region", "nation", "city"),
    "part": ("mfgr", "category", "brand1"),
    "date": ("year", "yearmonthnum", "yearmonth", "weeknuminyear"),
}

#: fact FK column -> dimension, as in the SSB queries.
_FK_OF_DIM = {
    "customer": "custkey",
    "supplier": "suppkey",
    "part": "partkey",
    "date": "orderdate",
}


def denorm_column_name(dim: str, attr: str) -> str:
    """The wide-table column holding dimension ``dim``'s ``attr``."""
    return f"{dim}_{attr}"


def denormalize(data: SsbData) -> Table:
    """Build the pre-joined wide table (sorted like the fact table)."""
    fact = data.lineorder
    columns: List[Column] = list(fact.columns())
    for dim_name, attrs in DENORM_ATTRIBUTES.items():
        dim = data.table(dim_name)
        key_column = dim.columns()[0].name
        found, rows = KeyIndex(dim.column(key_column).data).lookup(
            fact.column(_FK_OF_DIM[dim_name]).data)
        if not found.all():
            raise PlanError(
                f"dangling foreign keys into {dim_name} during denormalization"
            )
        for attr in attrs:
            source = dim.column(attr)
            columns.append(
                Column(denorm_column_name(dim_name, attr), source.ctype,
                       source.data[rows], source.dictionary)
            )
    return Table(DENORM_TABLE, columns, SortOrder(tuple(FACT_SORT_KEYS)))


def _rewrite_ref(ref: ColumnRef, fact_table: str) -> ColumnRef:
    if ref.table == "lineorder":
        return ColumnRef(DENORM_TABLE, ref.column)
    return ColumnRef(DENORM_TABLE, denorm_column_name(ref.table, ref.column))


def _rewrite_predicate(pred: Predicate) -> Predicate:
    ref = _rewrite_ref(pred.ref, DENORM_TABLE)
    if isinstance(pred, Comparison):
        return Comparison(ref, pred.op, pred.value)
    if isinstance(pred, RangePredicate):
        return RangePredicate(ref, pred.low, pred.high)
    return InSet(ref, pred.values)


def _rewrite_expr(expr: Expr) -> Expr:
    if isinstance(expr, ColumnRef):
        return _rewrite_ref(expr, DENORM_TABLE)
    if isinstance(expr, Literal):
        return expr
    return BinOp(expr.op, _rewrite_expr(expr.left), _rewrite_expr(expr.right))


def rewrite_query(query: StarQuery) -> StarQuery:
    """An equivalent join-free query over the denormalized table.

    Group-by output columns take the wide table's names (e.g. ``year``
    becomes ``date_year``), so ORDER BY keys are renamed to match;
    aggregate aliases are unchanged."""
    from ..plan.logical import OrderKey

    rename: Dict[str, str] = {}
    for g in query.group_by:
        rewritten = _rewrite_ref(g, DENORM_TABLE)
        rename[g.column] = rewritten.column
    return StarQuery(
        name=f"{query.name}/denorm",
        fact_table=DENORM_TABLE,
        joins={},
        predicates=tuple(_rewrite_predicate(p) for p in query.predicates),
        group_by=tuple(_rewrite_ref(g, DENORM_TABLE) for g in query.group_by),
        aggregates=tuple(
            AggExpr(a.func, _rewrite_expr(a.expr), a.alias)
            for a in query.aggregates
        ),
        order_by=tuple(
            OrderKey(rename.get(k.key, k.key), k.ascending)
            for k in query.order_by
        ),
    )


__all__ = [
    "DENORM_TABLE",
    "DENORM_ATTRIBUTES",
    "denorm_column_name",
    "denormalize",
    "rewrite_query",
]
