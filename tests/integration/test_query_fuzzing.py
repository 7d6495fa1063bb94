"""Property-based engine fuzzing: random star queries, every engine.

Hypothesis composes random-but-valid StarQueries over the SSB schema —
random dimension subsets, predicates drawn from real domain values,
random group-bys and aggregates — and asserts that the row store (two
designs) and the column store (three configurations) all return exactly
the reference engine's rows.  This is the guard against planner bugs
that the 13 fixed queries would never exercise (empty results, single
dimensions, fact-only queries, redundant predicates, ...).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ExecutionConfig
from repro.plan.logical import (
    AggExpr,
    BinOp,
    ColumnRef,
    CompareOp,
    Comparison,
    InSet,
    OrderKey,
    RangePredicate,
    StarQuery,
)
from repro.reference import execute as ref_execute
from repro.rowstore.designs import DesignKind

LO = "lineorder"

# (dimension, fk, key, attributes usable in predicates/group-bys)
DIMENSIONS = [
    ("customer", "custkey", "custkey", ["region", "nation", "city",
                                        "mktsegment"]),
    ("supplier", "suppkey", "suppkey", ["region", "nation", "city"]),
    ("part", "partkey", "partkey", ["mfgr", "category", "brand1", "size"]),
    ("date", "orderdate", "datekey", ["year", "yearmonthnum",
                                      "weeknuminyear", "monthnuminyear"]),
]

FACT_INT_COLUMNS = ["quantity", "discount", "tax"]

AGGREGATES = [
    AggExpr("sum", ColumnRef(LO, "revenue"), "revenue"),
    AggExpr("sum", BinOp("*", ColumnRef(LO, "extendedprice"),
                         ColumnRef(LO, "discount")), "gain"),
    AggExpr("sum", BinOp("-", ColumnRef(LO, "revenue"),
                         ColumnRef(LO, "supplycost")), "profit"),
    AggExpr("count", ColumnRef(LO, "orderkey"), "n"),
    AggExpr("min", ColumnRef(LO, "extendedprice"), "lo_p"),
    AggExpr("max", ColumnRef(LO, "extendedprice"), "hi_p"),
    AggExpr("avg", ColumnRef(LO, "quantity"), "avg_q"),
]


@st.composite
def star_queries(draw, data):
    chosen = draw(st.lists(st.sampled_from(range(len(DIMENSIONS))),
                           unique=True, max_size=3))
    dims = [DIMENSIONS[i] for i in sorted(chosen)]
    joins = {fk: name for name, fk, _key, _attrs in dims}
    dim_keys = {name: key for name, _fk, key, _attrs in dims
                if key != _fk_of(name, dims)}

    predicates = []
    group_by = []
    for name, _fk, _key, attrs in dims:
        attr = draw(st.sampled_from(attrs))
        column = data.table(name).column(attr)
        predicates.append(draw(_predicate_for(name, attr, column)))
        if draw(st.booleans()):
            group_attr = draw(st.sampled_from(attrs))
            ref = ColumnRef(name, group_attr)
            if ref not in group_by:
                group_by.append(ref)
    # optional fact predicate and fact group column
    if draw(st.booleans()):
        col = draw(st.sampled_from(FACT_INT_COLUMNS))
        column = data.lineorder.column(col)
        predicates.append(draw(_predicate_for(LO, col, column)))
    if draw(st.booleans()):
        group_by.append(ColumnRef(LO, "shipmode"))

    aggregates = (draw(st.sampled_from(AGGREGATES)),)
    order_by = tuple(OrderKey(g.column) for g in group_by)
    return StarQuery(
        name="fuzz",
        fact_table=LO,
        joins=joins,
        predicates=tuple(predicates),
        group_by=tuple(group_by),
        aggregates=aggregates,
        order_by=order_by,
        dim_keys={name: key for name, _fk, key, _a in dims},
    )


def _fk_of(name, dims):
    for dim_name, fk, _key, _attrs in dims:
        if dim_name == name:
            return fk
    return None


@st.composite
def _predicate_for(draw, table, attr, column):
    """A predicate on one column, with literals from its domain and from
    just outside it: a prefix or an extension of a stored string (so
    between two entries), ``''``, an absent string, an over-width string,
    and integers one past the column's min and max."""
    ref = ColumnRef(table, attr)
    if column.dictionary is not None:
        stored = st.sampled_from(column.dictionary.strings)
        width = column.ctype.width
        literals = st.one_of(
            stored,
            stored.flatmap(lambda v: st.sampled_from(
                [v[:-1], v + "A", v.ljust(width + 1, "Z")])),
            st.sampled_from(["", "~"]))
        ops = [CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE]
    else:
        literals = st.integers(min_value=int(column.data.min()) - 1,
                               max_value=int(column.data.max()) + 1)
        ops = [CompareOp.LE, CompareOp.GE, CompareOp.GT]
    kind = draw(st.sampled_from(["eq", "range", "in", "cmp"]))
    value = draw(literals)
    if kind == "range":
        other = draw(literals)
        return RangePredicate(ref, min(value, other), max(value, other))
    if kind == "in":
        values = draw(st.lists(literals, min_size=1, max_size=3,
                               unique=True))
        return InSet(ref, tuple(values))
    op = CompareOp.EQ if kind == "eq" else draw(st.sampled_from(ops))
    return Comparison(ref, op, value)


@pytest.fixture(scope="module")
def fuzz_env(ssb_data, system_x, cstore):
    return ssb_data, system_x, cstore


def _check(env, query, designs, configs):
    data, system_x, cstore = env
    expected = ref_execute(data.tables, query)
    for design in designs:
        run = system_x.execute(query, design)
        assert run.result.same_rows(expected), (design, query)
    for config in configs:
        run = cstore.execute(query, config)
        assert run.result.same_rows(expected), (config.label, query)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_traditional_and_column_store(fuzz_env, data):
    query = data.draw(star_queries(fuzz_env[0]))
    _check(fuzz_env, query,
           designs=[DesignKind.TRADITIONAL],
           configs=[ExecutionConfig.baseline(),
                    ExecutionConfig.row_store_like(),
                    ExecutionConfig.from_label("tIcL")])


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_vertical_partitioning_and_lm_join(fuzz_env, data):
    query = data.draw(star_queries(fuzz_env[0]))
    _check(fuzz_env, query,
           designs=[DesignKind.VERTICAL_PARTITIONING],
           configs=[ExecutionConfig.from_label("tiCL"),
                    ExecutionConfig.from_label("ticL")])


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_bitmap_design(fuzz_env, data):
    query = data.draw(star_queries(fuzz_env[0]))
    _check(fuzz_env, query,
           designs=[DesignKind.TRADITIONAL_BITMAP], configs=[])
