"""StarQuery IR and ResultSet tests, and ORDER BY in both the engines'
result tail and the oracle."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.plan.logical import (
    AggExpr,
    BinOp,
    ColumnRef,
    CompareOp,
    Comparison,
    Literal,
    OrderKey,
    StarQuery,
    expr_columns,
)
from repro.plan.tail import GroupColumn, encode_group, finish
from repro.reference.engine import _ordered
from repro.result import ResultSet
from repro.ssb import query_by_name


def _ref(t, c):
    return ColumnRef(t, c)


def test_star_query_validation():
    with pytest.raises(PlanError):
        StarQuery("q", "f", {}, (), (), ())  # no aggregates
    with pytest.raises(PlanError):
        StarQuery(
            "q", "f", {},
            (Comparison(_ref("ghost", "x"), CompareOp.EQ, 1),),
            (),
            (AggExpr("sum", _ref("f", "v"), "s"),),
        )


def test_star_query_accessors():
    q = query_by_name("Q3.1")
    assert q.fk_of("customer") == "custkey"
    assert q.key_of("customer") == "custkey"
    assert q.key_of("date") == "datekey"
    with pytest.raises(PlanError):
        q.fk_of("part")
    assert q.dimensions_used() == ["customer", "date", "supplier"]
    assert q.group_by_of("customer") == ["nation"]
    assert [p.column for p in q.fact_predicates()] == []
    assert q.has_group_by()


def test_fact_columns_needed():
    q = query_by_name("Q1.1")
    cols = q.fact_columns_needed()
    assert cols == ["discount", "quantity", "orderdate", "extendedprice"]


def test_expr_columns():
    expr = BinOp("*", _ref("f", "a"), BinOp("+", Literal(1), _ref("f", "b")))
    assert [r.column for r in expr_columns(expr)] == ["a", "b"]


def test_bad_binop_and_agg():
    with pytest.raises(PlanError):
        BinOp("/", Literal(1), Literal(2))
    with pytest.raises(PlanError):
        AggExpr("median", Literal(1), "m")


def test_compare_op_flip():
    assert CompareOp.LT.flip() is CompareOp.GT
    assert CompareOp.EQ.flip() is CompareOp.EQ
    assert CompareOp.GE.flip() is CompareOp.LE


# --------------------------------------------------------------------- #
# ResultSet
# --------------------------------------------------------------------- #
def test_result_same_rows_order_insensitive():
    a = ResultSet(["x"], [(1,), (2,)])
    b = ResultSet(["x"], [(2,), (1,)])
    assert a.same_rows(b)
    assert not a.same_rows(ResultSet(["x"], [(1,)]))


def _tail_order(r, keys):
    """``r`` ordered by the engines' result tail (its first column is
    the group key, the rest are aggregates)."""
    codes, vocabulary = encode_group(np.array(r.column_values(r.columns[0])))
    aggregates = [np.array(r.column_values(c)) for c in r.columns[1:]]
    return finish(r.columns, [GroupColumn(codes, vocabulary)], aggregates,
                  keys, None)


def _oracle_order(r, keys):
    return ResultSet(r.columns, _ordered(r.columns, r.rows, keys))


ORDERINGS = (_tail_order, _oracle_order)


def test_result_order_by():
    r = ResultSet(["g", "v"], [("b", 1), ("a", 3), ("a", 2)])
    for order_by in ORDERINGS:
        asc = order_by(r, [OrderKey("g"), OrderKey("v")])
        assert asc.rows == [("a", 2), ("a", 3), ("b", 1)]
        desc = order_by(r, [OrderKey("g"), OrderKey("v", ascending=False)])
        assert desc.rows == [("a", 3), ("a", 2), ("b", 1)]
        assert order_by(r, []).rows == r.rows


def test_result_column_values_and_pretty():
    r = ResultSet(["g", "v"], [("a", 1), ("b", 2)])
    assert r.column_values("v") == [1, 2]
    text = r.pretty()
    assert "g" in text and "b" in text
    many = ResultSet(["x"], [(i,) for i in range(50)])
    assert "more rows" in many.pretty(limit=5)


def test_result_mixed_type_sorting():
    r = ResultSet(["x"], [("s", ), (1, )])
    assert r.sorted_rows() == [(1,), ("s",)]


def test_result_order_by_compares_floats_by_value():
    # an AVG column: every value has integer part 4 or 5
    r = ResultSet(["g", "a"], [(1992, 5.0187), (1993, 4.9056),
                               (1994, 4.9810), (1995, 5.0010)])
    for order_by in ORDERINGS:
        desc = order_by(r, [OrderKey("a", ascending=False)])
        assert desc.column_values("a") == [5.0187, 5.0010, 4.9810, 4.9056]
        assert desc.limited(2).column_values("g") == [1992, 1995]
        asc = order_by(r, [OrderKey("a")])
        assert asc.column_values("a") == [4.9056, 4.9810, 5.0010, 5.0187]


def test_result_sorted_rows_mix_ints_floats_and_strings():
    r = ResultSet(["x"], [("s",), (2,), (1.5,), (1.25,), (1,)])
    assert r.sorted_rows() == [(1,), (1.25,), (1.5,), (2,), ("s",)]
    shuffled = ResultSet(["x"], [(1.5,), ("s",), (1,), (1.25,), (2,)])
    assert r.same_rows(shuffled)
    assert not r.same_rows(ResultSet(["x"], [(1.4,), ("s",), (1,),
                                             (1.25,), (2,)]))


def test_order_by_avg_in_sql(ssb_data):
    from repro.reference import execute
    from repro.sql import parse_query

    query = parse_query(
        "SELECT d.year, AVG(lo.discount) AS a FROM lineorder lo, date d "
        "WHERE lo.orderdate = d.datekey GROUP BY d.year ORDER BY a DESC;")
    averages = execute(ssb_data.tables, query).column_values("a")
    assert len(averages) > 2
    assert averages == sorted(averages, reverse=True)
