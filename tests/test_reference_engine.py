"""Reference (oracle) engine tests on small hand-checkable data."""

import numpy as np
import pytest

from repro.errors import TypeMismatchError
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
from repro.reference import execute, selected_positions
from repro.plan.predicates import eval_predicate
from repro.storage.column import Column
from repro.storage.table import Table
from repro.types import int32


def _tables():
    fact = Table("f", [
        Column.from_ints("fk", [1, 2, 1, 3, 2], int32()),
        Column.from_ints("v", [10, 20, 30, 40, 50], int32()),
        Column.from_ints("w", [1, 1, 2, 2, 3], int32()),
    ])
    dim = Table("d", [
        Column.from_ints("fk", [1, 2, 3], int32()),
        Column.from_strings("name", ["ann", "bob", "cat"]),
    ])
    return {"f": fact, "d": dim}


def _query(predicates=(), group_by=(), order_by=(),
           agg=None):
    agg = agg or AggExpr("sum", ColumnRef("f", "v"), "total")
    return StarQuery("t", "f", {"fk": "d"}, tuple(predicates),
                     tuple(group_by), (agg,), tuple(order_by))


def test_no_predicates_sums_everything():
    result = execute(_tables(), _query())
    assert result.rows == [(150,)]


def test_fact_predicate():
    q = _query([Comparison(ColumnRef("f", "w"), CompareOp.EQ, 2)])
    assert execute(_tables(), q).rows == [(70,)]


def test_dimension_predicate():
    q = _query([Comparison(ColumnRef("d", "name"), CompareOp.EQ, "ann")])
    assert execute(_tables(), q).rows == [(40,)]


def test_group_by_dimension():
    q = _query(group_by=[ColumnRef("d", "name")],
               order_by=[OrderKey("name")])
    result = execute(_tables(), q)
    assert result.columns == ["name", "total"]
    assert result.rows == [("ann", 40), ("bob", 70), ("cat", 40)]


def test_group_by_fact_column():
    q = _query(group_by=[ColumnRef("f", "w")], order_by=[OrderKey("w")])
    assert execute(_tables(), q).rows == [(1, 30), (2, 70), (3, 50)]


def test_count_aggregate():
    q = _query(agg=AggExpr("count", ColumnRef("f", "v"), "n"))
    assert execute(_tables(), q).rows == [(5,)]


def test_expression_aggregate():
    agg = AggExpr("sum", BinOp("*", ColumnRef("f", "v"),
                               ColumnRef("f", "w")), "x")
    q = _query(agg=agg)
    assert execute(_tables(), q).rows == [(10 + 20 + 60 + 80 + 150,)]


def test_string_in_arithmetic_rejected():
    """The engines' aggregate-input type check: the same typed refusal
    every engine gives."""
    tables = _tables()
    q = StarQuery("t", "d", {}, (), (), (AggExpr(
        "sum", ColumnRef("d", "name"), "x"),))
    with pytest.raises(TypeMismatchError):
        execute(tables, q)


def test_empty_result_group_by():
    q = _query([Comparison(ColumnRef("f", "w"), CompareOp.GT, 99)],
               group_by=[ColumnRef("d", "name")])
    assert execute(_tables(), q).rows == []


def test_empty_result_scalar():
    q = _query([Comparison(ColumnRef("f", "w"), CompareOp.GT, 99)])
    assert execute(_tables(), q).rows == [(0,)]


def test_selected_positions():
    q = _query([InSet(ColumnRef("d", "name"), ("ann", "cat"))])
    positions = selected_positions(_tables(), q)
    assert positions.tolist() == [0, 2, 3]


def test_eval_predicate_range_on_strings():
    col = Column.from_strings("s", ["aa", "bb", "cc", "dd"])
    mask = eval_predicate(col, RangePredicate(ColumnRef("d", "s"),
                                              "bb", "cc"))
    assert mask.tolist() == [False, True, True, False]


def test_eval_predicate_missing_string_literal():
    col = Column.from_strings("s", ["aa"])
    mask = eval_predicate(col, Comparison(ColumnRef("d", "s"),
                                          CompareOp.EQ, "zz"))
    assert not mask.any()
    mask_lt = eval_predicate(col, Comparison(ColumnRef("d", "s"),
                                             CompareOp.LT, "zz"))
    assert mask_lt.all()
