"""SQL DML front end: INSERT/DELETE parsing, binding, and the typed
error surface."""

import pytest

from repro.errors import SqlBindError, SqlParseError
from repro.plan.logical import CompareOp
from repro.sql import bind, bind_delete, bind_insert, parse_statement
from repro.sql.ast import DeleteStatement, InsertStatement, SelectStatement


def test_parse_and_bind_insert():
    statement = parse_statement(
        "INSERT INTO supplier (suppkey, name, address, city, nation, "
        "region, phone) VALUES (99991, 'Supplier#99991', 'addr', "
        "'UNITED ST0', 'UNITED STATES', 'AMERICA', '12-345')")
    assert isinstance(statement, InsertStatement)
    table, rows = bind_insert(statement)
    assert table == "supplier"
    assert rows == [{"suppkey": 99991, "name": "Supplier#99991",
                     "address": "addr", "city": "UNITED ST0",
                     "nation": "UNITED STATES", "region": "AMERICA",
                     "phone": "12-345"}]


def test_parse_and_bind_multi_row_insert():
    table, rows = bind_insert(parse_statement(
        "INSERT INTO part (partkey, name) VALUES (1, 'a'), (2, 'b');"))
    assert table == "part"
    assert rows == [{"partkey": 1, "name": "a"},
                    {"partkey": 2, "name": "b"}]


def test_parse_and_bind_delete():
    statement = parse_statement(
        "DELETE FROM lineorder WHERE quantity < 5 AND discount = 0")
    assert isinstance(statement, DeleteStatement)
    table, predicates = bind_delete(statement)
    assert table == "lineorder"
    assert len(predicates) == 2
    assert predicates[0].table == "lineorder"
    assert predicates[0].column == "quantity"
    assert predicates[0].op is CompareOp.LT and predicates[0].value == 5


def test_bare_delete_binds_empty_conjunction():
    table, predicates = bind_delete(parse_statement(
        "DELETE FROM lineorder"))
    assert table == "lineorder" and predicates == []


def test_select_still_dispatches():
    statement = parse_statement(
        "SELECT sum(lo.revenue) AS r FROM lineorder AS lo")
    assert isinstance(statement, SelectStatement)


def test_insert_bind_errors():
    with pytest.raises(SqlBindError, match="nosuch"):
        bind_insert(parse_statement(
            "INSERT INTO nosuch (a) VALUES (1)"))
    with pytest.raises(SqlBindError, match="nosuch"):
        bind_insert(parse_statement(
            "INSERT INTO part (nosuch) VALUES (1)"))
    with pytest.raises(SqlBindError):  # string literal into int column
        bind_insert(parse_statement(
            "INSERT INTO part (partkey) VALUES ('x')"))
    with pytest.raises(SqlBindError):  # int literal into string column
        bind_insert(parse_statement(
            "INSERT INTO part (name) VALUES (3)"))
    with pytest.raises(SqlBindError, match="partkey"):
        bind_insert(parse_statement(
            "INSERT INTO part (partkey, partkey) VALUES (1, 1)"))


def test_insert_arity_mismatch_is_a_parse_error():
    with pytest.raises(SqlParseError,
                       match=r"1 value\(s\) for 2 column\(s\)"):
        parse_statement("INSERT INTO part (partkey, name) VALUES (1)")


def test_delete_rejects_disjunction():
    with pytest.raises(SqlParseError, match="conjunctive"):
        parse_statement(
            "DELETE FROM lineorder WHERE quantity < 5 OR discount = 0")


def test_delete_rejects_column_to_column_comparison():
    with pytest.raises(SqlBindError):
        bind_delete(parse_statement(
            "DELETE FROM lineorder WHERE quantity = orderkey"))


ARITH_MESSAGE = ("a predicate must compare a plain column to a literal, "
                 "not an arithmetic expression")


def test_delete_expression_condition_names_the_expression():
    with pytest.raises(SqlBindError) as caught:
        bind_delete(parse_statement(
            "DELETE FROM lineorder WHERE quantity + 1 < 3"))
    assert str(caught.value) == ARITH_MESSAGE


def test_select_expression_condition_names_the_expression():
    with pytest.raises(SqlBindError) as caught:
        bind(parse_statement(
            "SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
            "WHERE lo.quantity + 1 < 3"))
    assert str(caught.value) == ARITH_MESSAGE
