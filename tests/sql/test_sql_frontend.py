"""SQL lexer, parser, and binder tests."""

import re

import pytest

from repro.errors import SqlBindError, SqlLexError, SqlParseError
from repro.plan.logical import CompareOp, Comparison, InSet, RangePredicate
from repro.sql import parse, parse_query, parse_statement
from repro.sql.ast import Arith, BetweenCond, Ident, NumberLit, StringLit
from repro.sql import lexer
from repro.sql.lexer import TokenKind, tokenize


# --------------------------------------------------------------------- #
# lexer
# --------------------------------------------------------------------- #
def test_tokenize_basics():
    tokens = tokenize("SELECT a.b, 'x''y' FROM t WHERE c <= 10")
    kinds = [t.kind for t in tokens]
    assert kinds[-1] is TokenKind.EOF
    texts = [t.text for t in tokens[:-1]]
    assert texts == ["SELECT", "a", ".", "b", ",", "x'y", "FROM", "t",
                     "WHERE", "c", "<=", "10"]


def test_tokenize_keywords_case_insensitive():
    tokens = tokenize("select From AS")
    assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "AS"]


def test_tokenize_comments():
    tokens = tokenize("SELECT -- a comment\n x")
    assert [t.text for t in tokens[:-1]] == ["SELECT", "x"]


def test_tokenize_unterminated_string():
    with pytest.raises(SqlLexError):
        tokenize("SELECT 'oops")


def test_tokenize_bad_character():
    with pytest.raises(SqlLexError):
        tokenize("SELECT @")


@pytest.mark.parametrize("sql", [
    "INSERT INTO date (datekey) VALUES (²)",
    "SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
    "WHERE lo.quantity < ²",
    "SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
    "WHERE lo.quantity < 2²",
])
def test_non_ascii_digit_is_a_typed_lex_error(sql):
    # numbers are ASCII digits only: '²' passes str.isdigit() but not
    # int(), and must not escape the frontend as a bare ValueError
    with pytest.raises(SqlLexError) as caught:
        parse_statement(sql)
    assert caught.value.position == sql.index("²")
    assert "unexpected character '²'" in str(caught.value)


def test_scanner_needs_no_python_311_regex_syntax():
    # pyproject.toml supports Python 3.9: possessive quantifiers and
    # atomic groups only compile from 3.11 on, so the scanner (compiled
    # at import) must not use them
    pattern = lexer._SCANNER.pattern + lexer._LEADING_SKIP.pattern
    outside_classes = re.sub(r"\[(?:\\.|[^\]\\])*\]", "", pattern)
    assert not re.search(r"[*+?}]\+|\(\?>", outside_classes)


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #
def test_parse_simple_aggregate():
    stmt = parse("SELECT sum(lo.a * lo.b) AS x FROM lineorder AS lo")
    item = stmt.items[0]
    assert item.aggregate == "sum"
    assert item.alias == "x"
    assert isinstance(item.expr, Arith)
    assert stmt.tables[0].alias == "lo"


def test_parse_between_and_in():
    stmt = parse("SELECT sum(a) FROM t WHERE a BETWEEN 1 AND 3 "
                 "AND b IN ('x', 'y')")
    between, inset = stmt.conditions
    assert isinstance(between, BetweenCond)
    assert between.low == NumberLit(1)
    assert inset.values == (StringLit("x"), StringLit("y"))


def test_parse_group_order():
    stmt = parse("SELECT sum(v) AS s, g FROM t GROUP BY g "
                 "ORDER BY g ASC, s DESC")
    assert stmt.group_by == (Ident(None, "g"),)
    assert stmt.order_by[0].ascending is True
    assert stmt.order_by[1].ascending is False


def test_parse_implicit_alias():
    stmt = parse("SELECT sum(x) FROM lineorder lo")
    assert stmt.tables[0].alias == "lo"


def test_parse_rejects_or():
    with pytest.raises(SqlParseError):
        parse("SELECT sum(x) FROM t WHERE a = 1 OR b = 2")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(SqlParseError):
        parse("SELECT sum(x) FROM t GROUP")


def test_parse_accepts_positive_limit():
    assert parse("SELECT sum(x) FROM t LIMIT 5").limit == 5


def test_parse_rejects_limit_zero():
    with pytest.raises(SqlParseError, match="LIMIT"):
        parse("SELECT sum(x) FROM t LIMIT 0")


def test_parse_rejects_negative_limit():
    # negative numbers lex as '-' + NUMBER; the parser must fold and
    # reject them with the clause named, not choke on the symbol
    with pytest.raises(SqlParseError, match="LIMIT.*-3"):
        parse("SELECT sum(x) FROM t LIMIT -3")


def test_parse_rejects_non_numeric_limit():
    with pytest.raises(SqlParseError, match="LIMIT"):
        parse("SELECT sum(x) FROM t LIMIT lots")


def test_parse_rejects_missing_from():
    with pytest.raises(SqlParseError):
        parse("SELECT sum(x)")


def test_parse_parenthesized_expr():
    stmt = parse("SELECT sum((a + b) * c) FROM t")
    expr = stmt.items[0].expr
    assert isinstance(expr, Arith) and expr.op == "*"


# --------------------------------------------------------------------- #
# binder
# --------------------------------------------------------------------- #
def test_bind_minimal():
    q = parse_query("SELECT sum(lo.revenue) AS r FROM lineorder AS lo")
    assert q.fact_table == "lineorder"
    assert q.aggregates[0].alias == "r"
    assert q.joins == {}


def test_bind_join_classification():
    q = parse_query(
        "SELECT sum(lo.revenue) AS r FROM lineorder AS lo, date AS d "
        "WHERE lo.orderdate = d.datekey AND d.year = 1993")
    assert q.joins == {"orderdate": "date"}
    assert q.key_of("date") == "datekey"
    assert q.predicates == (
        Comparison(q.predicates[0].ref, CompareOp.EQ, 1993),)


def test_bind_flipped_literal():
    q = parse_query(
        "SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
        "WHERE 25 > lo.quantity")
    pred = q.predicates[0]
    assert pred.op is CompareOp.LT
    assert pred.value == 25


def test_bind_unqualified_unique_column():
    q = parse_query("SELECT sum(revenue) AS r FROM lineorder")
    assert q.aggregates[0].expr.column == "revenue"


def test_bind_ambiguous_column_rejected():
    with pytest.raises(SqlBindError):
        parse_query(
            "SELECT sum(lo.revenue) AS r FROM lineorder AS lo, "
            "customer AS c WHERE custkey = 5")


def test_bind_unknown_table_rejected():
    with pytest.raises(SqlBindError):
        parse_query("SELECT sum(x) FROM nonexistent")


def test_bind_unknown_column_rejected():
    with pytest.raises(SqlBindError):
        parse_query("SELECT sum(nope) AS r FROM lineorder")


def test_bind_select_column_must_be_grouped():
    with pytest.raises(SqlBindError):
        parse_query(
            "SELECT lo.quantity, sum(lo.revenue) AS r FROM lineorder AS lo")


def test_bind_requires_aggregate():
    with pytest.raises(SqlBindError):
        parse_query("SELECT quantity FROM lineorder GROUP BY quantity")


def test_bind_order_key_must_exist():
    with pytest.raises(SqlBindError):
        parse_query(
            "SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
            "ORDER BY nonsense")


def test_bind_non_equijoin_rejected():
    with pytest.raises(SqlBindError):
        parse_query(
            "SELECT sum(lo.revenue) AS r FROM lineorder AS lo, date AS d "
            "WHERE lo.orderdate < d.datekey")


def test_bind_aggregate_over_dimension_rejected():
    with pytest.raises(SqlBindError):
        parse_query(
            "SELECT sum(d.year) AS r FROM lineorder AS lo, date AS d "
            "WHERE lo.orderdate = d.datekey")


def test_count_star():
    q = parse_query("SELECT count(*) AS n FROM lineorder")
    assert q.aggregates[0].func == "count"


def test_count_star_grouped(ssb_data=None):
    q = parse_query(
        "SELECT lo.shipmode, count(*) AS n FROM lineorder AS lo "
        "GROUP BY lo.shipmode ORDER BY n DESC LIMIT 3")
    assert q.limit == 3
    assert q.group_by[0].column == "shipmode"


def test_star_only_valid_in_count():
    with pytest.raises(SqlParseError):
        parse_query("SELECT sum(*) AS s FROM lineorder")
