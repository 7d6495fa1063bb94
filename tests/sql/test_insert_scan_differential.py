"""The column-major INSERT scan against the token parser it skips.

``parse_statement`` reads a plain-literal INSERT without tokens: one
header match, one ``fullmatch`` of the ``VALUES`` block, one ``findall``
of its rows, converted column by column.  Any other text takes the token
path.  On every text both must produce the same ``InsertStatement``,
the same bound rows with the same cell types, or the same typed error
with the same message.  The property draws INSERT texts from pieces that
decide the two paths apart: ints at the int8 … int64 edges and beyond,
negatives, leading zeros, ``-0``, quoted strings with ``''`` and with
parentheses and commas inside, ragged and empty rows, comments,
``- 5``, keywords and non-ASCII text as names, and trailing junk.
"""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SqlBindError, SqlError, SqlParseError
from repro.sql import bind_insert, parse_statement
from repro.sql import parser
from repro.sql.ast import InsertStatement
from repro.sql.lexer import tokenize
from repro.ssb.schema import SCHEMAS


def _token_parse(sql):
    return parser._Parser(tokenize(sql)).parse_statement()


def _outcome(parse, sql):
    try:
        statement = parse(sql)
    except SqlError as error:
        return ("parse", type(error), str(error))
    try:
        table, rows = bind_insert(statement)
    except SqlBindError as error:
        return ("bind", statement, str(error))
    return ("ok", statement, table, rows,
            [[type(value) for value in row.values()] for row in rows])


def sometimes(clean, hostile):
    """Mostly a draw from ``clean``, one draw in eight from ``hostile``."""
    return st.integers(0, 7).flatmap(
        lambda k: hostile if k == 0 else clean)


EDGES = [0, 1, 7, 2 ** 7 - 1, 2 ** 7, 2 ** 15 - 1, 2 ** 15, 2 ** 31 - 1,
         2 ** 31, 2 ** 63 - 1, 2 ** 63, 10 ** 30]
INTS = st.sampled_from(EDGES).flatmap(
    lambda v: st.sampled_from([str(v), f"-{v}", f"-{v + 1}", f"00{v}",
                               f"-00{v}", "-0"]))
STRINGS = st.lists(
    st.sampled_from(["a", "AIR", "1-URGENT", "''", ",", "(", ")", "),(",
                     " ", "é", "-- x", ";", "5"]),
    max_size=4,
).map(lambda parts: "'" + "".join(parts) + "'")
ODD_CELLS = st.sampled_from(["- 5", "+5", "5x", "1 2", "--5", "'open",
                             "NULL", "x", "'a'''"])
SPACES = sometimes(st.sampled_from(["", " ", "  ", "\n", "\t"]),
                   st.sampled_from(["\xa0", " -- c\n", "--\n"]))
TABLES = sometimes(st.sampled_from(sorted(SCHEMAS)),
                   st.sampled_from(["PART", "nosuch", "insert", "pärt"]))
ODD_NAMES = st.sampled_from(["Size", "nosuch", "select", "values", "pärt",
                             "partkey"])


@st.composite
def insert_texts(draw):
    table = draw(TABLES)
    fields = list(SCHEMAS.get(table.lower(), SCHEMAS["part"]))
    fields = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=4,
                           unique_by=lambda f: f.name))
    names = [draw(sometimes(st.just(f.name), ODD_NAMES)) for f in fields]
    gap = draw(SPACES)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        cells = [draw(sometimes(
            STRINGS if f.ctype.is_string else INTS,
            st.one_of(ODD_CELLS, INTS if f.ctype.is_string else STRINGS)))
            for f in fields]
        if draw(st.integers(0, 15)) == 0:  # a ragged or empty row
            cells = cells[:draw(st.integers(0, len(cells)))] + \
                draw(st.lists(INTS, max_size=1))
        rows.append("(" + f",{draw(SPACES)}".join(cells) + ")")
    keyword = draw(st.sampled_from(["INSERT", "insert", "Insert"]))
    tail = draw(sometimes(st.sampled_from(["", ";", " ; ", "\n"]),
                          st.sampled_from([";;", " x", ";--", ")"])))
    return (f"{draw(SPACES)}{keyword} INTO {table}{gap}("
            + f",{gap}".join(names) + f"){gap}VALUES{gap}"
            + f",{draw(SPACES)}".join(rows) + tail)


@given(insert_texts())
@example("INSERT INTO part (partkey, name) VALUES (1, 'a''b');;")
@example("INSERT INTO part (name, size) VALUES ('x', 3), (4, 'y')")
@example("INSERT INTO part (size, name) VALUES (-007, '(,)'), "
         "(9223372036854775808, '')")
def test_insert_scan_matches_token_path_property(sql):
    assert _outcome(parse_statement, sql) == _outcome(_token_parse, sql)


BULK_WORDS = ["AIR", "it''s", "a, (b)"]


def _bulk_insert(table, count, seed=20080609):
    """A bench-shaped INSERT of ``count`` rows of typed literals."""
    rng = random.Random(seed)
    names = SCHEMAS[table].names
    rows = []
    for _ in range(count):
        cells = [f"'{rng.choice(BULK_WORDS)}'"
                 if field.ctype.is_string
                 else str(rng.randrange(-2 ** 31, 2 ** 31))
                 for field in SCHEMAS[table]]
        rows.append("(" + ", ".join(cells) + ")")
    return f"INSERT INTO {table} ({', '.join(names)}) VALUES " \
        + ", ".join(rows) + ";"


def test_bulk_insert_takes_the_scan_and_matches_tokens(monkeypatch):
    sql = _bulk_insert("lineorder", 100)
    expected = _outcome(_token_parse, sql)
    assert expected[0] == "ok" and len(expected[3]) == 100

    def refused(_text):
        raise AssertionError("the token path ran")

    monkeypatch.setattr(parser, "tokenize", refused)
    assert _outcome(parse_statement, sql) == expected


@pytest.mark.parametrize("sql", [
    "INSERT INTO part (partkey) VALUES (- 5)",
    "INSERT INTO part (partkey) VALUES (1) -- note",
    "-- note\nINSERT INTO part (partkey) VALUES (1)",
    "INSERT INTO part (partkey, size) VALUES (1, 2), (3)",
    "INSERT INTO part (partkey) VALUES ()",
    "INSERT INTO part (values) VALUES (1)",
    "INSERT INTO pärt (partkey) VALUES (1)",
    "INSERT INTO part (partkey) VALUES (1);;",
    "INSERT INTO part (partkey) VALUES ('open)",
    "INSERT\xa0INTO part (partkey) VALUES (1)",
    "INSERT INTO part (partkey) VALUES (" + "1" * 5000 + ")",
], ids=["spaced minus", "trailing comment", "leading comment", "ragged row",
        "empty row", "keyword name", "non-ASCII name", "two semicolons",
        "unterminated string", "non-ASCII space", "over-long literal"])
def test_text_outside_the_scan_grammar_takes_the_token_path(sql):
    assert parser._scan_insert(sql) is None
    assert _outcome(parse_statement, sql) == _outcome(_token_parse, sql)


def test_scan_reads_columns_major():
    statement = parse_statement(
        "insert into part (partkey, name) values (-0, 'a''b'), "
        "(007, '(,)');")
    assert statement == InsertStatement("part", ("partkey", "name"),
                                        ((0, 7), ("a'b", "(,)")))
    assert parser._scan_insert("INSERT INTO part (name) VALUES ('x')") == \
        InsertStatement("part", ("name",), (("x",),))


# -------------------------------------------------------------------- #
# an integer literal too long for int() is a typed parse error
# -------------------------------------------------------------------- #
LONG = "1" * 5000


@pytest.mark.parametrize("sql, offset", [
    (f"INSERT INTO part (partkey) VALUES ({LONG})", 35),
    (f"INSERT INTO part (partkey) VALUES (-{LONG})", 36),
    (f"SELECT sum(lo.revenue + {LONG}) AS r FROM lineorder AS lo", 24),
    (f"SELECT sum(lo.revenue) AS r FROM lineorder AS lo LIMIT {LONG}", 55),
], ids=["values", "negative value", "factor", "limit"])
def test_over_long_integer_literal_is_a_parse_error(sql, offset):
    with pytest.raises(SqlParseError) as caught:
        parse_statement(sql)
    assert str(caught.value) == (
        f"integer literal of 5000 digits is too long at offset {offset}")



def test_bind_reports_the_first_mismatch_in_row_order():
    sql = ("INSERT INTO part (partkey, name) VALUES (1, 'a'), (2, 3), "
           "('x', 'b');")
    with pytest.raises(SqlBindError) as caught:
        bind_insert(parse_statement(sql))
    assert str(caught.value) == "column part.name needs a string, got 3"
    assert _outcome(parse_statement, sql) == _outcome(_token_parse, sql)
