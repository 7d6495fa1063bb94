"""The compiled scanner against the per-character one it replaced.

``tests/sql/reference_lexer.py`` keeps the old scanner.  On any text both
must produce the same token list, or raise the same error at the same
offset.  The one documented divergence is non-ASCII digits: the old
scanner lexed them into numbers that ``int()`` then rejected untyped,
the compiled one refuses such a digit as an unexpected character where
a token would start.  The property draws from an alphabet rich in the
characters that decide token boundaries; every SSB query text and a
bench-sized bulk INSERT are compared too.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SqlLexError
from repro.sql.lexer import tokenize
from repro.ssb.generator import generate
from repro.ssb.sql_text import SQL_TEXT
from tests.sql.reference_lexer import reference_tokenize

#: letters, ASCII digits, ``_``, quotes, every symbol character, the
#: comment opener, whitespace including a non-breaking space, a
#: non-ASCII letter, a non-ASCII digit and a character no token takes
ALPHABET = list("abzSELECTinx019_'(),.*+-;=<>!") + \
    ["--", " ", "\n", "\t", "\xa0", "é", "²", "@", "''"]


def _outcome(scan, text):
    try:
        return ("tokens", scan(text))
    except SqlLexError as error:
        return ("error", str(error), error.position)


@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_lexer_matches_reference_property(text):
    got = _outcome(tokenize, text)
    if got == _outcome(reference_tokenize, text):
        return
    # the documented divergence: refused at a non-ASCII digit, with
    # everything before it lexed alike
    assert got[0] == "error"
    position = got[2]
    assert text[position].isdigit() and not text[position].isascii()
    assert got[1] == f"unexpected character {text[position]!r} " \
                     f"(at offset {position})"
    prefix = text[:position]
    assert _outcome(tokenize, prefix) == \
        _outcome(reference_tokenize, prefix)


@pytest.mark.parametrize("name", sorted(SQL_TEXT))
def test_lexer_matches_reference_on_ssb_text(name):
    assert tokenize(SQL_TEXT[name]) == reference_tokenize(SQL_TEXT[name])


def test_lexer_matches_reference_on_bulk_insert():
    fact = generate(0.001).lineorder
    rng = random.Random(20080609)
    columns = fact.columns()
    rows = []
    for _ in range(100):
        pick = rng.randrange(fact.num_rows)
        rows.append(", ".join(
            f"'{col.dictionary.strings[int(col.data[pick])]}'"
            if col.dictionary is not None else str(int(col.data[pick]))
            for col in columns))
    sql = (f"INSERT INTO lineorder ({', '.join(c.name for c in columns)})"
           " VALUES " + ", ".join(f"({row})" for row in rows) + ";")
    tokens = tokenize(sql)
    assert len(tokens) > 100 * 2 * len(columns)
    assert tokens == reference_tokenize(sql)
