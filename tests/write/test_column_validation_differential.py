"""Insert validation runs per column, with exactly the outcome of the
row-by-row walk it replaced.

``tests/write/reference_validate.py`` keeps that walk.  Held against it
on generated batches over int32, int64 and dictionary columns — rows
with missing or extra keys, strings and ints in each other's columns,
``bool``s, floats, ``None``, NumPy scalars, an ``int`` subclass, ints
one past either end of the stored width and strings outside the
domain — ``WriteStore._validate_rows`` accepts the same batches with
equal rows and cell types, or raises the same first error.
"""

import enum

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import IntegrityError
from repro.storage.column import Column, StringDictionary
from repro.storage.table import Table
from repro.types import int32, int64, string
from repro.write.store import WriteStore
from tests.write.reference_validate import reference_validate_rows

DOMAIN = ["AIR", "MAIL", "RAIL"]
BASE = Table("t", [
    Column("k", int32(), np.array([1], dtype=np.int32)),
    Column("mode", string(4), np.array([0], dtype=np.int32),
           StringDictionary(DOMAIN)),
    Column("big", int64(), np.array([1], dtype=np.int64)),
    Column("qty", int32(), np.array([1], dtype=np.int32)),
])
I32 = np.iinfo(np.int32)
I64 = np.iinfo(np.int64)


class Code(enum.IntEnum):
    SEVEN = 7


def _ints(info):
    return st.one_of(
        st.integers(int(info.min), int(info.max)),
        st.sampled_from([int(info.min), int(info.max), 0, -1, Code.SEVEN]))


VALID = {"k": _ints(I32), "mode": st.sampled_from(DOMAIN),
         "big": _ints(I64), "qty": _ints(I32)}
#: values of the wrong type, or of the right type out of the column's
#: width or domain (drawn equally often)
ODD = st.one_of(
    st.sampled_from([True, False, 1.0, None, "7", 3, np.int32(3),
                     np.int64(-1)]),
    st.sampled_from([int(I32.max) + 1, int(I32.min) - 1, int(I64.max) + 1,
                     int(I64.min) - 1, 10 ** 30, "air", "", "ZZZ"]),
)
#: most rows have exactly the schema's columns; a few lack one, carry
#: an extra one, or list them in another order
SHAPES = ["schema"] * 13 + ["missing", "extra", "reordered"]


@st.composite
def batches(draw):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {}
        for name, valid in VALID.items():
            odd = draw(st.integers(0, 23)) == 0
            row[name] = draw(ODD if odd else valid)
        shape = draw(st.sampled_from(SHAPES))
        if shape == "missing":
            del row[draw(st.sampled_from(sorted(row)))]
        elif shape == "extra":
            row[draw(st.sampled_from(["extra", "Qty"]))] = 1
        elif shape == "reordered":  # the caller's order need not be ours
            row = dict(reversed(list(row.items())))
        rows.append(row)
    return rows


def _outcome(validate, rows):
    try:
        checked = validate(rows)
    except IntegrityError as error:
        return ("error", str(error))
    return ("ok", checked,
            [{name: type(value) for name, value in row.items()}
             for row in checked])


@pytest.fixture(scope="module")
def store(wdata):
    return WriteStore(dict(wdata.tables))


GOOD = {"k": 1, "mode": "AIR", "big": 2, "qty": 3}


@given(rows=batches())
@example(rows=[GOOD, dict(GOOD, qty=int(I32.max) + 1)])
@example(rows=[GOOD, dict(GOOD, big=int(I64.min) - 1, mode="BUS")])
@example(rows=[dict(GOOD, mode=""), dict(GOOD, k=True)])
@example(rows=[dict(GOOD, k=Code.SEVEN), GOOD])
def test_column_validation_matches_reference_property(store, rows):
    columns = []

    def validate(r):
        checked, by_column = store._validate_rows("t", BASE, r)
        columns.append(by_column)
        return checked

    got = _outcome(validate, rows)
    assert got == _outcome(lambda r: reference_validate_rows("t", BASE, r),
                           rows)
    if got[0] == "ok":  # fresh dicts: the caller's rows stay its own
        assert all(out is not row for out, row in zip(got[1], rows))
        # the columns the WOS buffers are the checked rows, column-major
        assert columns == [[[row[name] for row in got[1]]
                            for name in BASE.column_names]]


def test_first_error_is_row_then_column_order(store):
    rows = [dict(GOOD), dict(GOOD, qty="x"), dict(GOOD, k=2 ** 31),
            {"k": 1}]
    with pytest.raises(IntegrityError) as caught:
        store._validate_rows("t", BASE, rows)
    assert str(caught.value) == \
        "insert into 't'.qty: expected an integer, got 'x'"
    rows[1] = dict(GOOD, mode="BUS", qty="x")
    with pytest.raises(IntegrityError, match="'BUS' is outside"):
        store._validate_rows("t", BASE, rows)
    with pytest.raises(IntegrityError, match=r"missing \['big', 'mode'"):
        store._validate_rows("t", BASE, [dict(GOOD), {"k": 1, "qty": "x"},
                                          dict(GOOD, qty="y")])
    with pytest.raises(IntegrityError, match=r"unexpected \['extra'\]"):
        store._validate_rows("t", BASE, [dict(GOOD), dict(GOOD, extra=1),
                                          dict(GOOD, qty="y")])
