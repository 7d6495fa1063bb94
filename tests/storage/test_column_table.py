"""Column / StringDictionary / Table unit tests."""

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.storage.column import Column, StringDictionary
from repro.storage.table import SortOrder, Table
from repro.types import int32, int64, string


# --------------------------------------------------------------------- #
# StringDictionary
# --------------------------------------------------------------------- #
def test_dictionary_is_sorted_and_order_preserving():
    d = StringDictionary(["banana", "apple", "cherry", "apple"])
    assert d.strings == ["apple", "banana", "cherry"]
    assert d.code("apple") < d.code("banana") < d.code("cherry")


def test_dictionary_encode_decode():
    d = StringDictionary(["x", "y"])
    codes = d.encode(["y", "x", "y"])
    assert codes.tolist() == [1, 0, 1]
    assert d.decode(codes) == ["y", "x", "y"]


def test_dictionary_code_or_none():
    d = StringDictionary(["a"])
    assert d.code_or_none("a") == 0
    assert d.code_or_none("zzz") is None


def test_dictionary_range_for_prefix():
    d = StringDictionary(["aa", "ab", "b", "c"])
    assert list(d.range_for_prefix_le("ab", "b")) == [1, 2]


def test_dictionary_equality():
    assert StringDictionary(["a", "b"]) == StringDictionary(["b", "a"])
    assert StringDictionary(["a"]) != StringDictionary(["b"])


# --------------------------------------------------------------------- #
# Column
# --------------------------------------------------------------------- #
def test_int_column_basics():
    c = Column.from_ints("q", [1, 2, 3], int32())
    assert len(c) == 3
    assert c.value_at(1) == 2
    assert c.uncompressed_bytes() == 12
    assert not c.is_string


def test_int_column_overflow_rejected():
    with pytest.raises(TypeMismatchError):
        Column.from_ints("q", [2**40], int32())


def test_string_column_roundtrip():
    c = Column.from_strings("city", ["rome", "oslo", "rome"])
    assert c.is_string
    assert c.value_at(0) == "rome"
    assert c.decoded() == ["rome", "oslo", "rome"]
    assert c.uncompressed_bytes() == 3 * 4  # width 4 = len("rome")


def test_string_column_requires_dictionary():
    with pytest.raises(TypeMismatchError):
        Column("s", string(4), np.array([0], dtype=np.int32))


def test_int_column_rejects_dictionary():
    d = StringDictionary(["a"])
    with pytest.raises(TypeMismatchError):
        Column("n", int32(), np.array([0], dtype=np.int32), d)


def test_column_codes_must_fit_dictionary():
    d = StringDictionary(["a", "b"])
    with pytest.raises(TypeMismatchError):
        Column.from_codes("s", np.array([5], dtype=np.int32), d, 1)


def test_column_take_and_rename():
    c = Column.from_ints("q", [10, 20, 30], int32())
    t = c.take(np.array([2, 0]))
    assert t.data.tolist() == [30, 10]
    assert c.rename("z").name == "z"


def test_column_data_is_readonly():
    c = Column.from_ints("q", [1], int32())
    with pytest.raises(ValueError):
        c.data[0] = 5


def test_encode_literal():
    c = Column.from_strings("s", ["a", "b"])
    assert c.encode_literal("a") == 0
    assert c.encode_literal("missing") is None
    with pytest.raises(TypeMismatchError):
        c.encode_literal(7)
    n = Column.from_ints("n", [1], int64())
    assert n.encode_literal(9) == 9
    with pytest.raises(TypeMismatchError):
        n.encode_literal("x")


# --------------------------------------------------------------------- #
# Table
# --------------------------------------------------------------------- #
def _table():
    return Table("t", [
        Column.from_ints("k", [3, 1, 2], int32()),
        Column.from_strings("s", ["c", "a", "b"]),
    ])


def test_table_basics():
    t = _table()
    assert t.num_rows == 3
    assert t.column_names == ["k", "s"]
    assert t.row(0) == {"k": 3, "s": "c"}
    assert t.uncompressed_bytes() == 3 * 4 + 3 * 1


def test_table_ragged_columns_rejected():
    with pytest.raises(SchemaError):
        Table("t", [
            Column.from_ints("a", [1], int32()),
            Column.from_ints("b", [1, 2], int32()),
        ])


def test_table_duplicate_column_rejected():
    c = Column.from_ints("a", [1], int32())
    with pytest.raises(SchemaError):
        Table("t", [c, c])


def test_table_unknown_column_raises():
    with pytest.raises(SchemaError):
        _table().column("missing")


def test_table_sort_by():
    t = _table().sort_by(["k"])
    assert t.column("k").data.tolist() == [1, 2, 3]
    assert t.column("s").decoded() == ["a", "b", "c"]
    assert t.sort_order.keys == ("k",)
    assert t.verify_sorted()


def test_table_sort_by_compound():
    t = Table("t", [
        Column.from_ints("a", [1, 1, 0, 0], int32()),
        Column.from_ints("b", [2, 1, 5, 4], int32()),
    ]).sort_by(["a", "b"])
    assert t.column("a").data.tolist() == [0, 0, 1, 1]
    assert t.column("b").data.tolist() == [4, 5, 1, 2]
    assert t.verify_sorted()


def test_verify_sorted_detects_violation():
    t = Table("t", [Column.from_ints("a", [2, 1], int32())],
              SortOrder(("a",)))
    assert not t.verify_sorted()


def test_table_project_preserves_sort_prefix():
    t = Table("t", [
        Column.from_ints("a", [0, 1], int32()),
        Column.from_ints("b", [0, 1], int32()),
        Column.from_ints("c", [0, 1], int32()),
    ], SortOrder(("a", "b", "c")))
    p = t.project(["a", "c"])
    assert p.sort_order.keys == ("a",)  # b missing breaks the prefix


def test_table_take():
    t = _table().take(np.array([1]))
    assert t.num_rows == 1
    assert t.row(0) == {"k": 1, "s": "a"}


def test_sort_order_helpers():
    so = SortOrder(("a", "b"))
    assert so.position("b") == 1
    assert so.position("z") is None
    assert bool(SortOrder(())) is False


def test_table_bad_sort_key_rejected():
    with pytest.raises(SchemaError):
        Table("t", [Column.from_ints("a", [1], int32())],
              SortOrder(("missing",)))
