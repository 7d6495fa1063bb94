"""The one predicate-to-domain translation, against Python's own
comparisons.

:func:`repro.plan.predicates.stored_domain` maps a predicate into an
integer dtype, an order-preserving dictionary's codes or NUL-padded
``S<n>`` bytes, and every engine and the reference engine evaluate
predicates through it, so a differential test between them cannot see a
fault here.  The property draws columns of each domain, every operator,
and literals from inside and outside the domain (neighbours of stored
values, absent and over-width strings, ``''``, integers one past the
column's extremes and the dtype's), and checks the mask row by row
against the decoded values, and that the zone-map survivor test never
drops a block or heap page that holds a match.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.colstore.operators.scan import predicate_positions
from repro.core.config import ExecutionConfig
from repro.errors import TypeMismatchError
from repro.plan.logical import (
    ColumnRef,
    CompareOp,
    Comparison,
    InSet,
    RangePredicate,
)
from repro.plan.predicates import domain_mask, eval_predicate, stored_domain
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.stats import QueryStats
from repro.storage.colfile import ColumnFile, CompressionLevel
from repro.storage.column import Column
from repro.synopsis import HeapSynopsis, _HeapColumn, heap_page_mask, survivors
from repro.types import int32, int64

REF = ColumnRef("t", "c")
OPS = {
    CompareOp.EQ: lambda v, x: v == x,
    CompareOp.LT: lambda v, x: v < x,
    CompareOp.LE: lambda v, x: v <= x,
    CompareOp.GT: lambda v, x: v > x,
    CompareOp.GE: lambda v, x: v >= x,
}


# --------------------------------------------------------------------- #
# the translation, case by case
# --------------------------------------------------------------------- #
def test_stored_domain_int():
    col = Column.from_ints("q", [1, 2, 3], int32())
    dtype = col.data.dtype
    assert stored_domain(Comparison(REF, CompareOp.EQ, 2), dtype) == (2, 2)
    assert stored_domain(Comparison(REF, CompareOp.LT, 2), dtype)[1] == 1
    assert stored_domain(RangePredicate(REF, 1, 2), dtype) == (1, 2)
    # outside the dtype: clamped bounds, dropped needles
    assert stored_domain(Comparison(REF, CompareOp.LT, 2 ** 40), dtype) \
        == (-2 ** 31, 2 ** 31 - 1)
    needles = stored_domain(InSet(REF, (2 ** 40, 3, 3)), dtype)
    assert needles.dtype == dtype and needles.tolist() == [3]


def test_stored_domain_string_codes():
    col = Column.from_strings("s", ["aa", "bb", "cc"])
    dtype, dictionary = col.data.dtype, col.dictionary
    assert stored_domain(Comparison(REF, CompareOp.EQ, "bb"), dtype,
                         dictionary) == (1, 1)
    assert stored_domain(InSet(REF, ("zz", "aa")), dtype,
                         dictionary).tolist() == [0]
    # absent and between two entries: exact code ranges
    assert stored_domain(Comparison(REF, CompareOp.GT, "b"), dtype,
                         dictionary) == (1, 2)
    lo, hi = stored_domain(Comparison(REF, CompareOp.EQ, "b"), dtype,
                           dictionary)
    assert lo > hi


def test_stored_domain_string_raw():
    dtype = np.dtype("S2")
    assert stored_domain(Comparison(REF, CompareOp.EQ, "bb"), dtype) == \
        (b"bb", b"bb")
    assert stored_domain(InSet(REF, ("zz", "aa", "aa")), dtype).tolist() \
        == [b"aa", b"zz"]
    assert stored_domain(RangePredicate(REF, "aa", "bb"), dtype) == \
        (b"aa", b"bb")
    # a strict bound is exact: numpy ignores trailing NULs
    lo, _hi = stored_domain(Comparison(REF, CompareOp.GT, "a"), dtype)
    data = np.array([b"a", b"a\x01", b"b"], dtype=dtype)
    assert lo == b"a\x01"
    assert domain_mask(data, (lo, _hi)).tolist() == [False, True, True]
    lo, hi = stored_domain(Comparison(REF, CompareOp.LT, ""), dtype)
    assert lo > hi  # nothing sorts below ''


def test_literal_types_and_byte_widths():
    """An integer on a CHAR column or a string on an integer column is a
    type error in every domain; an over-width CHAR literal is a literal
    the column cannot hold, so it matches nothing."""
    for dtype in (np.dtype("S4"), np.dtype("<i4")):
        literal = 1 if dtype.kind == "S" else "ab"
        for pred in (Comparison(REF, CompareOp.EQ, literal),
                     RangePredicate(REF, literal, literal),
                     InSet(REF, (literal,))):
            with pytest.raises(TypeMismatchError):
                stored_domain(pred, dtype)
    with pytest.raises(TypeMismatchError):
        stored_domain(InSet(REF, ("ab", 1)), np.dtype("S4"))
    lo, hi = stored_domain(Comparison(REF, CompareOp.EQ, "toolong"),
                           np.dtype("S2"))
    assert lo > hi
    assert len(stored_domain(InSet(REF, ("toolong",)), np.dtype("S2"))) == 0


def test_dictionary_and_int_literals():
    c = Column.from_strings("s", ["a", "b"])
    assert eval_predicate(c, Comparison(REF, CompareOp.EQ, "a")).tolist() \
        == [True, False]
    assert not eval_predicate(c, InSet(REF, ("missing",))).any()
    with pytest.raises(TypeMismatchError):
        eval_predicate(c, Comparison(REF, CompareOp.EQ, 7))
    n = Column.from_ints("n", [1, 9], int64())
    assert eval_predicate(n, InSet(REF, (9,))).tolist() == [False, True]
    with pytest.raises(TypeMismatchError):
        eval_predicate(n, Comparison(REF, CompareOp.EQ, "x"))


def test_raw_string_scan_with_strict_bound():
    """The raw-bytes column file scan: ``> 'MAIL'`` excludes 'MAIL'."""
    values = ["AIR", "MAIL", "MAIL", "RAIL", "SHIP"] * 400
    col = Column.from_strings("s", values, width=10)
    disk = SimulatedDisk(QueryStats())
    f = ColumnFile.load(disk, "s", col, CompressionLevel.NONE)
    pool = BufferPool(disk, 8 * 1024 * 1024)
    domain = stored_domain(Comparison(REF, CompareOp.GT, "MAIL"), f.dtype,
                           col.dictionary)
    out = predicate_positions(f, pool, domain,
                              ExecutionConfig.from_label("tIcL"))
    assert out.count == 800


# --------------------------------------------------------------------- #
# the property
# --------------------------------------------------------------------- #
ALPHABET = "AMZ"


@st.composite
def int_column(draw):
    dtype = np.dtype(draw(st.sampled_from(["i1", "i2", "i4", "i8"])))
    info = np.iinfo(dtype)
    edge = draw(st.sampled_from(["low", "mid", "high"]))
    base = {"low": int(info.min), "mid": -3, "high": int(info.max) - 6}[edge]
    values = draw(st.lists(st.integers(base, base + 6), min_size=1,
                           max_size=40))
    lo, hi = min(values), max(values)
    literals = st.sampled_from(sorted({
        *values, lo - 1, hi + 1, int(info.min) - 1, int(info.max) + 1,
        int(info.min), int(info.max)}))
    return ["int"], dtype, values, literals


@st.composite
def string_column(draw):
    width = draw(st.integers(1, 4))
    values = draw(st.lists(st.text(ALPHABET, max_size=width), min_size=1,
                           max_size=40))
    stored = st.sampled_from(sorted(set(values)))
    literals = st.one_of(
        stored,
        # between two entries, absent, '' and over-width
        stored.map(lambda v: v + "B"),
        st.text(ALPHABET + "B", max_size=width + 2),
        st.just(""),
        stored.map(lambda v: v + "Z" * (width + 1)),
    )
    return ["dictionary", "bytes"], np.dtype(f"S{width}"), values, literals


def _predicates(a, b, needles):
    """(predicate, Python's verdict on one value) for every operator."""
    cases = [(Comparison(REF, op, a), lambda v, op=op: OPS[op](v, a))
             for op in OPS]
    return cases + [
        (RangePredicate(REF, a, b), lambda v: a <= v <= b),
        (InSet(REF, tuple(needles)), lambda v: v in needles),
    ]


def _stored(kind, dtype, values):
    """(stored array, domain dtype, dictionary) for one drawn column."""
    if kind == "int":
        return np.asarray(values, dtype=dtype), dtype, None
    if kind == "bytes":
        return np.asarray([v.encode() for v in values], dtype=dtype), \
            dtype, None
    col = Column.from_strings("c", values, width=dtype.itemsize)
    return col.data, col.data.dtype, col.dictionary


def _bounds(chunks, dtype):
    return (np.array([min(c) for c in chunks], dtype=dtype),
            np.array([max(c) for c in chunks], dtype=dtype))


@given(data=st.data(),
       column=st.one_of(int_column(), string_column()),
       block=st.integers(1, 7))
def test_translation_property_matches_python_comparison(data, column, block):
    kinds, dtype, values, literals = column
    a, b = data.draw(literals), data.draw(literals)
    needles = data.draw(st.lists(literals, min_size=1, max_size=4))
    for kind in kinds:
        stored, domain_dtype, dictionary = _stored(kind, dtype, values)
        chunks = [stored[i:i + block] for i in range(0, len(stored), block)]
        # heap pages keep int bounds as int64, whatever the column's dtype
        heap_dtype = np.int64 if kind == "int" else dtype
        for pred, python in _predicates(a, b, needles):
            domain = stored_domain(pred, domain_dtype, dictionary)
            mask = domain_mask(stored, domain)
            assert mask.tolist() == [python(v) for v in values], \
                (kind, pred, values, domain)
            hits = np.array([bool(mask[i:i + block].any())
                             for i in range(0, len(stored), block)])
            kept = survivors(*_bounds(chunks, stored.dtype), domain)
            assert kept[hits].all(), (kind, pred, values)
            if kind != "dictionary":
                synopsis = HeapSynopsis(len(chunks), {"c": _HeapColumn(
                    int(kind == "bytes"), *_bounds(chunks, heap_dtype))})
                pages = heap_page_mask(synopsis, [pred])
                assert pages[hits].all(), (kind, pred, values)
