"""The columnar result tail against the per-row tail it replaced.

Hypothesis draws grouped outputs the way the engines hand them over:
group columns of integers, dictionary codes and raw bytes (consolidated
by ``factorize_groups``, so unique and in ascending key order), and
accumulators of all five functions — AVG over zero counts, empty MIN and
MAX, negative values — over small domains, so ORDER BY keys tie.  ORDER
BY mixes group and aggregate keys, ASC and DESC; LIMIT runs from 0 to
n+1.  Rows, their cell types and their order must be identical to
``tests/plan/reference_tail.py``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.plan.aggregates import factorize_groups, finalize_column
from repro.plan.logical import OrderKey
from repro.plan.tail import GroupColumn, encode_group, finish
from tests.plan.reference_tail import reference_finish

#: a sorted dictionary, as every ``StringDictionary`` is
VOCABULARY = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
_I64 = np.iinfo(np.int64)
_SMALL = st.integers(-4, 4)
#: per function, the accumulator values one group may carry
PRIMARY = {
    "sum": _SMALL | st.sampled_from([_I64.max, _I64.min + 1]),
    "count": st.integers(0, 4),
    "avg": st.integers(-20, 20),
    "min": _SMALL | st.just(_I64.max),  # the sentinel of an empty group
    "max": _SMALL | st.just(_I64.min),
}


def _group_column(draw, kind, n):
    """(engine GroupColumn input, reference (raw codes -> cell) decoder)
    builders for one drawn raw group column of ``n`` rows."""
    if kind == "int":
        raw = np.array(draw(st.lists(st.integers(-3, 3), min_size=n,
                                     max_size=n)), dtype=np.int64)
        return raw, None, None
    if kind == "dict":
        raw = np.array(draw(st.lists(st.integers(0, len(VOCABULARY) - 1),
                                     min_size=n, max_size=n)),
                       dtype=np.int64)
        return (raw, np.asarray(VOCABULARY, dtype=object),
                lambda code: VOCABULARY[int(code)])
    words = draw(st.lists(st.sampled_from(VOCABULARY), min_size=n,
                          max_size=n))
    raw = np.array([w.encode("ascii") for w in words], dtype="S8")
    codes, vocabulary = encode_group(raw)
    lookup = np.unique(raw)
    return codes, vocabulary, lambda code: lookup[int(code)].decode("ascii")


@st.composite
def grouped_outputs(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(["int", "dict", "bytes"]),
                          min_size=1, max_size=3))
    columns = [_group_column(draw, kind, n) for kind in kinds]
    uniq, _inverse = factorize_groups(np.stack([c[0] for c in columns]))
    num_groups = uniq.shape[1]
    # group names may repeat (Q3.1 groups on two ``nation`` columns)
    names = [draw(st.sampled_from(["k", "g1", "g2"])) for _ in kinds]
    reduced = []
    for i in range(draw(st.integers(1, 3))):
        func = draw(st.sampled_from(sorted(PRIMARY)))
        primary = np.array(draw(st.lists(
            PRIMARY[func], min_size=num_groups, max_size=num_groups)),
            dtype=np.int64)
        secondary = None
        if func == "avg":
            secondary = np.array(draw(st.lists(
                st.integers(0, 3), min_size=num_groups,
                max_size=num_groups)), dtype=np.int64)
        reduced.append((func, primary, secondary))
        names.append(f"a{i}")
    order_by = draw(st.lists(
        st.builds(OrderKey, st.sampled_from(names), st.booleans()),
        max_size=4))
    limit = draw(st.none() | st.integers(0, num_groups + 1))
    groups = [(uniq[k], vocabulary, decode)
              for k, (_raw, vocabulary, decode) in enumerate(columns)]
    return names, groups, reduced, order_by, limit


@given(grouped_outputs())
def test_columnar_tail_property_matches_per_row_tail(case):
    names, groups, reduced, order_by, limit = case
    result = finish(
        names, [GroupColumn(codes, vocabulary)
                for codes, vocabulary, _decode in groups],
        [finalize_column(func, primary, secondary)
         for func, primary, secondary in reduced],
        order_by, limit)
    expected = reference_finish(
        names, [(codes, decode) for codes, _vocabulary, decode in groups],
        reduced, order_by, limit)
    assert result.columns == names
    assert repr(result.rows) == repr(expected)


def test_ties_keep_ascending_group_key_order():
    codes = np.array([0, 1, 2, 3], dtype=np.int64)
    counts = np.array([5, 7, 5, 7], dtype=np.int64)
    result = finish(["g", "n"], [GroupColumn(codes)], [counts],
                    [OrderKey("n", ascending=False)], 3)
    assert result.rows == [(1, 7), (3, 7), (0, 5)]
