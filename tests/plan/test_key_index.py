"""``KeyIndex`` against the binary search it replaced.

``tests/plan/searchsorted_lookup.py`` is the stable-argsort +
``searchsorted`` + clip + compare that seven equi-join sites used to
repeat.  Equivalence is the contract: the same ``found`` mask, and for
every found value the first row of ``keys`` holding it — on the path
the span picks, and again with each path forced.  Inputs cover the
three probe dtypes against int64 keys, sorted and shuffled keys,
duplicates, empty keys and values, negative keys, int64 extremes (where
``value - min`` overflows) and spans one below, at and one above the
direct-path bound.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.plan import keys as keys_module
from repro.plan.keys import KeyIndex
from tests.plan.searchsorted_lookup import searchsorted_lookup

I64 = np.iinfo(np.int64)
VALUE_DTYPES = (np.int32, np.int64, np.uint32)
#: spans a forced direct table may take without a large allocation
FORCED_DIRECT_SPAN = 1 << 20


@st.composite
def lookups(draw):
    """(int64 keys, probe values, key span) for one lookup."""
    n = draw(st.integers(0, 40))
    bound = max(keys_module.DIRECT_MIN_SPAN, keys_module.DIRECT_DENSITY * n)
    shape = draw(st.sampled_from(
        ("dense", "bound-1", "bound", "bound+1", "wide")))
    span = {
        "dense": draw(st.integers(1, 2 * n + 1)),
        "bound-1": bound - 1,
        "bound": bound,
        "bound+1": bound + 1,
        "wide": draw(st.integers(bound + 2, 2 ** 64 - 1)),
    }[shape] if n > 1 else 1
    base = draw(st.one_of(
        st.just(I64.min), st.just(I64.max - span + 1),
        st.integers(-2 ** 20, 2 ** 20),
        st.integers(I64.min, I64.max - span + 1)))
    top = base + span - 1
    keys = [base, top][:n] + draw(st.lists(
        st.integers(base, top), min_size=max(n - 2, 0),
        max_size=max(n - 2, 0)))
    # duplicates even where the span makes collisions unlikely
    for i, j in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                        st.integers(0, max(n - 1, 0))),
                              max_size=4 if n > 2 else 0)):
        if i >= 2:
            keys[i] = keys[j]
    if draw(st.booleans()):
        keys = draw(st.permutations(keys))
    else:
        keys.sort()
    dtype = draw(st.sampled_from(VALUE_DTYPES))
    info = np.iinfo(dtype)
    near = [k + d for k in (base, top) for d in (-2, -1, 0, 1, 2)]
    candidates = [v for v in keys + near + [int(info.min), int(info.max)]
                  if info.min <= v <= info.max]
    values = draw(st.lists(
        st.one_of(st.sampled_from(candidates),
                  st.integers(int(info.min), int(info.max))),
        max_size=48))
    return (np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=dtype),
            span)


def _forced(keys, direct):
    """An index built with the direct path forced on (when the span
    allows a table at all) or off."""
    min_span, density = (FORCED_DIRECT_SPAN, 0) if direct else (0, 0)
    with mock.patch.multiple(keys_module, DIRECT_MIN_SPAN=min_span,
                             DIRECT_DENSITY=density):
        return KeyIndex(keys)


def _assert_matches_reference(index, keys, values):
    ref_found, ref_rows = searchsorted_lookup(keys, values)
    found, rows = index.lookup(values)
    assert found.dtype == np.bool_ and len(rows) == len(values)
    assert np.array_equal(found, ref_found)
    assert np.array_equal(keys[rows[found]], values[found])
    # duplicates resolve to the first occurrence, as the stable sort did
    assert np.array_equal(rows[found], ref_rows[found])


@given(lookups())
def test_lookup_property_matches_the_search_it_replaced(case):
    keys, values, span = case
    bound = max(keys_module.DIRECT_MIN_SPAN,
                keys_module.DIRECT_DENSITY * len(keys))
    index = KeyIndex(keys)
    assert index.direct == bool(len(keys) and span <= bound)
    _assert_matches_reference(index, keys, values)
    sorted_path = _forced(keys, direct=False)
    assert not sorted_path.direct
    _assert_matches_reference(sorted_path, keys, values)
    direct_path = _forced(keys, direct=True)
    assert direct_path.direct == bool(len(keys)
                                      and span <= FORCED_DIRECT_SPAN)
    _assert_matches_reference(direct_path, keys, values)


def test_byte_string_keys_take_the_sorted_path():
    keys = np.array([b"MFGR#2", b"MFGR#1", b"MFGR#2"], dtype="S6")
    values = np.array([b"MFGR#2", b"MFGR#3", b"MFGR#1"], dtype="S6")
    index = KeyIndex(keys)
    assert not index.direct
    found, rows = index.lookup(values)
    assert found.tolist() == [True, False, True]
    assert rows[found].tolist() == [0, 1]


@pytest.mark.parametrize("values", [np.array([1.0]),
                                    np.array([1], dtype=np.uint64)])
def test_integer_keys_refuse_other_probes(values):
    for index in (KeyIndex(np.array([1, 2])), _forced([1, 2], False)):
        with pytest.raises(TypeError):
            index.lookup(values)


# --------------------------------------------------------------------- #
# probe search: the sorted path's keys searched in an ascending probe
# --------------------------------------------------------------------- #
@st.composite
def ascending_probes(draw):
    """(int64 keys, probe values, whether the probe ascends strictly):
    keys on both sides of the int32 range, some of them int32 values
    plus a multiple of 2**32 (what a narrowing cast would confuse with
    the int32 value), duplicated and in any order; probes of the three
    dtypes holding keys, their int32 aliases and values outside the
    keys' range, mostly strictly ascending and longer than the keys."""
    dtype = draw(st.sampled_from(VALUE_DTYPES))
    info = np.iinfo(dtype)
    small = st.integers(int(info.min), int(info.max))
    keys = draw(st.lists(st.one_of(
        small,
        st.tuples(st.integers(-(1 << 31), (1 << 32) - 1),
                  st.sampled_from((-1, 1, 256)))
        .map(lambda alias: alias[0] + (alias[1] << 32)),
        st.sampled_from((int(I64.min), int(I64.max), 1 << 40))),
        min_size=1, max_size=24))
    keys += draw(st.lists(st.sampled_from(keys), max_size=6))
    if draw(st.booleans()):
        keys.sort()
    else:
        keys = draw(st.permutations(keys))
    aliases = [k & 0xFFFFFFFF for k in keys] + [
        (k & 0xFFFFFFFF) - (1 << 32) for k in keys]
    candidates = [v for v in keys + aliases + [int(info.min), int(info.max)]
                  if info.min <= v <= info.max]
    values = set(draw(st.lists(st.sampled_from(candidates),
                               max_size=2 * len(keys))))
    values |= set(draw(st.lists(small, max_size=8)))
    if draw(st.integers(0, 3)):  # a probe longer than the keys
        values |= set(range(int(info.min), int(info.min) + len(keys) + 1))
    values = sorted(values)
    if values and draw(st.integers(0, 4)) == 0:  # not strictly ascending
        at = draw(st.integers(0, len(values) - 1))
        values.insert(at, values[at])
    strict = all(a < b for a, b in zip(values, values[1:]))
    return (np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=dtype),
            strict)


@given(ascending_probes(), st.sampled_from(("shipped", "off")))
def test_property_probe_search_matches_the_search_it_replaced(case, mode):
    keys, values, strict = case
    index = _forced(keys, direct=False)
    ratio = {"shipped": keys_module.PROBE_SEARCH_RATIO, "off": 1 << 62}[mode]
    search = KeyIndex._search_probe
    with mock.patch.object(keys_module, "PROBE_SEARCH_RATIO", ratio), \
            mock.patch.object(KeyIndex, "_search_probe", autospec=True,
                              side_effect=search) as probe_search:
        _assert_matches_reference(index, keys, values)
    assert probe_search.called == (mode == "shipped" and strict
                                   and len(values) > len(keys))


def test_probe_search_keeps_byte_string_keys_on_the_key_search():
    """Searched in a narrower probe, ``MFGR#22`` would be cut to the
    ``MFGR#2`` it is not."""
    keys = np.array([b"MFGR#22", b"MFGR#1", b"MFGR#3"], dtype="S7")
    values = np.array([b"MFGR#1", b"MFGR#2", b"MFGR#4", b"MFGR#5"],
                      dtype="S6")
    with mock.patch.object(KeyIndex, "_search_probe") as probe_search:
        found, rows = KeyIndex(keys).lookup(values)
    assert not probe_search.called
    assert found.tolist() == [True, False, False, False]
    assert rows[found].tolist() == [1]
