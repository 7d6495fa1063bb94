"""The row store's batch transport moves index arrays, not columns.

A :class:`RowBatch` records each ``take`` as a selection and gathers a
column only when it is read; a :class:`HashTable` keeps keys that arrive
sorted as given; ``heap_fetch`` groups its sorted rids by page without
sorting them again.  Each is held here to the eager computation it
replaced: gathering every column at every take, argsorting every build,
and reading each distinct page once in ascending order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, StorageError
from repro.plan.keys import KeyIndex
from repro.rowstore import operators
from repro.rowstore.operators import HashTable, RowBatch, heap_fetch
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.stats import QueryStats
from repro.storage.column import Column
from repro.storage.heapfile import HeapFile
from repro.storage.table import Table
from repro.types import int32


# --------------------------------------------------------------------- #
# RowBatch: selections equal eager gathering
# --------------------------------------------------------------------- #
def _assert_batch_is(batch, model, rows):
    assert len(batch) == rows
    assert sorted(batch.names) == sorted(model)
    for name, values in model.items():
        assert np.array_equal(batch.column(name), values), name
    columns = batch.columns
    assert list(columns) == batch.names
    for name, values in model.items():
        assert np.array_equal(columns[name], values), name


def _selector(data, rows):
    """A boolean mask or an index array (repeats and any order allowed)
    over ``rows`` rows; empty selections included."""
    if data.draw(st.booleans(), label="boolean"):
        return np.array(data.draw(st.lists(st.booleans(), min_size=rows,
                                           max_size=rows)), dtype=bool)
    if not rows:
        return np.zeros(0, dtype=np.int64)
    return np.array(data.draw(st.lists(st.integers(0, rows - 1),
                                       max_size=2 * rows)), dtype=np.int64)


@given(st.data())
@settings(max_examples=max(300, settings().max_examples), deadline=None)
def test_property_row_batch_chain_equals_eager_gathering(data):
    """Random chains of boolean and index takes, column reads and added
    columns (plain, or whole arrays picked by one shared index array,
    as a join appends its build payload) end where eager gathering does:
    the same names, values and row count.  A batch may start with no
    columns at all (a bare count(*))."""
    rows = data.draw(st.integers(0, 12), label="rows")
    width = data.draw(st.integers(0, 3), label="columns")
    model = {f"c{i}": np.arange(rows, dtype=np.int64) * 10 + i
             for i in range(width)}
    batch = RowBatch(dict(model), rows)
    fresh = iter(range(1000))
    for _ in range(data.draw(st.integers(0, 8), label="steps")):
        step = data.draw(st.sampled_from(
            ("take", "take", "column", "add", "add_picked")), label="step")
        if step == "take":
            selector = _selector(data, rows)
            batch = batch.take(selector)
            model = {k: v[selector] for k, v in model.items()}
            rows = (int(selector.sum()) if selector.dtype == bool
                    else len(selector))
        elif step == "column" and model:
            name = data.draw(st.sampled_from(sorted(model)))
            assert np.array_equal(batch.column(name), model[name])
        elif step == "add":
            name = f"a{next(fresh)}"
            values = np.arange(rows, dtype=np.int64) - 7
            batch = batch.with_columns({name: values})
            model[name] = values
        elif step == "add_picked":
            whole = np.arange(5, dtype=np.int64) * -3
            pick = np.array(data.draw(st.lists(
                st.integers(0, 4), min_size=rows, max_size=rows)),
                dtype=np.int64)
            names = [f"p{next(fresh)}" for _ in range(2)]
            # two columns sharing one selection
            batch = batch.with_columns({n: whole + i for i, n in
                                        enumerate(names)}, pick)
            for i, n in enumerate(names):
                model[n] = (whole + i)[pick]
        assert len(batch) == rows
    _assert_batch_is(batch, model, rows)


def test_shared_selection_is_composed_once():
    """Columns selected together keep sharing one index array through a
    later take; a column read in between has its own gathered values."""
    batch = RowBatch({"a": np.arange(6), "b": np.arange(6) * 2,
                      "c": np.arange(6) * 3})
    batch = batch.take(np.array([5, 3, 1, 0]))
    assert np.array_equal(batch.column("c"), [15, 9, 3, 0])
    batch = batch.take(np.array([True, False, True, True]))
    assert batch._picks["a"] is batch._picks["b"]
    assert "c" in batch._picks and batch._picks["c"] is not batch._picks["a"]
    assert batch._picks["a"].tolist() == [5, 1, 0]
    assert np.array_equal(batch.column("b"), [10, 2, 0])
    assert "b" not in batch._picks
    assert np.array_equal(batch.column("c"), [15, 3, 0])


def test_a_take_leaves_its_source_batch_alone():
    source = RowBatch({"a": np.arange(4)})
    taken = source.take(np.array([2]))
    assert taken.column("a").tolist() == [2]
    assert source.column("a").tolist() == [0, 1, 2, 3]


def test_ragged_batches_stay_refused():
    batch = RowBatch({"a": np.arange(3)})
    with pytest.raises(ExecutionError, match="claims 3"):
        batch.with_columns({"b": np.arange(2)})
    with pytest.raises(ExecutionError, match="claims 3"):
        batch.with_columns({"b": np.arange(9)}, np.arange(2))
    with pytest.raises(ExecutionError, match="mask of 2"):
        batch.take(np.ones(2, dtype=bool))
    with pytest.raises(ExecutionError, match="claims 4"):
        RowBatch({"a": np.arange(3)}, 4)


def test_column_free_batch_counts_its_selection():
    batch = RowBatch({}, 5)
    assert len(batch.take(np.array([True, False, True, True, False]))) == 3
    assert len(batch.take(np.array([4, 4], dtype=np.int64))) == 2
    assert len(batch.take(np.zeros(0, dtype=np.int64))) == 0
    assert batch.names == [] and batch.columns == {}


# --------------------------------------------------------------------- #
# HashTable: a sorted build is the argsorted build
# --------------------------------------------------------------------- #
def _keys(kind):
    rng = np.random.default_rng(3)
    if kind == "sorted":
        return np.arange(0, 300, 3, dtype=np.int64)
    if kind == "shuffled":
        return rng.permutation(np.arange(0, 300, 3, dtype=np.int64))
    if kind == "duplicates-sorted":
        return np.sort(rng.integers(0, 40, 200))
    if kind == "duplicates-shuffled":
        return rng.integers(0, 40, 200)
    return np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("kind", ("sorted", "shuffled", "duplicates-sorted",
                                  "duplicates-shuffled", "empty"))
def test_hash_table_equals_an_argsorted_build(kind):
    keys = _keys(kind)
    payload = {"v": np.arange(len(keys), dtype=np.int64) * 7,
               "w": np.arange(len(keys), dtype=np.int32)}
    stats = QueryStats()
    table = HashTable(keys, payload, stats)
    assert stats.hash_inserts == len(keys)
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(table.matching_keys(), keys[order])
    rows = np.arange(len(keys))
    for name, values in payload.items():
        assert np.array_equal(table.payload_at(name, rows), values[order])
    probes = np.arange(-2, 310, dtype=np.int64)
    found, at = table.probe(probes, stats)
    want_found, want_at = KeyIndex(keys[order]).lookup(probes)
    assert np.array_equal(found, want_found)
    assert np.array_equal(at[found], want_at[want_found])
    assert stats.hash_probes == len(probes)
    if kind in ("sorted", "duplicates-sorted", "empty"):
        # kept as given: no sort, no gather
        assert table.matching_keys() is keys
        assert table.payload_at("v") is payload["v"]


# --------------------------------------------------------------------- #
# heap_fetch: page grouping of sorted rids
# --------------------------------------------------------------------- #
NUM_PAGES = 7


@pytest.fixture(scope="module")
def heap():
    disk = SimulatedDisk(QueryStats())
    probe = HeapFile.load(disk, "probe", Table("t", [
        Column.from_ints("k", np.zeros(1, np.int32), int32())]))
    per_page = probe.fmt.rows_per_page
    n = (NUM_PAGES - 1) * per_page + per_page // 4  # a short last page
    table = Table("t", [Column.from_ints(
        "k", np.arange(n, dtype=np.int32) * 3, int32())])
    built = HeapFile.load(disk, "h", table)
    assert built.num_pages == NUM_PAGES
    return built, disk


def _ledger_of_reading(disk, pages):
    disk.stats = QueryStats()
    disk.reset_head()
    pool = BufferPool(disk, 64 * 1024 * 1024)
    for page_no in pages:
        pool.read_page("h", page_no)
    return disk.stats.snapshot()


@pytest.mark.parametrize("cap", (1, 2, operators.SCAN_RUN_PAGES))
@pytest.mark.parametrize("shape", ("one-per-page", "whole-page",
                                   "short-last-page", "scattered"))
def test_heap_fetch_groups_sorted_rids_by_page(monkeypatch, heap, shape,
                                               cap):
    heap_file, disk = heap
    per_page = heap_file.fmt.rows_per_page
    n = heap_file.num_rows
    rids = {
        "one-per-page": np.arange(NUM_PAGES) * per_page + 5,
        "whole-page": np.arange(2 * per_page, 3 * per_page),
        "short-last-page": np.r_[0, np.arange((NUM_PAGES - 1) * per_page, n)],
        "scattered": np.r_[3, per_page - 1, per_page, 4 * per_page + 9,
                           n - 1],
    }[shape]
    monkeypatch.setattr(operators, "SCAN_RUN_PAGES", cap)
    shuffled = np.random.default_rng(1).permutation(rids)
    disk.stats = QueryStats()
    disk.reset_head()
    pool = BufferPool(disk, 64 * 1024 * 1024)
    batches = list(heap_fetch(heap_file, pool, shuffled, "t", ["k"]))
    got = disk.stats.snapshot()
    assert np.array_equal(
        np.concatenate([b.column("_rid") for b in batches]), rids)
    assert np.array_equal(
        np.concatenate([b.column("t.k") for b in batches]), rids * 3)
    pages = np.unique(rids // per_page)
    assert len(batches) == -(-len(pages) // cap)
    assert got["iterator_calls"] == len(rids)
    assert got["tuple_bytes_scanned"] == len(rids) * heap_file.fmt.record_width
    want = _ledger_of_reading(disk, pages.tolist())
    for counter in ("iterator_calls", "tuple_bytes_scanned"):
        got.pop(counter)
        want.pop(counter)
    assert got == want


def test_heap_fetch_takes_ascending_rids_as_given(heap):
    """Rids that arrive ascending (a bitmap plan's always do) fetch the
    same batches with the same ledger as the same rids shuffled."""
    heap_file, disk = heap
    rids = np.arange(3, heap_file.num_rows, 7)
    seen = []
    for given_rids in (np.random.default_rng(2).permutation(rids), rids):
        disk.stats = QueryStats()
        disk.reset_head()
        batches = list(heap_fetch(heap_file, BufferPool(disk, 1 << 26),
                                  given_rids, "t", ["k"]))
        seen.append(([(b.column("_rid").tolist(), b.column("t.k").tolist())
                      for b in batches], disk.stats.snapshot()))
    assert seen[0] == seen[1]
    assert seen[1][0][0][0][:2] == [3, 10]


@pytest.mark.parametrize("rids, bad", (
    ([-5, 7, 40], -5),
    ([7, "rows"], "rows"),         # one past the short last page's last
    (["rows+9", 2], "rows+9"),
), ids=("negative", "past-last-record", "past-last-page"))
def test_heap_fetch_refuses_rids_outside_the_heap(heap, rids, bad):
    """A rid outside the heap raises ``read_row``'s error instead of being
    dropped (a negative one) or escaping as an untyped ``IndexError``."""
    heap_file, disk = heap
    n = heap_file.num_rows
    assert n % heap_file.fmt.rows_per_page  # the last page is short
    value = {"rows": n, "rows+9": n + 9}
    rids = np.array([value.get(r, r) for r in rids])
    bad = value.get(bad, bad)
    with pytest.raises(StorageError) as raised:
        list(heap_fetch(heap_file, BufferPool(disk, 1 << 20), rids, "t",
                        ["k"]))
    assert str(raised.value) == (f"rid {bad} out of range for "
                                 f"{heap_file.name!r} ({n} rows)")
