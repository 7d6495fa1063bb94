"""Bitmap index, row operators, and predicate compilation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, TypeMismatchError
from repro.plan.logical import (
    ColumnRef,
    CompareOp,
    Comparison,
    InSet,
    RangePredicate,
)
from repro.reference import execute as ref_execute
from repro.rowstore.bitmap_index import BitmapIndex, intersect_rid_sets
from repro.rowstore.designs import DesignKind
from repro.rowstore.operators import (
    HashAggregator,
    HashTable,
    RowBatch,
    SpillAccountant,
    hash_join,
    heap_fetch,
    qualified,
    seq_scan,
)
from repro.rowstore.predicates import compile_predicate
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.stats import QueryStats
from repro.sql import parse_query
from repro.storage.column import Column
from repro.storage.heapfile import HeapFile
from repro.storage.table import Table
from repro.types import int32


# --------------------------------------------------------------------- #
# bitmap index
# --------------------------------------------------------------------- #
def _bitmap(values):
    disk = SimulatedDisk(QueryStats())
    idx = BitmapIndex.build(disk, "bmp", np.asarray(values, dtype=np.int32))
    return idx, BufferPool(disk, 1024 * 1024)


def test_bitmap_single_value():
    values = [3, 1, 3, 2, 3]
    idx, pool = _bitmap(values)
    assert idx.read_rids(pool, 3).tolist() == [0, 2, 4]
    assert idx.read_rids(pool, 1).tolist() == [1]
    assert idx.read_rids(pool, 99).tolist() == []
    assert idx.num_values == 3


def test_bitmap_union_and_range():
    values = [0, 1, 2, 3, 4] * 100
    idx, pool = _bitmap(values)
    union = idx.read_union(pool, [1, 3])
    assert len(union) == 200
    assert np.all(np.diff(union) > 0)
    rng = idx.read_range(pool, 2, 3)
    assert len(rng) == 200


def test_bitmap_intersection():
    a = np.array([1, 3, 5, 7], dtype=np.int64)
    b = np.array([3, 4, 7], dtype=np.int64)
    _, pool = _bitmap([0])
    out = intersect_rid_sets(pool, [a, b])
    assert out.tolist() == [3, 7]
    assert pool.stats.position_ops > 0


def test_bitmap_union_equals_union_of_lists_across_page_boundaries():
    from repro.simio.disk import PAGE_SIZE

    rng = np.random.default_rng(9)
    values = rng.integers(0, 1500, 60_000).astype(np.int32)
    idx, _ = _bitmap(values)
    straddlers = [v for v, (offset, length) in idx.directory.items()
                  if offset // PAGE_SIZE != (offset + length - 1) // PAGE_SIZE]
    assert len(straddlers) >= 2  # blobs are packed back to back
    wanted = sorted(set(straddlers) | set(range(0, 1500, 7))) + [9999]

    one_by_one = BufferPool(idx.disk, 1024 * 1024)
    idx.disk.stats = QueryStats()
    idx.disk.reset_head()
    lists = [idx.read_rids(one_by_one, v) for v in wanted]
    for v, rids in zip(wanted, lists):
        assert rids.tolist() == np.flatnonzero(values == v).tolist()
    ledger = idx.disk.stats.snapshot()

    at_once = BufferPool(idx.disk, 1024 * 1024)
    idx.disk.stats = QueryStats()
    idx.disk.reset_head()
    union = idx.read_union(at_once, wanted)
    assert np.array_equal(union, np.sort(np.concatenate(lists)))
    # the same pages in the same order, the same values decompressed;
    # the union alone pays the merge
    assert idx.disk.stats.position_ops == len(union)
    idx.disk.stats.position_ops = 0
    assert idx.disk.stats.snapshot() == ledger


def test_bitmap_union_reads_a_repeated_value_once():
    idx, pool = _bitmap([3, 1, 3, 2, 3])
    assert idx.read_union(pool, [3, 1, 3]).tolist() == [0, 1, 2, 4]
    assert pool.stats.values_decompressed == 4
    assert pool.stats.position_ops == 4


@pytest.mark.parametrize("sql", [
    "SELECT SUM(lo.revenue) AS r FROM lineorder lo "
    "WHERE lo.quantity IN (3, 3)",
    "SELECT lo.quantity, SUM(lo.revenue) AS r FROM lineorder lo "
    "WHERE lo.discount IN (1, 3, 3) GROUP BY lo.quantity "
    "ORDER BY lo.quantity",
])
def test_bitmap_plan_counts_a_repeated_in_value_once(ssb_data, system_x,
                                                     sql):
    """OR is a set union: ``IN (3, 3)`` must answer as ``IN (3)``."""
    query = parse_query(sql)
    expected = ref_execute(ssb_data.tables, query)
    assert expected.rows
    for design in (DesignKind.TRADITIONAL, DesignKind.TRADITIONAL_BITMAP):
        assert system_x.execute(query, design).result.same_rows(expected)


def test_bitmap_rids_roundtrip_random():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 37, 10_000).astype(np.int32)
    idx, pool = _bitmap(values)
    for v in (0, 17, 36):
        expected = np.flatnonzero(values == v).tolist()
        assert idx.read_rids(pool, v).tolist() == expected


# --------------------------------------------------------------------- #
# predicate compilation
# --------------------------------------------------------------------- #
REF = ColumnRef("t", "c")


@pytest.mark.parametrize("op,expected", [
    (CompareOp.EQ, [False, True, False]),
    (CompareOp.LT, [True, False, False]),
    (CompareOp.LE, [True, True, False]),
    (CompareOp.GT, [False, False, True]),
    (CompareOp.GE, [False, True, True]),
])
def test_comparison_ops(op, expected):
    stats = QueryStats()
    pred = compile_predicate(Comparison(REF, op, 5), np.dtype("<i4"))
    mask = pred(np.array([1, 5, 9], dtype=np.int32), stats)
    assert mask.tolist() == expected
    assert stats.attr_extractions == 3


def test_range_and_inset():
    stats = QueryStats()
    rng = compile_predicate(RangePredicate(REF, 2, 4), np.dtype("<i4"))
    assert rng(np.array([1, 2, 3, 4, 5]), stats).tolist() == \
        [False, True, True, True, False]
    ins = compile_predicate(InSet(REF, (1, 5)), np.dtype("<i4"))
    assert ins(np.array([1, 2, 5]), stats).tolist() == [True, False, True]


def test_string_predicates_on_bytes():
    stats = QueryStats()
    pred = compile_predicate(Comparison(REF, CompareOp.EQ, "ASIA"),
                             np.dtype("S12"))
    data = np.array([b"ASIA", b"EUROPE"], dtype="S12")
    assert pred(data, stats).tolist() == [True, False]
    # width scales the scalar cost
    assert stats.values_scanned_scalar == 2 * 3  # 12 bytes = 3 words


# --------------------------------------------------------------------- #
# operators
# --------------------------------------------------------------------- #
def _heap(n=2000):
    disk = SimulatedDisk(QueryStats())
    rng = np.random.default_rng(7)
    table = Table("t", [
        Column.from_ints("k", np.arange(n, dtype=np.int32), int32()),
        Column.from_ints("v", rng.integers(0, 10, n).astype(np.int32),
                         int32()),
    ])
    heap = HeapFile.load(disk, "h", table)
    return heap, BufferPool(disk, 1024 * 1024 * 4), table


def test_seq_scan_no_predicate():
    heap, pool, table = _heap()
    batches = list(seq_scan(heap, pool, "t", ["k", "v"]))
    total = sum(len(b) for b in batches)
    assert total == 2000
    assert pool.stats.iterator_calls == 2000
    assert pool.stats.tuple_bytes_scanned == 2000 * heap.fmt.record_width


def test_seq_scan_with_predicate():
    heap, pool, table = _heap()
    pred = Comparison(ColumnRef("t", "v"), CompareOp.LT, 3)
    rows = sum(len(b) for b in seq_scan(heap, pool, "t", ["k"], [pred]))
    expected = int((table.column("v").data < 3).sum())
    assert rows == expected


def test_seq_scan_short_circuits_second_predicate():
    heap, pool, _ = _heap()
    preds = [Comparison(ColumnRef("t", "v"), CompareOp.LT, 3),
             Comparison(ColumnRef("t", "k"), CompareOp.LT, 100)]
    list(seq_scan(heap, pool, "t", ["k"], preds))
    # the second predicate ran only on survivors of the first
    assert pool.stats.values_scanned_scalar < 2 * 2000


def test_seq_scan_rids():
    heap, pool, _ = _heap()
    batches = list(seq_scan(heap, pool, "t", ["k"], rid_column="_rid"))
    rids = np.concatenate([b.column("_rid") for b in batches])
    keys = np.concatenate([b.column(qualified("t", "k")) for b in batches])
    assert np.array_equal(rids, keys.astype(np.int64))


def test_heap_fetch_by_rid():
    heap, pool, table = _heap()
    rids = np.array([5, 100, 1999], dtype=np.int64)
    batches = list(heap_fetch(heap, pool, rids, "t", ["k"]))
    keys = np.concatenate([b.column(qualified("t", "k")) for b in batches])
    assert sorted(keys.tolist()) == [5, 100, 1999]


def test_hash_table_and_join():
    stats = QueryStats()
    build = HashTable(np.array([1, 2, 3], dtype=np.int64),
                      {"name": np.array([10, 20, 30], dtype=np.int64)},
                      stats)
    assert stats.hash_inserts == 3
    found, rows = build.probe(np.array([2, 9], dtype=np.int64), stats)
    assert found.tolist() == [True, False]
    assert build.payload_at("name", rows[found]).tolist() == [20]

    stream = [RowBatch({"fk": np.array([1, 9, 3], dtype=np.int64)})]
    out = list(hash_join(stream, "fk", build, {"name": "d.name"}, stats))
    assert out[0].column("fk").tolist() == [1, 3]
    assert out[0].column("d.name").tolist() == [10, 30]


def test_hash_join_spill_charges_io():
    disk = SimulatedDisk(QueryStats())
    stats = disk.stats
    spill = SpillAccountant(disk, memory_budget_bytes=10)
    build = HashTable(np.arange(100, dtype=np.int64),
                      {"p": np.arange(100, dtype=np.int64)}, stats)
    stream = [RowBatch({"fk": np.arange(100, dtype=np.int64)})]
    list(hash_join(stream, "fk", build, {"p": "p"}, stats, spill=spill,
                   probe_row_bytes=8, probe_rows_estimate=100))
    assert stats.bytes_written > 0
    assert stats.bytes_read > 0


def test_hash_aggregator_groups():
    stats = QueryStats()
    agg = HashAggregator(["g"], ["s"])
    agg.consume([np.array([1, 1, 2])], [np.array([10, 20, 5])], stats)
    agg.consume([np.array([2])], [np.array([7])], stats)
    result = agg.result()
    rows = dict((r[0], r[1]) for r in result.rows)
    assert rows == {1: 30, 2: 12}
    assert stats.agg_updates == 4


def test_hash_aggregator_no_groups():
    stats = QueryStats()
    agg = HashAggregator([], ["s"])
    agg.consume([], [np.array([1, 2, 3])], stats)
    assert agg.result().rows == [(6,)]


def test_hash_aggregator_bytes_groups():
    stats = QueryStats()
    agg = HashAggregator(["g"], ["s"])
    agg.consume([np.array([b"x", b"y", b"x"], dtype="S2")],
                [np.array([1, 2, 4])], stats)
    rows = dict(agg.result().rows)
    assert rows == {"x": 5, "y": 2}


def test_row_batch_validation():
    with pytest.raises(ExecutionError):
        RowBatch({"a": np.array([1]), "b": np.array([1, 2])})
    batch = RowBatch({"a": np.array([1, 2])})
    with pytest.raises(ExecutionError):
        batch.column("missing")


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=500))
@settings(max_examples=40, deadline=None)
def test_property_bitmap_partition(values):
    """Every rid appears in exactly one value's rid set."""
    idx, pool = _bitmap(values)
    seen = []
    for v in set(values):
        seen.extend(idx.read_rids(pool, v).tolist())
    assert sorted(seen) == list(range(len(values)))
