"""Column operator tests: predicate scans (incl. direct-on-RLE), probe
scans, fetch with block skipping, gathering, and aggregation."""

import numpy as np
import pytest

from repro.colstore.operators.aggregate import (
    eval_fact_expr,
    grouped_aggregate,
    scalar_aggregate,
)
from repro.colstore.operators.fetch import fetch_values, read_column
from repro.colstore.operators.join import (
    dimension_rows_for_keys,
    gather_attribute,
)
from repro.colstore.operators.scan import (
    predicate_positions,
    probe_positions,
)
from repro.colstore.positions import ArrayPositions, RangePositions
from repro.core.config import ExecutionConfig
from repro.errors import ExecutionError
from repro.plan.keys import KeyIndex
from repro.plan.logical import (
    BinOp,
    ColumnRef,
    CompareOp,
    Comparison,
    InSet,
    Literal,
    RangePredicate,
)
from repro.simio.buffer_pool import BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.stats import QueryStats
from repro.storage.colfile import ColumnFile, CompressionLevel
from repro.storage.column import Column
from repro.types import int32

BLOCK = ExecutionConfig.baseline()
TUPLE = ExecutionConfig.from_label("TICL")
NO_COMP = ExecutionConfig.from_label("ticL")


def _colfile(values, level=CompressionLevel.MAX, name="c"):
    disk = SimulatedDisk(QueryStats())
    col = Column.from_ints("v", np.asarray(values, dtype=np.int32), int32())
    f = ColumnFile.load(disk, name, col, level)
    return f, BufferPool(disk, 8 * 1024 * 1024)


# --------------------------------------------------------------------- #
# predicate scans
# --------------------------------------------------------------------- #
def test_scan_bounds_basic():
    f, pool = _colfile(np.arange(10_000))
    out = predicate_positions(f, pool, (100, 199), BLOCK)
    assert isinstance(out, RangePositions)
    assert out.count == 100


def test_scan_inset():
    values = np.tile(np.arange(10), 1000)
    f, pool = _colfile(values)
    out = predicate_positions(f, pool, [3, 7], BLOCK)
    assert out.count == 2000


def test_scan_empty_domain():
    f, pool = _colfile(np.arange(100))
    assert predicate_positions(f, pool, (5, 2), BLOCK).count == 0
    assert predicate_positions(f, pool, [], BLOCK).count == 0


def test_scan_restrict_window_skips_blocks():
    f, pool = _colfile(np.arange(200_000), CompressionLevel.NONE)
    pool.stats.reset()
    out = predicate_positions(f, pool, (0, 10**9), BLOCK,
                              restrict=(100_000, 101_000))
    assert out.count == 1000
    assert pool.stats.pages_read < f.num_blocks // 2


def test_scan_direct_on_rle_charges_runs_not_values():
    values = np.repeat(np.arange(50), 2000)  # 100k values, 50 runs
    f, pool = _colfile(values, CompressionLevel.MAX)
    pool.stats.reset()
    out = predicate_positions(f, pool, (10, 19), BLOCK)
    assert out.count == 20_000
    assert pool.stats.runs_processed > 0
    assert pool.stats.values_scanned_vector == 0
    assert pool.stats.values_decompressed == 0


def test_scan_without_compression_touches_values():
    values = np.repeat(np.arange(50), 2000)
    f, pool = _colfile(values, CompressionLevel.NONE)
    pool.stats.reset()
    out = predicate_positions(f, pool, (10, 19), NO_COMP)
    assert out.count == 20_000
    assert pool.stats.values_scanned_vector >= len(values)
    assert pool.stats.runs_processed == 0


def test_scan_tuple_at_a_time_charges_scalar():
    f, pool = _colfile(np.arange(10_000), CompressionLevel.NONE)
    pool.stats.reset()
    predicate_positions(f, pool, (0, 100), TUPLE)
    assert pool.stats.values_scanned_scalar > 0
    assert pool.stats.values_scanned_vector == 0


def test_probe_positions():
    values = np.tile(np.arange(100), 100)
    f, pool = _colfile(values, CompressionLevel.NONE)
    pool.stats.reset()
    out = probe_positions(f, pool, np.array([5, 50]), NO_COMP)
    assert out.count == 200
    assert pool.stats.hash_probes == len(values)


def test_probe_on_rle_probes_runs():
    values = np.repeat(np.arange(10), 5000)
    f, pool = _colfile(values, CompressionLevel.MAX)
    pool.stats.reset()
    out = probe_positions(f, pool, np.array([3]), BLOCK)
    assert out.count == 5000
    assert pool.stats.hash_probes < 200  # per run, not per value


# --------------------------------------------------------------------- #
# fetch
# --------------------------------------------------------------------- #
def test_fetch_range():
    f, pool = _colfile(np.arange(50_000), CompressionLevel.NONE)
    out = fetch_values(f, pool, RangePositions(100, 110), BLOCK)
    assert out.tolist() == list(range(100, 110))


def test_fetch_sparse_skips_blocks():
    f, pool = _colfile(np.arange(200_000), CompressionLevel.NONE)
    pool.stats.reset()
    positions = ArrayPositions(np.array([0, 199_999], dtype=np.int64))
    out = fetch_values(f, pool, positions, BLOCK)
    assert out.tolist() == [0, 199_999]
    assert pool.stats.pages_read == 2


def test_fetch_from_rle():
    f, pool = _colfile(np.repeat(np.arange(5), 10_000), CompressionLevel.MAX)
    out = fetch_values(f, pool, ArrayPositions(
        np.array([0, 15_000, 49_999], dtype=np.int64)), BLOCK)
    assert out.tolist() == [0, 1, 4]


def test_read_column():
    f, pool = _colfile(np.arange(1000))
    assert np.array_equal(read_column(f, pool, BLOCK),
                          np.arange(1000, dtype=np.int32))


# --------------------------------------------------------------------- #
# dimension lookups
# --------------------------------------------------------------------- #
def test_dimension_rows_contiguous():
    stats = QueryStats()
    fk = np.array([1, 5, 3], dtype=np.int64)
    rows = dimension_rows_for_keys(fk, stats, BLOCK, contiguous_from=1)
    assert rows.tolist() == [0, 4, 2]
    assert stats.hash_probes == 0


def test_dimension_rows_lookup():
    stats = QueryStats()
    keys = np.array([10, 20, 30], dtype=np.int64)
    rows = dimension_rows_for_keys(np.array([30, 10]), stats, BLOCK,
                                   None, index=KeyIndex(keys))
    assert rows.tolist() == [2, 0]
    assert stats.hash_probes == 2


def test_dimension_rows_dangling_raises():
    stats = QueryStats()
    keys = np.array([10, 20], dtype=np.int64)
    with pytest.raises(ExecutionError):
        dimension_rows_for_keys(np.array([15]), stats, BLOCK, None,
                                index=KeyIndex(keys))


def test_gather_attribute_charges_out_of_order():
    stats = QueryStats()
    attrs = np.arange(100, dtype=np.int32)
    gather_attribute(attrs, np.array([5, 1]), stats, BLOCK,
                     out_of_order=True)
    assert stats.values_scanned_scalar == 2
    stats2 = QueryStats()
    gather_attribute(attrs, np.array([5, 1]), stats2, BLOCK,
                     out_of_order=False)
    assert stats2.values_scanned_vector == 2


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #
def test_eval_fact_expr():
    stats = QueryStats()
    cols = {"a": np.array([1, 2], dtype=np.int32),
            "b": np.array([10, 20], dtype=np.int32)}
    expr = BinOp("*", ColumnRef("f", "a"), ColumnRef("f", "b"))
    assert eval_fact_expr(expr, cols, stats, BLOCK).tolist() == [10, 40]
    expr2 = BinOp("+", ColumnRef("f", "a"), Literal(100))
    assert eval_fact_expr(expr2, cols, stats, BLOCK).tolist() == [101, 102]
    expr3 = BinOp("-", ColumnRef("f", "b"), ColumnRef("f", "a"))
    assert eval_fact_expr(expr3, cols, stats, BLOCK).tolist() == [9, 18]
    with pytest.raises(ExecutionError):
        eval_fact_expr(ColumnRef("f", "missing"), cols, stats, BLOCK)


def test_eval_fact_expr_no_int32_overflow():
    stats = QueryStats()
    cols = {"a": np.array([2_000_000], dtype=np.int32)}
    expr = BinOp("*", ColumnRef("f", "a"), ColumnRef("f", "a"))
    assert eval_fact_expr(expr, cols, stats, BLOCK).tolist() == [
        4_000_000_000_000]


def test_scalar_aggregate():
    stats = QueryStats()
    sums = scalar_aggregate([np.array([1, 2, 3], dtype=np.int64)], stats,
                            BLOCK)
    assert sums == [6]


def test_grouped_aggregate():
    stats = QueryStats()
    groups = [np.array([1, 1, 2, 2]), np.array([0, 1, 0, 0])]
    values = [np.array([10, 20, 30, 40], dtype=np.int64)]
    uniq, reduced = grouped_aggregate(groups, values, stats, BLOCK)
    primary, secondary = reduced[0]
    assert secondary is None
    got = {(int(uniq[0, g]), int(uniq[1, g])): int(primary[g])
           for g in range(uniq.shape[1])}
    assert got == {(1, 0): 10, (1, 1): 20, (2, 0): 70}


def test_grouped_aggregate_min_max_avg():
    stats = QueryStats()
    groups = [np.array([1, 1, 2])]
    values = np.array([10, 20, 7], dtype=np.int64)
    uniq, reduced = grouped_aggregate(
        [groups[0]], [values, values, values], stats, BLOCK,
        funcs=["min", "max", "avg"])
    mins, maxs, avgs = reduced
    assert mins[0].tolist() == [10, 7]
    assert maxs[0].tolist() == [20, 7]
    assert avgs[0].tolist() == [30, 7]       # sums
    assert avgs[1].tolist() == [2, 1]        # counts


def test_grouped_aggregate_empty():
    stats = QueryStats()
    uniq, reduced = grouped_aggregate(
        [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)],
        stats, BLOCK)
    assert uniq.shape[1] == 0
    with pytest.raises(ExecutionError):
        grouped_aggregate([], [], stats, BLOCK)
