"""The morsel layer's contract: parallel execution changes nothing but
wall-clock.

The headline suite runs all 13 SSBM queries under all 7 ablation
configurations and demands that ``workers=4`` produce bit-identical
rows and an identical simulated I/O ledger (pages, bytes, seeks,
buffer hits, per-stripe-disk attribution) to ``workers=1``.  The rest
covers the pieces: block-aligned window geometry, position-list
split/reassembly, packed-key group factorization, and partial-
aggregate merging.
"""

import dataclasses

import numpy as np
import pytest

from repro.colstore.engine import CStore
from repro.colstore.operators.aggregate import (
    grouped_aggregate,
    merge_group_reductions,
    merge_scalar_reductions,
    partial_scalar_aggregate,
    scalar_aggregate,
)
from repro.plan.aggregates import factorize_groups
from repro.colstore.parallel import MorselEngine, TracePool, make_engine
from repro.colstore.positions import (
    ArrayPositions,
    BitmapPositions,
    RangePositions,
    concat_windows,
    slice_window,
)
from repro.core.config import CONFIG_LADDER, ExecutionConfig
from repro.simio.stats import QueryStats
from repro.ssb.queries import ALL_QUERIES

_IO_FIELDS = (
    "pages_read", "bytes_read", "seeks", "buffer_hits",
    "stripe0_bytes", "stripe1_bytes", "stripe2_bytes", "stripe3_bytes",
    "stripe0_seeks", "stripe1_seeks", "stripe2_seeks", "stripe3_seeks",
)

_LABELS = [c.label for c in CONFIG_LADDER]


# --------------------------------------------------------------------- #
# the contract: 13 queries x 7 configs, workers=4 == workers=1
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("label", _LABELS)
@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
def test_parallel_equivalence(cstore, query, label):
    serial = ExecutionConfig.from_label(label)
    parallel = dataclasses.replace(serial, workers=4)
    run1 = cstore.execute(query, serial)
    run4 = cstore.execute(query, parallel)
    assert run4.result.rows == run1.result.rows
    for field in _IO_FIELDS:
        assert getattr(run4.stats, field) == getattr(run1.stats, field), \
            f"{field} deviates under workers=4"


def test_small_morsels_still_equivalent(cstore):
    """An explicit tiny morsel size (many more morsels than workers)
    exercises window snapping without changing anything observable."""
    query = ALL_QUERIES[3]  # Q2.1: joins, group-by, fact fetches
    serial = cstore.execute(query, ExecutionConfig.baseline())
    tiny = dataclasses.replace(ExecutionConfig.baseline(), workers=3,
                               morsel_rows=1000)
    parallel = cstore.execute(query, tiny)
    assert parallel.result.rows == serial.result.rows
    for field in _IO_FIELDS:
        assert getattr(parallel.stats, field) == getattr(serial.stats, field)


def test_workers_share_one_pool_without_double_charging(cstore):
    """Morsel workers read through trace pools and replay once: total
    page charges equal the serial run's, so the shared pool is not
    double-charged for pages two workers both touched."""
    query = ALL_QUERIES[0]
    serial = cstore.execute(query, ExecutionConfig.baseline())
    parallel = cstore.execute(
        query, dataclasses.replace(ExecutionConfig.baseline(), workers=4))
    assert (parallel.stats.pages_read + parallel.stats.buffer_hits
            == serial.stats.pages_read + serial.stats.buffer_hits)


def test_simulated_seconds_identical_under_parallelism(cstore):
    """The cost model prices identical ledgers identically; only the
    per-morsel block_calls overhead may differ, and it must stay tiny."""
    query = ALL_QUERIES[5]
    serial = cstore.execute(query, ExecutionConfig.baseline())
    parallel = cstore.execute(
        query, dataclasses.replace(ExecutionConfig.baseline(), workers=4))
    assert parallel.cost.io_seconds == serial.cost.io_seconds
    # the only CPU drift allowed is the per-morsel block_call overhead
    # (1 us per extra morsel) — bounded at 1% of the query's CPU charge
    assert parallel.cost.cpu_seconds == pytest.approx(
        serial.cost.cpu_seconds, rel=1e-2)


# --------------------------------------------------------------------- #
# config knobs
# --------------------------------------------------------------------- #
def test_workers_knob_validation():
    from repro.errors import PlanError

    with pytest.raises(PlanError):
        ExecutionConfig(workers=0)
    with pytest.raises(PlanError):
        ExecutionConfig(morsel_rows=0)
    assert ExecutionConfig(workers=4).label == "tICL"  # label unchanged


def test_make_engine_none_when_serial(cstore):
    assert make_engine(cstore.pool, ExecutionConfig.baseline()) is None
    engine = make_engine(cstore.pool,
                         ExecutionConfig(workers=2))
    assert isinstance(engine, MorselEngine)
    engine.close()


# --------------------------------------------------------------------- #
# morsel geometry
# --------------------------------------------------------------------- #
def test_windows_are_block_aligned_and_cover(cstore):
    from repro.storage.colfile import CompressionLevel

    proj = cstore.projection("lineorder", CompressionLevel.MAX)
    colfile = proj.column_file("quantity")
    config = ExecutionConfig(workers=4)
    with MorselEngine(cstore.pool, config) as engine:
        windows = engine._windows(colfile, 0, colfile.num_values)
    assert windows[0][0] == 0
    assert windows[-1][1] == colfile.num_values
    starts = set(int(s) for s in colfile.block_starts)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(windows, windows[1:]):
        assert a_hi == b_lo          # seamless
        assert b_lo in starts        # every cut is a block boundary


def test_trace_pool_records_without_charging(cstore):
    from repro.storage.colfile import CompressionLevel

    proj = cstore.projection("lineorder", CompressionLevel.MAX)
    colfile = proj.column_file("quantity")
    num = min(3, cstore.disk.file(colfile.name).num_pages)
    assert num >= 1
    before = cstore.pool.stats.snapshot()
    tp = TracePool(cstore.pool)
    payloads = list(tp.scan_pages(colfile.name, 0, num))
    assert len(payloads) == num
    assert tp.trace == [(colfile.name, i, 1) for i in range(num)]
    assert cstore.pool.stats.snapshot() == before  # nothing charged


# --------------------------------------------------------------------- #
# position-list split / reassembly
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("positions", [
    RangePositions(10, 500),
    ArrayPositions(np.array([3, 40, 41, 42, 300, 999], dtype=np.int64)),
    BitmapPositions(0, np.arange(1000) % 7 == 0),
], ids=["range", "array", "bitmap"])
def test_slice_concat_roundtrip(positions, stats=QueryStats()):
    cuts = [0, 128, 256, 640, 1000]
    parts = [slice_window(positions, lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    merged = concat_windows(parts, 0, 1000)
    assert np.array_equal(merged.to_array(), positions.to_array())
    assert sum(p.count for p in parts) == positions.count


# --------------------------------------------------------------------- #
# packed-key factorization (satellite of the aggregation path)
# --------------------------------------------------------------------- #
def test_factorize_groups_matches_axis_unique():
    rng = np.random.default_rng(11)
    matrix = np.stack([
        rng.integers(1992, 1999, 5000).astype(np.int64),
        rng.integers(0, 25, 5000).astype(np.int64),
        rng.integers(-3, 40, 5000).astype(np.int64),  # negative codes too
    ])
    uniq, inverse = factorize_groups(matrix)
    ref_uniq, ref_inverse = np.unique(matrix, axis=1, return_inverse=True)
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(inverse, np.ravel(ref_inverse))


def test_factorize_groups_overflow_falls_back():
    big = np.array([[0, 2 ** 61], [0, 2 ** 61]], dtype=np.int64)
    uniq, inverse = factorize_groups(big)
    ref_uniq, ref_inverse = np.unique(big, axis=1, return_inverse=True)
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(inverse, np.ravel(ref_inverse))


def test_factorize_groups_empty_and_single_row():
    empty = np.zeros((2, 0), dtype=np.int64)
    uniq, inverse = factorize_groups(empty)
    assert uniq.shape == (2, 0) and len(inverse) == 0
    one = np.array([[5, 3, 5, 3]], dtype=np.int64)
    uniq, inverse = factorize_groups(one)
    assert np.array_equal(uniq, [[3, 5]])
    assert np.array_equal(inverse, [1, 0, 1, 0])


# --------------------------------------------------------------------- #
# partial-aggregate merging
# --------------------------------------------------------------------- #
def _split_grouped(group_arrays, agg_arrays, funcs, config, cuts):
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        parts.append(grouped_aggregate(
            [g[lo:hi] for g in group_arrays],
            [a[lo:hi] for a in agg_arrays],
            QueryStats(), config, funcs))
    return merge_group_reductions(funcs, parts)


def test_merged_partials_match_single_pass():
    rng = np.random.default_rng(5)
    n = 4000
    group_arrays = [rng.integers(0, 9, n).astype(np.int64),
                    rng.integers(0, 5, n).astype(np.int64)]
    agg_arrays = [rng.integers(-100, 100, n).astype(np.int64),
                  rng.integers(0, 10, n).astype(np.int64),
                  rng.integers(0, 10 ** 6, n).astype(np.int64),
                  rng.integers(-50, 50, n).astype(np.int64),
                  np.zeros(n, dtype=np.int64)]
    funcs = ["sum", "min", "max", "avg", "count"]
    config = ExecutionConfig.baseline()
    whole = grouped_aggregate(group_arrays, agg_arrays, QueryStats(),
                              config, funcs)
    merged = _split_grouped(group_arrays, agg_arrays, funcs, config,
                            [0, 977, 1954, 3001, 4000])
    assert np.array_equal(merged[0], whole[0])
    for (mp, ms), (wp, ws) in zip(merged[1], whole[1]):
        assert np.array_equal(mp, wp)
        assert (ms is None) == (ws is None)
        if ms is not None:
            assert np.array_equal(ms, ws)


def test_merged_scalar_partials_match_single_pass():
    rng = np.random.default_rng(8)
    values = [rng.integers(-1000, 1000, 3000).astype(np.int64)
              for _ in range(4)]
    funcs = ["sum", "min", "max", "avg"]
    config = ExecutionConfig.baseline()
    whole = scalar_aggregate(values, QueryStats(), config, funcs)
    parts = [partial_scalar_aggregate([v[lo:hi] for v in values],
                                      QueryStats(), config, funcs)
             for lo, hi in [(0, 1100), (1100, 2024), (2024, 3000)]]
    assert merge_scalar_reductions(funcs, parts) == whole
