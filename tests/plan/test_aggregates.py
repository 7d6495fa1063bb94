"""``repro.plan.aggregates``: packed-key group factorization and the
merging of partial grouped reductions (per batch, base and WOS delta), which
both engines' grouping goes through."""

import numpy as np

from repro.colstore.operators.aggregate import grouped_aggregate
from repro.core.config import ExecutionConfig
from repro.plan.aggregates import factorize_groups, merge_group_reductions
from repro.simio.stats import QueryStats


# --------------------------------------------------------------------- #
# packed-key factorization
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
