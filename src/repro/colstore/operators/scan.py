"""Predicate scans over column files, producing position lists.

``predicate_positions`` evaluates a single-column predicate and returns a
:class:`~repro.colstore.positions.Positions`; ``probe_positions`` is the
hash-probe variant used when a join predicate cannot be rewritten as a
between predicate.

Both support a ``restrict`` bound: when an earlier, more selective
predicate has already narrowed the candidate positions, only blocks
overlapping the bound are read — the pipelined predicate application of
Section 5.4 and the block skipping that makes selective plans cheap.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ...plan.keys import KeyIndex
from ...plan.predicates import Domain, domain_mask
from ...simio.buffer_pool import BufferPool
from ...simio.stats import QueryStats
from ...storage.blocks import Block, RleBlock
from ...storage.colfile import ColumnFile
from ..positions import (
    EMPTY,
    Positions,
    RangePositions,
    from_bitmap_maybe_range,
)
from ...core.config import ExecutionConfig
from ...synopsis import load_column_synopsis, mask_runs, prune_blocks


def _block_window(colfile: ColumnFile, restrict: Optional[Tuple[int, int]]
                  ) -> Tuple[int, int, int, int]:
    """(first_block, last_block, lo_position, hi_position) to scan."""
    if colfile.num_values == 0:
        return 0, -1, 0, 0
    if restrict is None:
        return 0, colfile.num_blocks - 1, 0, colfile.num_values
    lo, hi = restrict
    lo = max(lo, 0)
    hi = min(hi, colfile.num_values)
    if hi <= lo:
        return 0, -1, lo, hi
    first = colfile.block_for_position(lo)
    last = colfile.block_for_position(hi - 1)
    return first, last, lo, hi


def _charge_array(stats: QueryStats, config: ExecutionConfig, n: int,
                  width_words: int, comparisons: int) -> None:
    if config.block_iteration:
        stats.block_calls += 1
        stats.values_scanned_vector += n * width_words * comparisons
    else:
        # per-value getNext: every value goes through the scalar path
        stats.values_scanned_scalar += n * width_words * comparisons


def _charge_runs(stats: QueryStats, config: ExecutionConfig, nruns: int,
                 comparisons: int) -> None:
    if config.block_iteration:
        stats.block_calls += 1
        stats.runs_processed += nruns * comparisons
    else:
        stats.values_scanned_scalar += nruns
        stats.runs_processed += nruns * comparisons


def _surviving_runs(colfile: ColumnFile, stats: QueryStats,
                    config: ExecutionConfig, first: int, last: int,
                    domain: Domain) -> List[Tuple[int, int]]:
    """Inclusive block runs the scan must read, after zone-map pruning.

    With zone maps off (or the synopsis missing/corrupt/inapplicable)
    this is the single unpruned run ``[(first, last)]`` and no counter
    moves, so off-mode ledgers are exactly what they were before this
    layer existed.  With pruning active, each block examined charges one
    ``synopsis_probes`` tick; skipped blocks are counted in
    ``blocks_skipped`` and never reach the buffer pool.
    """
    if not config.zone_maps:
        return [(first, last)]
    synopsis = load_column_synopsis(colfile)
    if synopsis is None:
        return [(first, last)]
    mask = prune_blocks(synopsis, first, last, domain)
    if mask is None:
        return [(first, last)]
    stats.synopsis_probes += last - first + 1
    skipped = int(mask.size - mask.sum())
    if skipped == 0:
        return [(first, last)]
    stats.blocks_skipped += skipped
    return mask_runs(mask, first)


def _mark(bits: np.ndarray, lo_pos: int, hi_pos: int, block: Block,
          mask: np.ndarray) -> None:
    """Copy ``block``'s value mask (its run mask, for an RLE block) into
    the scan's bitmap over ``[lo_pos, hi_pos)``.  Matching runs that form
    one stretch set one slice instead of being expanded per value."""
    if isinstance(block, RleBlock):
        hits = np.flatnonzero(mask)
        if len(hits) == 0:
            return
        if hits[-1] - hits[0] + 1 == len(hits):
            starts = block.run_starts()
            lo = max(int(starts[hits[0]]), lo_pos)
            hi = min(int(starts[hits[-1]] + block.run_lengths[hits[-1]]),
                     hi_pos)
            if hi > lo:
                bits[lo - lo_pos:hi - lo_pos] = True
            return
        mask = np.repeat(mask, block.run_lengths)
    b_lo = max(block.start, lo_pos)
    b_hi = min(block.end, hi_pos)
    if b_hi > b_lo:
        bits[b_lo - lo_pos:b_hi - lo_pos] = \
            mask[b_lo - block.start:b_hi - block.start]


def predicate_positions(
    colfile: ColumnFile,
    pool: BufferPool,
    pred_domain: Domain,
    config: ExecutionConfig,
    restrict: Optional[Tuple[int, int]] = None,
) -> Positions:
    """Positions whose stored value lies in ``pred_domain`` (see
    :func:`~repro.plan.predicates.stored_domain`): two comparisons per
    value for bounds, one per needle."""
    stats = pool.stats
    if isinstance(pred_domain, tuple):
        comparisons = 2
        if pred_domain[0] > pred_domain[1]:
            return EMPTY
    else:
        pred_domain = np.asarray(pred_domain)
        comparisons = len(pred_domain)
        if not comparisons:
            return EMPTY
    first, last, lo_pos, hi_pos = _block_window(colfile, restrict)
    if last < first:
        return EMPTY
    span = hi_pos - lo_pos
    bits = np.zeros(span, dtype=bool)
    # zone maps: skipped blocks never reach the pool; their positions
    # stay False in the bitmap, which is exactly what scanning them
    # would have produced
    runs = _surviving_runs(colfile, stats, config, first, last,
                           pred_domain)
    for run_first, run_last in runs:
        for block in colfile.iter_blocks(pool, direct=config.compression,
                                         first_block=run_first,
                                         last_block=run_last):
            if isinstance(block, RleBlock):
                mask = domain_mask(block.run_values, pred_domain)
                _charge_runs(stats, config, block.num_runs, comparisons)
            else:
                mask = domain_mask(block.data, pred_domain)
                _charge_array(stats, config, block.count, block.width_words,
                              comparisons)
            _mark(bits, lo_pos, hi_pos, block, mask)
    return from_bitmap_maybe_range(lo_pos, bits)


def probe_positions(
    colfile: ColumnFile,
    pool: BufferPool,
    key_set: np.ndarray,
    config: ExecutionConfig,
    restrict: Optional[Tuple[int, int]] = None,
) -> Positions:
    """Positions whose stored value is in ``key_set`` via hash probing.

    This simulates the invisible join's hash-lookup fallback (and the
    late materialized join's probe phase): every value (or every run,
    when operating directly on RLE) pays a hash probe.
    """
    stats = pool.stats
    keys = np.sort(np.asarray(key_set))
    first, last, lo_pos, hi_pos = _block_window(colfile, restrict)
    if last < first or len(keys) == 0:
        return EMPTY
    index = KeyIndex(keys)
    span = hi_pos - lo_pos
    bits = np.zeros(span, dtype=bool)
    runs = _surviving_runs(colfile, stats, config, first, last, keys)
    for run_first, run_last in runs:
        for block in colfile.iter_blocks(pool, direct=config.compression,
                                         first_block=run_first,
                                         last_block=run_last):
            if isinstance(block, RleBlock):
                stats.hash_probes += block.num_runs
                if not config.block_iteration:
                    stats.values_scanned_scalar += block.num_runs
                mask, _rows = index.lookup(block.run_values)
            else:
                stats.hash_probes += block.count
                if not config.block_iteration:
                    stats.values_scanned_scalar += block.count
                else:
                    stats.block_calls += 1
                mask, _rows = index.lookup(block.data)
            _mark(bits, lo_pos, hi_pos, block, mask)
    return from_bitmap_maybe_range(lo_pos, bits)


__all__ = ["predicate_positions", "probe_positions",
           "sorted_predicate_positions"]


def sorted_predicate_positions(
    colfile: ColumnFile,
    pool: BufferPool,
    bounds: Tuple[object, object],
    config: ExecutionConfig,
) -> Positions:
    """Binary-search a monotonically sorted column for [lo, hi].

    Instead of scanning every block, reads O(log #blocks) pages to find
    the boundary blocks and resolves exact positions inside them.  Only
    valid when the column is the projection's primary sort key (the
    caller guarantees monotonicity).  This is the
    ``sorted_binary_search`` extension — the paper's C-Store scans.
    """
    lo, hi = bounds
    if lo > hi or colfile.num_values == 0:
        return EMPTY
    start = _sorted_boundary(colfile, pool, lo, config, side="left")
    stop = _sorted_boundary(colfile, pool, hi, config, side="right")
    if stop <= start:
        return EMPTY
    return RangePositions(start, stop)


def _block_min_max(colfile: ColumnFile, pool: BufferPool, block_no: int,
                   config: ExecutionConfig):
    block = colfile.read_block(pool, block_no, direct=config.compression)
    if isinstance(block, RleBlock):
        return block, block.run_values[0], block.run_values[-1]
    return block, block.data[0], block.data[-1]


def _sorted_boundary(colfile: ColumnFile, pool: BufferPool, needle,
                     config: ExecutionConfig, side: str) -> int:
    """Global position of the first value > needle (side='right') or
    >= needle (side='left'), via binary search over blocks."""
    stats = pool.stats
    lo_block, hi_block = 0, colfile.num_blocks - 1
    target = None
    while lo_block <= hi_block:
        mid = (lo_block + hi_block) // 2
        block, first, last = _block_min_max(colfile, pool, mid, config)
        stats.values_scanned_vector += 2
        before = (last < needle) if side == "left" else (last <= needle)
        after = (first >= needle) if side == "left" else (first > needle)
        if before:
            lo_block = mid + 1
        elif after and mid > 0:
            hi_block = mid - 1
            target = None
        else:
            target = (mid, block)
            break
    if target is None:
        if lo_block >= colfile.num_blocks:
            return colfile.num_values
        mid = lo_block
        block, _first, _last = _block_min_max(colfile, pool, mid, config)
        target = (mid, block)
    block_no, block = target
    if isinstance(block, RleBlock):
        run_idx = int(np.searchsorted(block.run_values, needle, side=side))
        stats.runs_processed += max(
            1, int(np.ceil(np.log2(max(block.num_runs, 2)))))
        starts = np.concatenate(
            ([0], np.cumsum(block.run_lengths))).astype(np.int64)
        return block.start + int(starts[run_idx])
    offset = int(np.searchsorted(block.data, needle, side=side))
    stats.values_scanned_vector += max(
        1, int(np.ceil(np.log2(max(block.count, 2)))))
    return block.start + offset
