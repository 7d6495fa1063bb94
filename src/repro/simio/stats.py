"""Work counters and the hardware cost model.

Every physical operator increments counters on a :class:`QueryStats` ledger
*as a side effect of work it actually performs*: a scan that reads 12 pages
adds 12 page reads; a hash join that probes 60,000 keys adds 60,000 probes.
Nothing is charged speculatively, so the counts are measurements of the
simulation, not assumptions about it.

:class:`CostModel` converts a ledger into simulated seconds using per-unit
costs calibrated to the paper's 2008 testbed (2.8 GHz Pentium D, 4-disk
array at ~200 MB/s aggregate).  The *shape* of every experimental result —
who wins and by what factor — is determined by the counts; the constants
only set the absolute scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, Iterator, List, Optional

#: Disks in the paper's striped array (Section 6: a 4-disk RAID).
NUM_STRIPE_DISKS = 4


@dataclass
class QueryStats:
    """Ledger of work observed while executing one query (or one phase).

    Attributes are grouped by subsystem.  All counters are plain integers
    and additive: two ledgers can be merged with :meth:`merge`.
    """

    # --- I/O (maintained by SimulatedDisk / BufferPool) ---
    bytes_read: int = 0          #: bytes transferred from disk
    pages_read: int = 0          #: page reads that missed the buffer pool
    seeks: int = 0               #: non-sequential head movements
    buffer_hits: int = 0         #: page reads served by the buffer pool
    bytes_written: int = 0       #: bytes written to disk (loads only)

    # --- per-disk I/O over the 4-disk stripe (page i lives on disk
    # i mod 4; each disk tracks its own head, so a logical stream that
    # spans the stripe charges one positioning per drive, overlapped) ---
    stripe0_bytes: int = 0       #: bytes transferred from stripe disk 0
    stripe1_bytes: int = 0       #: bytes transferred from stripe disk 1
    stripe2_bytes: int = 0       #: bytes transferred from stripe disk 2
    stripe3_bytes: int = 0       #: bytes transferred from stripe disk 3
    stripe0_seeks: int = 0       #: head repositionings on stripe disk 0
    stripe1_seeks: int = 0       #: head repositionings on stripe disk 1
    stripe2_seeks: int = 0       #: head repositionings on stripe disk 2
    stripe3_seeks: int = 0       #: head repositionings on stripe disk 3

    # --- fault tolerance (maintained by the buffer-pool read path and
    # the engines' recovery layer; all zero on a fault-free run, so
    # fault-free ledgers are unchanged by the existence of this layer) ---
    io_retries: int = 0          #: page read attempts repeated after a fault
    retry_backoff_us: int = 0    #: capped-exponential backoff charged (µs)
    checksum_failures: int = 0   #: page images that failed CRC verification
    pages_quarantined: int = 0   #: pages fenced off as persistently corrupt
    recoveries: int = 0          #: reads re-served from a redundant projection

    # --- iteration model ---
    iterator_calls: int = 0      #: per-tuple next() calls (Volcano overhead)
    block_calls: int = 0         #: per-block operator invocations
    values_scanned_vector: int = 0   #: values processed inside vectorized loops
    values_scanned_scalar: int = 0   #: values processed one at a time
    attr_extractions: int = 0    #: attribute extractions from row tuples
    tuple_bytes_scanned: int = 0 #: bytes parsed out of row-format tuples

    # --- joins / predicates ---
    hash_probes: int = 0         #: hash table lookups
    hash_inserts: int = 0        #: hash table build insertions
    range_checks: int = 0        #: between-predicate comparisons (vectorized)
    position_ops: int = 0        #: position-list values intersected/merged

    # --- materialization ---
    tuples_constructed: int = 0  #: tuples stitched together from columns
    tuple_attrs_copied: int = 0  #: attribute copies performed while stitching
    values_decompressed: int = 0 #: values expanded out of a compressed block
    runs_processed: int = 0      #: RLE runs operated on directly

    # --- aggregation / sort ---
    agg_updates: int = 0         #: group-by accumulator updates
    sort_compares: int = 0       #: comparisons charged to sorting (n log n)
    dict_lookups: int = 0        #: dictionary decode lookups for output

    # --- zone maps (maintained by the scan operators; all zero when
    # zone maps are off, so off-mode ledgers are unchanged by the
    # existence of the synopsis layer) ---
    synopsis_probes: int = 0     #: zone-map entries examined before a scan
    blocks_skipped: int = 0      #: blocks/pages never read thanks to a
    #: synopsis (bookkeeping, like ``recoveries``: the *saving* shows up
    #: as the I/O and CPU counters above simply not moving)

    # --- writes / delta store (maintained by repro.write; all zero on
    # read-only runs, so every existing byte-identical ledger guarantee
    # survives the existence of the write path) ---
    delta_rows_merged: int = 0   #: WOS rows merged into a snapshot read
    journal_pages: int = 0       #: redo-journal pages appended
    moves: int = 0               #: tuple-mover drains (WOS -> base pages)

    # --- crash recovery (maintained by repro.write.recovery; all zero
    # on clean starts, so every existing ledger stays byte-identical
    # with the recovery path present) ---
    journal_replay_pages: int = 0  #: journal pages scanned by cold-start replay
    recovered_batches: int = 0   #: journaled DML batches re-applied by replay
    torn_tail_records: int = 0   #: tail records truncated (torn or unacked)

    # --- serving / semantic cache (maintained by repro.serve; all zero
    # on a direct engine call, so engine ledgers are unchanged by the
    # existence of the service layer) ---
    cache_lookups: int = 0       #: exact-key result-cache probes
    cache_exact_hits: int = 0    #: results served verbatim from the cache
    cache_misses: int = 0        #: probes that fell through to the engine

    def stripe_bytes(self) -> List[int]:
        """Per-disk bytes transferred, in stripe order."""
        return [self.stripe0_bytes, self.stripe1_bytes,
                self.stripe2_bytes, self.stripe3_bytes]

    def stripe_seeks(self) -> List[int]:
        """Per-disk head repositionings, in stripe order."""
        return [self.stripe0_seeks, self.stripe1_seeks,
                self.stripe2_seeks, self.stripe3_seeks]

    def charge_stripe_read(self, disk_no: int, nbytes: int,
                           seek: bool) -> None:
        """Attribute one page transfer (and optionally a repositioning)
        to one drive of the stripe."""
        bytes_field, seeks_field = _STRIPE_FIELDS[disk_no]
        setattr(self, bytes_field, getattr(self, bytes_field) + nbytes)
        if seek:
            setattr(self, seeks_field, getattr(self, seeks_field) + 1)

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Add ``other``'s counters into this ledger and return self."""
        for name in COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def snapshot(self) -> Dict[str, int]:
        """Return a dict copy of all counters."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def nonzero(self) -> Dict[str, int]:
        """Nonzero counters only, sorted by name (for compact artifacts
        with a stable key order)."""
        return {name: value for name, value in sorted(self.snapshot().items())
                if value}

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    def diff(self, earlier: Dict[str, int]) -> "QueryStats":
        """Return a new ledger holding this ledger minus a prior snapshot."""
        out = QueryStats()
        for name in COUNTER_NAMES:
            setattr(out, name, getattr(self, name) - earlier.get(name, 0))
        return out

    def __iter__(self) -> Iterator[str]:  # pragma: no cover - convenience
        return iter(self.snapshot())


#: every counter of the ledger, in declaration order — resolved once,
#: because ``dataclasses.fields`` on every snapshot/diff/merge is a
#: measurable share of a query
COUNTER_NAMES = tuple(f.name for f in dataclass_fields(QueryStats))
_STRIPE_FIELDS = tuple((f"stripe{disk_no}_bytes", f"stripe{disk_no}_seeks")
                       for disk_no in range(NUM_STRIPE_DISKS))


@dataclass(frozen=True)
class CostBreakdown:
    """Simulated seconds attributed to I/O and CPU for one ledger.

    ``io_seconds`` is the paper-comparable aggregate-bandwidth charge
    (the number every figure and EXPERIMENTS.md ratio is built on).
    ``io_elapsed_seconds`` prices the same ledger against the 4-disk
    stripe as the per-disk critical path — the elapsed time the striped
    array actually needs, with head positioning overlapped across
    drives.  It is ``None`` for ledgers without per-disk attribution
    (hand-built stats, pre-stripe traces).
    """

    io_seconds: float
    cpu_seconds: float
    io_elapsed_seconds: Optional[float] = None

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.cpu_seconds

    @property
    def elapsed_seconds(self) -> float:
        """CPU plus the stripe critical path (falls back to the serial
        I/O charge when no per-disk data is present)."""
        io = self.io_elapsed_seconds
        return (self.io_seconds if io is None else io) + self.cpu_seconds


@dataclass(frozen=True)
class CostModel:
    """Per-unit costs of the paper's 2008 testbed.

    Defaults (chosen once, used for every experiment):

    * ``seq_mbps`` — 200 MB/s aggregate sequential bandwidth (Section 6:
      "160-200 MB/sec in aggregate for striped files").
    * ``seek_seconds`` — 0.5 ms effective stream-switch cost: individual
      7200 rpm drives seek in ~8 ms, but the 4-disk stripe overlaps
      positioning across drives and the workload is a handful of long
      sequential streams, so the marginal cost per discontinuity is far
      below a cold single-disk seek.
    * ``iterator_call_seconds`` — ~100 ns for a virtual next() call in a
      tuple-at-a-time executor (Section 5.3).
    * ``tuple_byte_seconds`` — ~4 ns per byte to parse/copy a row-format
      tuple through an operator; this is why narrow materialized views
      process faster than the 17-column fact table even at equal row
      counts.
    * ``scalar_value_seconds`` — ~25 ns to apply an operation to one value
      through a generic, interpreted code path.
    * ``vector_value_seconds`` — ~2.5 ns per value inside a tight
      loop-pipelined array loop (Section 5.3's block iteration).
    * ``hash_probe_seconds`` — ~50 ns per probe (cache-missing hash lookup).
    * ``range_check_seconds`` — ~2.5 ns: a between predicate is two
      vectorized comparisons (Section 5.4.2: "faster to execute for obvious
      reasons").
    * ``tuple_construct_seconds``/``tuple_attr_copy_seconds`` — glue and
      per-attribute copy cost of materializing a row (Section 5.2).
    * ``decompress_value_seconds`` — per-value expansion cost when an
      operator cannot work on compressed data.
    * ``run_op_seconds`` — cost of applying an operation to an entire RLE
      run at once (direct operation on compressed data, Section 5.1).
    """

    seq_mbps: float = 200.0
    seek_seconds: float = 0.0005
    iterator_call_seconds: float = 100e-9
    attr_extraction_seconds: float = 25e-9
    tuple_byte_seconds: float = 4e-9
    scalar_value_seconds: float = 25e-9
    vector_value_seconds: float = 2.5e-9
    block_call_seconds: float = 1e-6
    hash_probe_seconds: float = 25e-9
    hash_insert_seconds: float = 40e-9
    range_check_seconds: float = 2.5e-9
    position_op_seconds: float = 2.0e-9
    tuple_construct_seconds: float = 100e-9
    tuple_attr_copy_seconds: float = 50e-9
    decompress_value_seconds: float = 4e-9
    run_op_seconds: float = 10e-9
    agg_update_seconds: float = 25e-9
    sort_compare_seconds: float = 50e-9
    dict_lookup_seconds: float = 10e-9
    #: one result-cache probe: hashing the query's normalized key and
    #: one exact-key lookup in an in-memory map
    cache_lookup_seconds: float = 2e-6
    #: one zone-map entry check: two comparisons against cached min/max
    #: arrays (the sidecar itself is decoded once and cached, so no I/O)
    synopsis_probe_seconds: float = 5e-9

    def io_seconds(self, stats: QueryStats) -> float:
        """Simulated I/O time: transfer at sequential bandwidth plus seeks
        (plus any retry backoff the fault-recovery path waited out)."""
        transfer = stats.bytes_read / (self.seq_mbps * 1024 * 1024)
        return (transfer + stats.seeks * self.seek_seconds
                + stats.retry_backoff_us * 1e-6)

    def striped_io_seconds(self, stats: QueryStats) -> Optional[float]:
        """Elapsed I/O against the 4-disk stripe: the per-disk critical
        path, not the serial sum.

        Each drive delivers 1/4 of the aggregate bandwidth and pays for
        its own head repositionings; the array is done when its slowest
        member is.  For balanced sequential scans this coincides with
        :meth:`io_seconds`; scattered access gets cheaper because
        positioning overlaps across the four arms.  Returns ``None``
        when the ledger carries no per-disk attribution.
        """
        per_disk_bytes = stats.stripe_bytes()
        per_disk_seeks = stats.stripe_seeks()
        if not any(per_disk_bytes) and not any(per_disk_seeks):
            return None
        per_disk_mbps = self.seq_mbps / NUM_STRIPE_DISKS
        return max(
            b / (per_disk_mbps * 1024 * 1024) + s * self.seek_seconds
            for b, s in zip(per_disk_bytes, per_disk_seeks)
        ) + stats.retry_backoff_us * 1e-6

    def cpu_seconds(self, stats: QueryStats) -> float:
        """Simulated CPU time from the instruction-level counters."""
        s = stats
        return (
            s.iterator_calls * self.iterator_call_seconds
            + s.attr_extractions * self.attr_extraction_seconds
            + s.tuple_bytes_scanned * self.tuple_byte_seconds
            + s.values_scanned_scalar * self.scalar_value_seconds
            + s.values_scanned_vector * self.vector_value_seconds
            + s.block_calls * self.block_call_seconds
            + s.hash_probes * self.hash_probe_seconds
            + s.hash_inserts * self.hash_insert_seconds
            + s.range_checks * self.range_check_seconds
            + s.position_ops * self.position_op_seconds
            + s.tuples_constructed * self.tuple_construct_seconds
            + s.tuple_attrs_copied * self.tuple_attr_copy_seconds
            + s.values_decompressed * self.decompress_value_seconds
            + s.runs_processed * self.run_op_seconds
            + s.agg_updates * self.agg_update_seconds
            + s.sort_compares * self.sort_compare_seconds
            + s.dict_lookups * self.dict_lookup_seconds
            + s.cache_lookups * self.cache_lookup_seconds
            + s.synopsis_probes * self.synopsis_probe_seconds
        )

    def cost(self, stats: QueryStats) -> CostBreakdown:
        """Convert a ledger into a :class:`CostBreakdown`."""
        return CostBreakdown(
            io_seconds=self.io_seconds(stats),
            cpu_seconds=self.cpu_seconds(stats),
            io_elapsed_seconds=self.striped_io_seconds(stats),
        )

    def seconds(self, stats: QueryStats) -> float:
        """Total simulated seconds for a ledger."""
        return self.cost(stats).total_seconds

    def write_seconds(self, stats: QueryStats) -> float:
        """Simulated seconds for a *write* ledger.

        Read-side pricing (:meth:`io_seconds`) deliberately excludes
        ``bytes_written`` — that exclusion is what keeps every read-only
        ledger byte-identical whether or not the write path exists.
        Write benchmarks price their journal appends and tuple-mover page
        rewrites here instead: written bytes transfer at the same
        sequential bandwidth as reads, on top of the ordinary read + CPU
        charges the operation accrued.
        """
        written = stats.bytes_written / (self.seq_mbps * 1024 * 1024)
        return self.seconds(stats) + written


#: The cost model used throughout the benchmarks, mirroring the paper's rig.
PAPER_2008 = CostModel()

__all__ = ["QueryStats", "COUNTER_NAMES", "CostModel", "CostBreakdown",
           "PAPER_2008", "NUM_STRIPE_DISKS"]
