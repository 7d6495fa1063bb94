"""Volcano-style row operators.

Every operator consumes and produces :class:`RowBatch` streams.  Batches
exist for wall-clock speed only; the ledger charges what a
tuple-at-a-time engine does — per-tuple iterator calls, per-tuple
attribute extractions, per-tuple hash probes (Section 5.3: "1-2 function
calls to extract needed data from a tuple for each operation").  Every
charge is ``n x something`` or counted per page, so a batch can be as
large as memory allows: scans and rid fetches hand on a run of up to
:data:`SCAN_RUN_PAGES` pages at a time.

Batches carry selection vectors, not copies: scans and rid fetches hand
on views of the records they parsed, joins and filters narrow an index
array, and a column is gathered once, when an operator first reads it.

Column naming: scans qualify output columns as ``table.column``; joins
merge the probe batch with the build side's payload columns, so
downstream operators address any column unambiguously.

Hash joins honour a memory budget.  When the build side exceeds it, the
join Grace-partitions: both inputs are physically written to scratch disk
files and read back, charging honest spill I/O — the mechanism behind
the paper's "giant hash joins" in index-only plans (Section 6.2.2).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, StorageError
from ..plan.logical import (
    BinOp,
    ColumnRef,
    Expr,
    Literal,
    OrderKey,
    Predicate,
)
from ..plan import aggregates as agg
from ..plan.keys import KeyIndex
from ..plan import tail
from ..result import ResultSet
from ..simio.buffer_pool import BufferPool
from ..simio.disk import PAGE_SIZE, SimulatedDisk
from ..simio.stats import QueryStats
from ..storage.heapfile import HeapFile
from ..synopsis import heap_page_mask, load_heap_synopsis, mask_runs
from .btree import BPlusTree
from .predicates import compile_predicate


class RowBatch:
    """A chunk of tuples, held column-wise for vectorized transport.

    ``num_rows`` is explicit because a plan may carry *no* columns at
    all — a bare ``count(*)`` extracts nothing — and the dict cannot
    speak for the tuple count then.

    A batch is a selection over the arrays it was built from: :meth:`take`
    records an index array per column (columns selected together share
    one, so a chain of takes composes each once) and :meth:`column`
    gathers a column the first time it is read.
    """

    def __init__(self, columns: Dict[str, np.ndarray],
                 num_rows: Optional[int] = None) -> None:
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged row batch: lengths {lengths}")
        if lengths:
            (derived,) = lengths
            if num_rows is None:
                num_rows = derived
            elif num_rows != derived:
                raise ExecutionError(
                    f"row batch claims {num_rows} row(s) but its "
                    f"columns hold {derived}")
        self._arrays = dict(columns)
        #: index arrays of the columns not gathered yet
        self._picks: Dict[str, np.ndarray] = {}
        self.num_rows = 0 if num_rows is None else num_rows

    def __len__(self) -> int:
        return self.num_rows

    @property
    def names(self) -> List[str]:
        """The batch's column names, without gathering any column."""
        return list(self._arrays)

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """Every column, gathered."""
        return {name: self.column(name) for name in self._arrays}

    def column(self, name: str) -> np.ndarray:
        try:
            values = self._arrays[name]
        except KeyError:
            raise ExecutionError(
                f"batch has no column {name!r}; has {sorted(self._arrays)}"
            ) from None
        pick = self._picks.pop(name, None)
        if pick is not None:
            values = self._arrays[name] = values[pick]
        return values

    def take(self, selector: np.ndarray) -> "RowBatch":
        if selector.dtype == np.bool_:
            if len(selector) != self.num_rows:
                raise ExecutionError(f"mask of {len(selector)} for a "
                                     f"batch of {self.num_rows} row(s)")
            selector = np.flatnonzero(selector)
        taken = RowBatch({}, len(selector))
        taken._arrays = dict(self._arrays)
        composed: Dict[Optional[int], np.ndarray] = {None: selector}
        for name in self._arrays:
            pick = self._picks.get(name)
            key = None if pick is None else id(pick)
            if key not in composed:
                composed[key] = pick[selector]
            taken._picks[name] = composed[key]
        return taken

    def with_columns(self, extra: Dict[str, np.ndarray],
                     pick: Optional[np.ndarray] = None) -> "RowBatch":
        """This batch plus ``extra`` (replacing same-named columns).  With
        ``pick``, ``extra`` holds whole arrays of which the batch selects
        ``pick``, one index array shared by all and gathered by none."""
        selected = extra if pick is None else dict.fromkeys(extra, pick)
        merged = RowBatch(selected, self.num_rows)  # the ragged-batch checks
        merged._arrays = {**self._arrays, **extra}
        merged._picks = {name: p for name, p in self._picks.items()
                         if name not in extra}
        if pick is not None:
            merged._picks.update(selected)
        return merged


BatchStream = Iterable[RowBatch]


def qualified(table: str, column: str) -> str:
    """The qualified column name used in batches."""
    return f"{table}.{column}"


# --------------------------------------------------------------------- #
# scans
# --------------------------------------------------------------------- #
#: Most pages one scan or rid-fetch batch may span.  It bounds the buffer
#: a batch holds (64 pages = 2 MB, whatever the heap's size) and nothing
#: else: the ledger is the same at any value, so it is not a knob.  A
#: 13-query ``T`` flight at SF 0.02 takes 259 ms at 1 page, 116 ms at 16,
#: 93 ms at 64, 93 ms at 256 and 94 ms unbounded — 64 is where the
#: per-batch Python stops showing.
SCAN_RUN_PAGES = 64


def _scan_record_pages(
    heap: HeapFile,
    pool: BufferPool,
    predicates: Sequence[Predicate],
    zone_maps: bool,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(first page, pages, records)`` for every run of up to
    :data:`SCAN_RUN_PAGES` consecutive pages a scan must read.

    With zone maps on, the heap's sidecar synopsis is consulted first and
    pages whose per-column min/max cannot satisfy the conjunction of
    ``predicates`` are never requested from the buffer pool.  Each page
    examined charges one ``synopsis_probes`` tick; when nothing can be
    skipped (or the synopsis is missing/corrupt) the scan degenerates to
    the plain full sweep, byte-for-byte.

    A run comes through the pool in one :meth:`BufferPool.scan_pages`
    loop, which still checks, charges and caches page by page in page
    order, and is parsed at once.  A page is its records back to back
    and only a file's last page is short, so the joined payloads of
    consecutive pages are the records of the run.
    """
    stats = pool.stats
    spans = [(0, heap.num_pages - 1)]
    if zone_maps and predicates:
        synopsis = load_heap_synopsis(heap)
        if synopsis is not None:
            mask = heap_page_mask(synopsis, predicates)
            stats.synopsis_probes += int(mask.size)
            skipped = int(mask.size - mask.sum())
            if skipped:
                stats.blocks_skipped += skipped
                spans = mask_runs(mask)
    for first, last in spans:
        for start in range(first, last + 1, SCAN_RUN_PAGES):
            payloads = list(pool.scan_pages(
                heap.name, start, min(start + SCAN_RUN_PAGES, last + 1)))
            yield (start, len(payloads),
                   heap.fmt.parse_page(b"".join(payloads)))


def seq_scan(
    heap: HeapFile,
    pool: BufferPool,
    table: str,
    out_columns: Sequence[str],
    predicates: Sequence[Predicate] = (),
    rid_column: Optional[str] = None,
    rid_base: int = 0,
    zone_maps: bool = False,
    live_mask: Optional[np.ndarray] = None,
) -> Iterator[RowBatch]:
    """Sequential heap scan with pushed-down predicates.

    Charges one iterator call per scanned tuple, one attribute extraction
    per predicate/output column access per surviving tuple.  ``rid_column``
    optionally emits record ids (used by designs that join on position).
    ``zone_maps`` prunes whole pages via the heap's synopsis sidecar;
    skipped pages charge no I/O and no per-tuple work.  ``live_mask``
    (indexed by local heap position, i.e. without ``rid_base``) hides
    snapshot-deleted tuples before any predicate runs.
    """
    stats = pool.stats
    compiled = [
        (p.column, compile_predicate(p, heap.fmt.dtype[p.column]))
        for p in predicates
    ]
    record_width = heap.fmt.record_width
    rows_per_page = heap.fmt.rows_per_page
    for first_page, _pages, records in _scan_record_pages(
            heap, pool, predicates, zone_maps):
        n = len(records)
        # only the final page is partial, so rids are page arithmetic
        local = first_page * rows_per_page
        stats.iterator_calls += n
        # parsing/copying each tuple costs time proportional to its width
        stats.tuple_bytes_scanned += n * record_width
        mask: Optional[np.ndarray] = None
        if live_mask is not None:
            stats.position_ops += n
            mask = live_mask[local:local + n].copy()
        for column, pred in compiled:
            if mask is None:
                verdict = pred(records[column], stats)
                mask = verdict
            else:
                # a row-store evaluates the next predicate only on tuples
                # that survived the previous one
                survivors = records[column][mask]
                verdict = pred(survivors, stats)
                mask = mask.copy()
                mask[np.flatnonzero(mask)[~verdict]] = False
        # the columns leave as views of the run's records; the batch's
        # selection gathers each one only when an operator reads it
        out = {qualified(table, c): records[c] for c in out_columns}
        if rid_column is not None:
            base = rid_base + local
            out[rid_column] = np.arange(base, base + n, dtype=np.int64)
        batch = RowBatch(out, n)
        yield batch if mask is None else batch.take(mask)


def super_tuple_scan(
    heap: HeapFile,
    pool: BufferPool,
    table: str,
    column: str,
    predicates: Sequence[Predicate] = (),
    pos_name: str = "_pos",
    zone_maps: bool = False,
    live_mask: Optional[np.ndarray] = None,
) -> Iterator[RowBatch]:
    """Scan a header-free single-column heap a *block* at a time.

    The "super tuple" executor model (Halverson et al., and this paper's
    conclusion list: reduced tuple overhead + block processing inside a
    row store): one operator call per page and vectorized per-value
    work instead of per-tuple iterator calls and header parsing.
    Positions are implicit in storage order; ``live_mask`` (indexed by
    position) hides snapshot-deleted tuples before any predicate runs.
    """
    stats = pool.stats
    compiled = [
        (p.column, compile_predicate(p, heap.fmt.dtype[p.column]))
        for p in predicates
    ]
    rows_per_page = heap.fmt.rows_per_page
    for first_page, pages, records in _scan_record_pages(
            heap, pool, predicates, zone_maps):
        n = len(records)
        stats.block_calls += pages
        base = first_page * rows_per_page
        values = np.ascontiguousarray(records[column])
        positions = np.arange(base, base + n, dtype=np.int64)
        mask: Optional[np.ndarray] = None
        if live_mask is not None:
            stats.position_ops += n
            mask = live_mask[base:base + n].copy()
        for _col, pred in compiled:
            # predicates are vectorized over the block, not interpreted
            # per tuple: swap the scalar charge for the vector rate
            before = stats.values_scanned_scalar
            verdict = pred(values if mask is None else values[mask], stats)
            moved = stats.values_scanned_scalar - before
            stats.values_scanned_scalar -= moved
            stats.values_scanned_vector += moved
            stats.attr_extractions -= len(verdict)
            if mask is None:
                mask = verdict
            else:
                mask = mask.copy()
                mask[np.flatnonzero(mask)[~verdict]] = False
        if mask is not None:
            values = values[mask]
            positions = positions[mask]
        stats.values_scanned_vector += len(values)
        yield RowBatch({qualified(table, column): values,
                        pos_name: positions})


def index_full_scan(
    tree: BPlusTree,
    pool: BufferPool,
    value_name: str,
    rid_name: str,
    secondary_name: Optional[str] = None,
) -> Iterator[RowBatch]:
    """Scan every index leaf, yielding (value, rid[, secondary]) batches."""
    stats = pool.stats
    entry_width = 12 if tree.has_secondary else 8
    for leaf in tree.scan_leaves(pool):
        stats.iterator_calls += len(leaf.keys)
        stats.tuple_bytes_scanned += len(leaf.keys) * entry_width
        out = {value_name: leaf.keys, rid_name: leaf.rids.astype(np.int64)}
        if secondary_name is not None:
            if leaf.secondary is None:
                raise ExecutionError(
                    "index has no secondary key but one was requested"
                )
            out[secondary_name] = leaf.secondary
        yield RowBatch(out)


def index_range_scan(
    tree: BPlusTree,
    pool: BufferPool,
    low: int,
    high: int,
    value_name: str,
    rid_name: str,
    secondary_name: Optional[str] = None,
) -> Iterator[RowBatch]:
    """Range scan [low, high] over the index."""
    stats = pool.stats
    entry_width = 12 if tree.has_secondary else 8
    for leaf in tree.range_scan(pool, low, high):
        stats.iterator_calls += len(leaf.keys)
        stats.tuple_bytes_scanned += len(leaf.keys) * entry_width
        out = {value_name: leaf.keys, rid_name: leaf.rids.astype(np.int64)}
        if secondary_name is not None and leaf.secondary is not None:
            out[secondary_name] = leaf.secondary
        yield RowBatch(out)


def heap_fetch(
    heap: HeapFile,
    pool: BufferPool,
    rids: np.ndarray,
    table: str,
    out_columns: Sequence[str],
) -> Iterator[RowBatch]:
    """Fetch tuples by rid, in ascending rid order, reading each needed
    page once; a rid outside the heap raises ``StorageError``.

    Random I/O is charged naturally: non-adjacent pages cost seeks.  One
    batch covers up to :data:`SCAN_RUN_PAGES` distinct pages, joined the
    way a scan run is (the only short page is the file's last, hence the
    join's last), so a record sits at ``page rank * rows_per_page +
    slot`` and one index takes them all.
    """
    stats = pool.stats
    rows_per_page = heap.fmt.rows_per_page
    rids = np.asarray(rids, dtype=np.int64)
    if (rids[1:] < rids[:-1]).any():
        rids = np.sort(rids)
    if len(rids) and (rids[0] < 0 or rids[-1] >= heap.num_rows):
        bad = int(rids[0] if rids[0] < 0 else rids[-1])
        raise StorageError(f"rid {bad} out of range for {heap.name!r} "
                           f"({heap.num_rows} rows)")
    page_of = rids // rows_per_page
    # sorted rids: a page's first rid is where the page number changes
    new_page = np.diff(page_of, prepend=-1) != 0
    first = np.flatnonzero(new_page)
    pages, rank = page_of[first], np.cumsum(new_page) - 1
    where = rank * rows_per_page + rids % rows_per_page
    bounds = np.append(first, len(rids))
    for lo in range(0, len(pages), SCAN_RUN_PAGES):
        run = pages[lo:lo + SCAN_RUN_PAGES]
        chunk = slice(bounds[lo], bounds[lo + len(run)])
        records = heap.fmt.parse_page(b"".join(
            pool.read_pages(heap.name, run.tolist())))
        picked = where[chunk] - lo * rows_per_page
        stats.iterator_calls += len(picked)
        stats.tuple_bytes_scanned += len(picked) * heap.fmt.record_width
        batch = RowBatch({qualified(table, c): records[c]
                          for c in out_columns}, len(records))
        yield batch.take(picked).with_columns({"_rid": rids[chunk]})


# --------------------------------------------------------------------- #
# hash join
# --------------------------------------------------------------------- #
class HashTable:
    """Build side of a hash join: key -> payload row.

    ``charge_inserts=False`` is used when the structure is merely a
    sorted materialization (e.g. the output of a merge join), not a hash
    build.  The lookup structure over the keys is built on the first
    probe, so a table that is only streamed back out never pays for it.
    Keys that arrive sorted are kept as given (a stable argsort of them
    is the identity).
    """

    def __init__(self, keys: np.ndarray, payload: Dict[str, np.ndarray],
                 stats: QueryStats, charge_inserts: bool = True) -> None:
        self._keys = keys
        self._payload = dict(payload)
        if (keys[1:] < keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            self._keys = keys[order]
            self._payload = {k: v[order] for k, v in payload.items()}
        self._index: Optional[KeyIndex] = None
        if charge_inserts:
            stats.hash_inserts += len(keys)
        self.entry_bytes = sum(v.dtype.itemsize for v in payload.values()) \
            + keys.dtype.itemsize + 16  # bucket/pointer overhead
        self.num_entries = len(keys)

    @classmethod
    def from_stream(cls, stream: BatchStream, key: str,
                    payload_columns: Sequence[str], stats: QueryStats
                    ) -> "HashTable":
        keys: List[np.ndarray] = []
        payload: Dict[str, List[np.ndarray]] = {c: [] for c in payload_columns}
        for batch in stream:
            keys.append(batch.column(key))
            for c in payload_columns:
                payload[c].append(batch.column(c))
        all_keys = np.concatenate(keys) if keys else np.zeros(0, np.int64)
        all_payload = {
            c: (np.concatenate(v) if v else np.zeros(0, np.int64))
            for c, v in payload.items()
        }
        return cls(all_keys, all_payload, stats)

    @property
    def size_bytes(self) -> int:
        return self.entry_bytes * self.num_entries

    def probe(self, keys: np.ndarray, stats: QueryStats
              ) -> Tuple[np.ndarray, np.ndarray]:
        """(found mask, build row index) for each probe key."""
        stats.hash_probes += len(keys)
        if self._index is None:
            self._index = KeyIndex(self._keys)
        return self._index.lookup(keys)

    def payload_at(self, name: str, rows: Optional[np.ndarray] = None
                   ) -> np.ndarray:
        """Payload ``name`` at build ``rows`` (all of it without)."""
        values = self._payload[name]
        return values if rows is None else values[rows]

    def payload_names(self) -> List[str]:
        return list(self._payload)

    def matching_keys(self) -> np.ndarray:
        """All build-side keys, ascending (e.g. the dimension keys that
        survived this table's predicates)."""
        return self._keys

    def as_batches(self, key_name: str, batch_rows: int = 65536
                   ) -> Iterator[RowBatch]:
        """Stream the table's contents back out as row batches."""
        for start in range(0, max(self.num_entries, 1), batch_rows):
            stop = start + batch_rows
            out = {key_name: self._keys[start:stop]}
            for name, values in self._payload.items():
                out[name] = values[start:stop]
            yield RowBatch(out)
            if self.num_entries == 0:
                break


class SpillAccountant:
    """Charges honest Grace-partitioning I/O when a hash join spills.

    The partitions are physically written to (and read back from) a
    scratch file on the simulated disk, so spill bytes and seeks appear
    in the ledger exactly like any other I/O.
    """

    _counter = 0

    def __init__(self, disk: SimulatedDisk, memory_budget_bytes: int) -> None:
        self.disk = disk
        self.memory_budget_bytes = memory_budget_bytes

    def spill_round_trip(self, batches_bytes: int) -> None:
        """Write ``batches_bytes`` of partition data and read it back."""
        SpillAccountant._counter += 1
        name = f"__spill_{SpillAccountant._counter}"
        self.disk.create(name)
        remaining = batches_bytes
        filler = b"\0" * PAGE_SIZE
        while remaining > 0:
            self.disk.append_page(name, filler[:min(PAGE_SIZE, remaining)])
            remaining -= PAGE_SIZE
        for _page in self.disk.scan_pages(name):
            pass
        self.disk.drop(name)


def hash_join(
    stream: BatchStream,
    probe_key: str,
    table: HashTable,
    output_prefixing: Dict[str, str],
    stats: QueryStats,
    spill: Optional[SpillAccountant] = None,
    probe_row_bytes: int = 0,
    probe_rows_estimate: int = 0,
) -> Iterator[RowBatch]:
    """Hash join: probe ``stream`` against ``table``.

    ``output_prefixing`` maps build payload columns to their output names.
    Charges one hash probe per probe tuple and one attribute copy per
    appended build column per match (the row store's join-time tuple
    glue).  If a spill accountant is given and the build side exceeds the
    memory budget, both sides pay a Grace-partitioning round trip.
    """
    if spill is not None and table.size_bytes > spill.memory_budget_bytes:
        spill.spill_round_trip(table.size_bytes)
        spill.spill_round_trip(max(probe_row_bytes * probe_rows_estimate, 0))
    for batch in stream:
        n = len(batch)
        stats.iterator_calls += n
        found, rows = table.probe(batch.column(probe_key), stats)
        if not found.all():
            kept = np.flatnonzero(found)
            batch, rows = batch.take(kept), rows[kept]
        extra = {out_name: table.payload_at(source)
                 for source, out_name in output_prefixing.items()}
        stats.tuple_attrs_copied += len(rows) * len(output_prefixing)
        yield batch.with_columns(extra, rows)


# --------------------------------------------------------------------- #
# expressions and aggregation
# --------------------------------------------------------------------- #
def eval_expr_rows(expr: Expr, batch: RowBatch, fact_table: str,
                   stats: QueryStats) -> np.ndarray:
    """Evaluate an aggregate-input expression per tuple (int64).

    Charges one scalar op per tuple per expression node, matching the
    per-tuple expression interpretation of a row executor.
    """
    n = len(batch)
    if isinstance(expr, ColumnRef):
        stats.attr_extractions += n
        return batch.column(qualified(expr.table, expr.column)).astype(np.int64)
    if isinstance(expr, Literal):
        return np.full(n, expr.value, dtype=np.int64)
    if isinstance(expr, BinOp):
        left = eval_expr_rows(expr.left, batch, fact_table, stats)
        right = eval_expr_rows(expr.right, batch, fact_table, stats)
        stats.values_scanned_scalar += n
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise ExecutionError(f"unknown expression node {type(expr).__name__}")


class HashAggregator:
    """Grouped aggregation with incremental int64 accumulators.

    Each batch is consolidated on arrival and kept as arrays: one
    representative raw key per group (ints or bytes) plus the group's
    accumulators.  :meth:`finish` merges the partials with one factorize
    and one ``ufunc.at`` per aggregate — so groups reach the shared
    result tail (:mod:`repro.plan.tail`) in ascending key order — and
    the tail orders, limits and decodes them.  Aggregate semantics
    (sum/count/min/max/avg) come from :mod:`repro.plan.aggregates`, so
    partial per-batch reductions merge exactly.
    """

    def __init__(self, group_names: Sequence[str],
                 agg_names: Sequence[str],
                 agg_funcs: Optional[Sequence[str]] = None) -> None:
        self.group_names = list(group_names)
        self.agg_names = list(agg_names)
        self.agg_funcs = (list(agg_funcs) if agg_funcs is not None
                          else ["sum"] * len(agg_names))
        self._scalar = [agg.empty_accumulator(f) for f in self.agg_funcs]
        self._parts: List[Tuple[List[np.ndarray],
                                List[agg.GroupReduction]]] = []

    def consume(self, group_arrays: Sequence[np.ndarray],
                agg_arrays: Sequence[np.ndarray], stats: QueryStats) -> None:
        n = len(agg_arrays[0]) if agg_arrays else 0
        if n == 0:
            return
        stats.agg_updates += n
        if not group_arrays:
            self._scalar = [
                agg.merge(func, acc, agg.reduce_scalar(func, arr))
                for func, acc, arr in zip(self.agg_funcs, self._scalar,
                                          agg_arrays)]
            return
        # consolidate the batch first, keeping a representative raw key
        matrix = np.stack([tail.encode_group(a)[0] for a in group_arrays])
        uniq, inverse = agg.factorize_groups(matrix)
        first_of_group = np.zeros(uniq.shape[1], dtype=np.int64)
        first_of_group[inverse[::-1]] = np.arange(n - 1, -1, -1)
        self._parts.append((
            [arr[first_of_group] for arr in group_arrays],
            [agg.reduce_groups(func, arr, inverse, uniq.shape[1])
             for func, arr in zip(self.agg_funcs, agg_arrays)]))

    def finish(self, order_by: Sequence[OrderKey] = (),
               limit: Optional[int] = None,
               vocabularies: Optional[Sequence] = None) -> ResultSet:
        """The merged groups through the result tail (one row without
        GROUP BY).  ``vocabularies`` decodes integer keys that are
        dictionary codes (index-only plans), one per group column."""
        names = self.group_names + self.agg_names
        if not self.group_names:
            row = tuple(agg.finalize(func, *acc)
                        for func, acc in zip(self.agg_funcs, self._scalar))
            return ResultSet(names, [row]).limited(limit)
        if not self._parts:
            return ResultSet(names, [])
        encoded = [tail.encode_group(np.concatenate(column)) for column in
                   zip(*(keys for keys, _ in self._parts))]
        matrix = np.stack([codes for codes, _ in encoded])
        bounds = np.cumsum([len(keys[0]) for keys, _ in self._parts])
        uniq, merged = agg.merge_group_reductions(self.agg_funcs, [
            (part, reduced) for part, (_, reduced) in
            zip(np.split(matrix, bounds[:-1], axis=1), self._parts)])
        groups = [tail.GroupColumn(codes, own if own is not None else given)
                  for codes, (_, own), given in zip(
                      uniq, encoded, vocabularies or [None] * len(uniq))]
        return tail.finish(names, groups,
                           [agg.finalize_column(func, *acc)
                            for func, acc in zip(self.agg_funcs, merged)],
                           order_by, limit)

    #: the groups in ascending key order, no ORDER BY, no LIMIT
    result = finish


def charge_result_sort(result: ResultSet, stats: QueryStats) -> None:
    """Charge n log2 n comparisons for the final ORDER BY."""
    n = len(result)
    if n > 1:
        stats.sort_compares += int(n * math.log2(n))


__all__ = [
    "RowBatch",
    "BatchStream",
    "qualified",
    "seq_scan",
    "index_full_scan",
    "index_range_scan",
    "heap_fetch",
    "HashTable",
    "SpillAccountant",
    "hash_join",
    "eval_expr_rows",
    "HashAggregator",
    "charge_result_sort",
]
