"""A scan batch is a wall-clock device: its size must be invisible.

``operators.SCAN_RUN_PAGES`` caps how many consecutive heap pages one
scan batch (or one rid-fetch batch) spans.  One page per batch is how the
row store ran before batches grew, and stays here as the reference:
every plan shape must produce the same ledger, rows, simulated seconds
and span tree at one page, at the shipped cap and with no cap at all.
"""

import numpy as np
import pytest

from repro.errors import CorruptPageError, QueryCancelledError
from repro.plan.logical import ColumnRef, InSet
from repro.rowstore import operators
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.rowstore.operators import heap_fetch, seq_scan, super_tuple_scan
from repro.serve import QueryService
from repro.simio.buffer_pool import MAX_READ_RETRIES, BufferPool
from repro.simio.disk import SimulatedDisk
from repro.simio.faults import FaultInjector, FaultPolicy
from repro.simio.stats import QueryStats
from repro.ssb.generator import generate
from repro.ssb.queries import all_queries
from repro.storage.column import Column
from repro.storage.heapfile import HeapFile
from repro.storage.rowpage import RowFormat
from repro.storage.table import Table
from repro.types import int32
from tests.write.dml import delete_predicates

WHOLE_FILE = 1 << 30
#: one page (the reference), the shipped cap, no cap
CAPS = (1, operators.SCAN_RUN_PAGES, WHOLE_FILE)

T, TB, MV, VP, AI = (DesignKind.TRADITIONAL, DesignKind.TRADITIONAL_BITMAP,
                     DesignKind.MATERIALIZED_VIEWS,
                     DesignKind.VERTICAL_PARTITIONING, DesignKind.INDEX_ONLY)
PLANS = {
    "T": (T, {}),
    "TB": (TB, {}),
    "MV": (MV, {}),
    "VP-hash": (VP, {"vp_join": "hash"}),
    "VP-merge": (VP, {"vp_join": "merge"}),
    "VP-super": (VP, {"vp_super_tuples": True, "vp_join": "merge"}),
    "AI": (AI, {}),
}


def _fingerprint(run):
    spans = [(span.name, span.self_stats().snapshot())
             for span in run.trace.root.walk()]
    return run.stats.snapshot(), run.result.rows, run.seconds, spans


def _assert_cap_invisible(monkeypatch, engine, plan):
    design, options = PLANS[plan]
    for query in all_queries():
        seen = []
        for cap in CAPS:
            monkeypatch.setattr(operators, "SCAN_RUN_PAGES", cap)
            seen.append(_fingerprint(engine.execute(query, design,
                                                    **options)))
        for cap, other in zip(CAPS[1:], seen[1:]):
            assert other == seen[0], (plan, query.name, cap)


def test_fixture_has_multi_page_partitions_with_short_tails(system_x):
    """The differential is only worth its name if every fact partition
    spans several pages and ends in a short one."""
    partitions = list(system_x.artifacts.fact_partitions.values())
    for flight in system_x.artifacts.mv_partitions.values():
        partitions.extend(flight.values())
    for heap in partitions:
        assert heap.num_pages >= 3, heap.name
        assert heap.num_rows % heap.fmt.rows_per_page, heap.name


@pytest.mark.parametrize("zone_maps", (False, True), ids=("full", "zm"))
@pytest.mark.parametrize("plan", PLANS)
def test_run_cap_is_invisible(monkeypatch, system_x, plan, zone_maps):
    monkeypatch.setattr(system_x, "zone_maps", zone_maps)
    _assert_cap_invisible(monkeypatch, system_x, plan)


@pytest.fixture(scope="module")
def deleting_store(ssb_data):
    """A ``writes=True`` store whose scans slice a live mask."""
    engine = SystemX(ssb_data, designs=[T, TB, MV, VP], writes=True)
    assert engine.delete("lineorder", delete_predicates()) > 0
    return engine


@pytest.mark.parametrize("zone_maps", (False, True), ids=("full", "zm"))
@pytest.mark.parametrize("plan", [p for p in PLANS if p != "AI"])
def test_run_cap_is_invisible_under_pending_deletes(
        monkeypatch, deleting_store, plan, zone_maps):
    monkeypatch.setattr(deleting_store, "zone_maps", zone_maps)
    _assert_cap_invisible(monkeypatch, deleting_store, plan)


# --------------------------------------------------------------------- #
# a hand-built heap whose zone-map mask has gaps
# --------------------------------------------------------------------- #
CAP = 4
#: surviving page runs of length 1, CAP - 1, CAP, CAP + 1 and 2 * CAP + 1,
#: the last reaching the file's short final page
WANTED_RUNS = ((1, 1), (3, 5), (8, 11), (13, 17), (20, 28))
NUM_PAGES = 29


def _build(header_bytes, columns):
    """(heap, disk, predicate keeping WANTED_RUNS, surviving rids): column
    ``page`` holds each row's page number, so an IN-list on it makes any
    page mask one likes."""
    disk = SimulatedDisk(QueryStats())
    sizing = Table("t", [Column.from_ints(c, np.zeros(1, np.int32), int32())
                         for c in columns])
    per_page = RowFormat(sizing.schema,
                         header_bytes=header_bytes).rows_per_page
    n = (NUM_PAGES - 1) * per_page + per_page // 3  # a short last page
    data = {"page": np.arange(n) // per_page, "k": np.arange(n)}
    table = Table("t", [Column.from_ints(c, data[c].astype(np.int32),
                                         int32()) for c in columns])
    heap = HeapFile.load(disk, "h", table, header_bytes=header_bytes)
    assert heap.num_pages == NUM_PAGES
    wanted = [p for lo, hi in WANTED_RUNS for p in range(lo, hi + 1)]
    pred = InSet(ColumnRef("t", "page"), tuple(wanted))
    return heap, disk, pred, np.flatnonzero(np.isin(data["page"], wanted))


def _drain(scan, heap, disk, cap, monkeypatch, **options):
    monkeypatch.setattr(operators, "SCAN_RUN_PAGES", cap)
    disk.stats = QueryStats()
    disk.reset_head()
    pool = BufferPool(disk, 4 * 1024 * 1024)
    batches = list(scan(heap, pool, table="t", **options))
    columns = {name: np.concatenate([b.column(name) for b in batches])
               for name in batches[0].columns}
    return columns, [len(b) for b in batches], disk.stats.snapshot()


@pytest.mark.parametrize("live", (False, True), ids=("all-live", "deletes"))
def test_seq_scan_rids_across_zone_map_gaps(monkeypatch, live):
    heap, disk, pred, survivors = _build(8, ("page", "k"))
    live_mask = None
    if live:
        live_mask = np.ones(heap.num_rows, dtype=bool)
        live_mask[::7] = False
        survivors = survivors[live_mask[survivors]]
    options = dict(out_columns=["k"], predicates=[pred], rid_column="_rid",
                   rid_base=1000, zone_maps=True, live_mask=live_mask)
    reference, sizes, ledger = _drain(seq_scan, heap, disk, 1, monkeypatch,
                                      **options)
    assert np.array_equal(reference["t.k"], survivors)
    assert np.array_equal(reference["_rid"], survivors + 1000)
    assert len(sizes) == sum(hi - lo + 1 for lo, hi in WANTED_RUNS)
    assert ledger["blocks_skipped"] == NUM_PAGES - len(sizes)
    for cap, batches in ((CAP, 8), (WHOLE_FILE, len(WANTED_RUNS))):
        columns, sizes, other = _drain(seq_scan, heap, disk, cap,
                                       monkeypatch, **options)
        # under the cap the runs of CAP + 1 and 2 * CAP + 1 pages split
        # in two and three; no batch ever crosses a gap
        assert len(sizes) == batches
        assert other == ledger
        for name, values in reference.items():
            assert np.array_equal(columns[name], values), (cap, name)


def test_super_tuple_scan_counts_blocks_per_page(monkeypatch):
    heap, disk, pred, survivors = _build(0, ("page",))
    options = dict(column="page", predicates=[pred], zone_maps=True)
    reference, sizes, ledger = _drain(super_tuple_scan, heap, disk, 1,
                                      monkeypatch, **options)
    assert np.array_equal(reference["_pos"], survivors)
    assert ledger["block_calls"] == len(sizes)
    for cap in (CAP, WHOLE_FILE):
        columns, _sizes, other = _drain(super_tuple_scan, heap, disk, cap,
                                        monkeypatch, **options)
        assert other == ledger
        assert np.array_equal(columns["_pos"], reference["_pos"])
        assert np.array_equal(columns["t.page"], reference["t.page"])


def test_heap_fetch_gathers_across_page_runs(monkeypatch):
    heap, disk, _pred, survivors = _build(8, ("page", "k"))
    # unsorted on purpose, a few rids per surviving page, the last row of
    # the short final page included
    rids = np.append(survivors[::41], heap.num_rows - 1)[::-1]
    options = dict(rids=rids, out_columns=["k", "page"])
    reference, sizes, ledger = _drain(heap_fetch, heap, disk, 1,
                                      monkeypatch, **options)
    assert np.array_equal(reference["_rid"], np.sort(rids))
    assert np.array_equal(reference["t.k"], reference["_rid"])
    assert np.array_equal(reference["t.page"],
                          reference["_rid"] // heap.fmt.rows_per_page)
    assert ledger["iterator_calls"] == len(rids)
    assert ledger["pages_read"] == len(sizes) == len(
        np.unique(rids // heap.fmt.rows_per_page))
    for cap in (CAP, WHOLE_FILE):
        columns, _sizes, other = _drain(heap_fetch, heap, disk, cap,
                                        monkeypatch, **options)
        assert other == ledger
        for name, values in reference.items():
            assert np.array_equal(columns[name], values), (cap, name)


# --------------------------------------------------------------------- #
# failure paths: a fault inside a run is the fault it always was
# --------------------------------------------------------------------- #
#: a fact partition of ten pages at this scale; page 4 sits mid-run
FAULTY_FILE, FAULTY_PAGE = "heap.lineorder.y1993", 4
Q1_1 = all_queries()[0]


@pytest.fixture(scope="module")
def tiny_data():
    return generate(0.004)


def _faulty_engine(data, **fault):
    policy = FaultPolicy(file_glob=FAULTY_FILE, page_lo=FAULTY_PAGE,
                         page_hi=FAULTY_PAGE + 1, **fault)
    injector = FaultInjector(11, [policy])
    engine = SystemX(data, designs=[T])
    assert engine.artifacts.fact_partitions[1993].num_pages > FAULTY_PAGE + 2
    injector.install(engine.disk)  # after the build: corrupts what is stored
    return engine, injector


@pytest.mark.parametrize("cap", CAPS[:2], ids=("one-page", "shipped"))
def test_corrupt_page_mid_run_is_typed_and_attributed(monkeypatch,
                                                      tiny_data, cap):
    monkeypatch.setattr(operators, "SCAN_RUN_PAGES", cap)
    engine, injector = _faulty_engine(tiny_data, bitflip_rate=1.0)
    assert injector.corrupted == [(FAULTY_FILE, FAULTY_PAGE, "bitflip")]
    with pytest.raises(CorruptPageError) as info:
        engine.execute(Q1_1, T)
    assert (info.value.file, info.value.page_no) == (FAULTY_FILE,
                                                     FAULTY_PAGE)
    assert engine.disk.is_quarantined(FAULTY_FILE, FAULTY_PAGE)
    # the read path retried, then gave up, exactly as page at a time
    assert engine.disk.stats.checksum_failures == MAX_READ_RETRIES + 1
    assert engine.disk.stats.pages_quarantined == 1


def test_transient_fault_mid_run_retries_to_the_same_ledger(monkeypatch,
                                                            tiny_data):
    clean = SystemX(tiny_data, designs=[T]).execute(Q1_1, T)
    engine, injector = _faulty_engine(tiny_data, transient_rate=1.0,
                                      max_transient_failures=2)
    budget = injector.transient_budget(FAULTY_FILE, FAULTY_PAGE)
    assert budget >= 1
    seen = []
    for cap in CAPS:
        monkeypatch.setattr(operators, "SCAN_RUN_PAGES", cap)
        injector.reset_transients()
        run = engine.execute(Q1_1, T)
        assert run.stats.io_retries == budget
        assert run.result.rows == clean.result.rows
        seen.append(_fingerprint(run))
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_sim_deadline_cancels_mid_scan_with_a_verifiable_ledger(system_x):
    full = system_x.execute(Q1_1, T)
    with QueryService(system_x=system_x) as service:
        session = service.session(engine="rs")
        with pytest.raises(QueryCancelledError) as info:
            session.execute(Q1_1, cached=False,
                            sim_deadline=full.seconds / 2)
        error = info.value
        error.trace.verify(error.stats)
        assert 0 < error.stats.pages_read < full.stats.pages_read
        assert system_x.disk.cancellation is None
