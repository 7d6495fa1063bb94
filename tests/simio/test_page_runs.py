"""A page run through the pool is the same as its pages one at a time.

``BufferPool.read_pages`` (behind ``scan_pages`` and every ``read_page``)
looks the file, the ledger and the cache up once per run and charges a
clean miss in place.  It is held here to a reference written the way the
pool read a page before runs existed: cancellation check, cache, then
:func:`fill_page` for every miss.  Whatever the run meets — hits inside
it, more pages than the pool holds, a quarantined page, a transient
fault, a corrupt or mutable image, a simulated-seconds budget running
out — both leave the same pages, error, ledger, LRU order, hit/miss
counts, quarantine list and disk heads.
"""

import numpy as np
import pytest

from repro.errors import ChecksumError, QueryCancelledError, StorageError
from repro.serve.resilience import CancellationToken
from repro.simio.buffer_pool import BufferPool, fill_page
from repro.simio.disk import PAGE_SIZE, SimulatedDisk
from repro.simio.faults import FaultInjector, FaultPolicy
from repro.simio.stats import PAPER_2008, QueryStats

NAME = "f"
NUM_PAGES = 24


def reference_read_page(pool, name, page_no):
    """One page through the pool, per page, the pre-run way."""
    disk = pool.disk
    if disk.cancellation is not None:
        disk.cancellation.check(disk.stats)
    key = (name, page_no)
    cached = pool._pages.get(key)
    if cached is not None:
        pool._pages.move_to_end(key)
        disk.stats.buffer_hits += 1
        pool.hits += 1
        return cached
    payload = fill_page(disk, name, page_no, disk.stats)
    pool._insert(key, payload)
    pool.misses += 1
    return payload


def _side(pool_pages, setup):
    disk = SimulatedDisk(QueryStats())
    disk.create(NAME)
    disk.create("other")
    for page_no in range(NUM_PAGES):
        disk.append_page(NAME, bytes([page_no]) * (100 + page_no))
    disk.append_page("other", b"x")
    pool = BufferPool(disk, pool_pages * PAGE_SIZE)
    setup(disk, pool)
    return disk, pool


def _state(disk, pool, pages, error):
    return (pages, error, disk.stats.snapshot(), list(pool._pages),
            pool.hits, pool.misses, disk.quarantined_pages(), disk._head,
            list(disk._stripe_heads))


def _drive(disk, pool, reads):
    pages, error = [], None
    try:
        for read in reads:
            for payload in read(pool):
                pages.append(bytes(payload))
    except (ChecksumError, QueryCancelledError, StorageError) as exc:
        error = (type(exc).__name__, str(exc))
    return _state(disk, pool, pages, error)


def _by_run(plan):
    """``plan`` as pool runs: ``scan_pages`` for a range, ``read_pages``
    for a page list."""
    reads = []
    for step in plan:
        if isinstance(step, range):
            reads.append(lambda pool, s=step: pool.scan_pages(
                NAME, s.start, s.stop))
        else:
            reads.append(lambda pool, s=step: pool.read_pages(NAME, s))
    return reads


def _by_page(plan, read):
    """``plan`` one ``read`` per page (``scan_pages`` stops a range at
    the file's end; a page list asks for every page it names)."""
    pages = [page_no for step in plan for page_no in (
        range(step.start, min(step.stop, NUM_PAGES))
        if isinstance(step, range) else step)]
    return [lambda pool, p=page_no: [read(pool, NAME, p)]
            for page_no in pages]


def _nothing(disk, pool):
    pass


def _warm_some(disk, pool):
    for page_no in (3, 5, 6, 11):
        pool.read_page(NAME, page_no)
    pool.read_page("other", 0)


def _quarantine_mid_run(disk, pool):
    disk.quarantine(NAME, 9)


def _transient_mid_run(disk, pool):
    FaultInjector(seed=3, policies=[FaultPolicy(
        page_lo=7, page_hi=9, transient_rate=1.0,
        max_transient_failures=3)]).install(disk)


def _corrupt_mid_run(disk, pool):
    disk.file(NAME).pages[12] = b"garbage"


def _mutable_images(disk, pool):
    # equal bytes that are not the written object: hashed, still good
    pages = disk.file(NAME).pages
    pages[4] = bytearray(pages[4])
    pages[5] = bytes(bytearray(pages[5]))


def _budget(disk, pool):
    # enough simulated seconds for a few page misses, not for the run
    disk.cancellation = CancellationToken(sim_budget=0.0015,
                                          cost_model=PAPER_2008)


SCENARIOS = {
    "cold": (8, _nothing),
    "hits-inside-the-run": (32, _warm_some),
    "run-longer-than-the-pool": (5, _nothing),
    "quarantined-mid-run": (8, _quarantine_mid_run),
    "transient-mid-run": (8, _transient_mid_run),
    "corrupt-mid-run": (8, _corrupt_mid_run),
    "mutable-images": (8, _mutable_images),
    "budget-cancels-mid-run": (64, _budget),
}
PLANS = {
    "one-run": [range(0, NUM_PAGES)],
    "runs-twice": [range(0, 16), range(2, 20)],
    "scattered": [[1, 2, 9, 10, 23], range(4, 14), [0, 23, 22]],
    "out-of-range": [range(20, 40), [3, NUM_PAGES + 2]],
}


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_loop_equals_page_by_page(scenario, plan):
    pool_pages, setup = SCENARIOS[scenario]
    steps = PLANS[plan]
    reference = _drive(*_side(pool_pages, setup),
                       _by_page(steps, reference_read_page))
    by_run = _drive(*_side(pool_pages, setup), _by_run(steps))
    by_page = _drive(*_side(pool_pages, setup),
                     _by_page(steps, BufferPool.read_page))
    assert by_run == reference
    assert by_page == reference


def test_scenarios_reach_what_they_name():
    """Each fault scenario really fires mid-run, after some pages."""
    def outcome(scenario):
        pool_pages, setup = SCENARIOS[scenario]
        return _drive(*_side(pool_pages, setup),
                      _by_run(PLANS["one-run"]))

    pages, error, ledger, *_ = outcome("quarantined-mid-run")
    assert len(pages) == 9 and error[0] == "ChecksumError"
    pages, error, ledger, *_ = outcome("transient-mid-run")
    assert error is None and ledger["io_retries"] >= 2
    pages, error, ledger, *_ = outcome("corrupt-mid-run")
    assert len(pages) == 12 and ledger["checksum_failures"] > 0
    pages, error, ledger, *_ = outcome("budget-cancels-mid-run")
    assert 0 < len(pages) < NUM_PAGES and error[0] == "QueryCancelledError"
    pages, error, ledger, *_ = outcome("run-longer-than-the-pool")
    assert len(pages) == NUM_PAGES and ledger["pages_read"] == NUM_PAGES
    _, _, _, lru, hits, misses, *_ = outcome("hits-inside-the-run")
    # five warm-up misses, then four of the run's pages hit
    assert hits == 4 and misses == 5 + NUM_PAGES - 4
    assert len(lru) == misses


def test_repeats_count_as_hits():
    """``times`` stands for that many requests in a row, on a miss and on
    a hit alike."""
    disk, pool = _side(8, _nothing)
    assert list(pool.read_pages(NAME, [2, 2, 3], times=3)) == \
        [disk.file(NAME).pages[p] for p in (2, 2, 3)]
    assert (pool.misses, pool.hits) == (2, 7)
    assert disk.stats.buffer_hits == 7 and disk.stats.pages_read == 2
    assert np.array_equal([key[1] for key in pool._pages], [2, 3])


def test_hits_need_no_file():
    """A page still cached after its file was dropped is served as a
    hit; the first miss is what finds the file gone."""
    def warm_then_drop(disk, pool):
        _warm_some(disk, pool)
        disk.drop(NAME)

    plan = [[3, 5, 4, 6]]
    reference = _drive(*_side(32, warm_then_drop),
                       _by_page(plan, reference_read_page))
    assert len(reference[0]) == 2 and reference[1][0] == "StorageError"
    assert _drive(*_side(32, warm_then_drop), _by_run(plan)) == reference
    assert _drive(*_side(32, warm_then_drop),
                  _by_page(plan, BufferPool.read_page)) == reference
