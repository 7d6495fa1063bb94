"""The physical design survives every rebuild.

A sibling engine — the tuple mover's shadow, recovery's roll-forward
rebuild — is made in exactly one place
(``EngineShell._spawn``) with the *whole* design: projections added in
other sort orders, individually loaded row-MV flights.  Before that the
shadow was re-created from constructor defaults, so the first tuple move
silently dropped every redundant projection and, with it, corrupt-page
failover.
"""

from dataclasses import replace

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.reference import execute as reference_execute
from repro.simio.faults import CRASH_AFTER_MOVE_SWAP, CrashPolicy
from repro.ssb.queries import query_by_name
from repro.storage.colfile import CompressionLevel
from repro.write.recovery import CrashHarness
from tests.write.dml import clone_rows

Q1_1 = query_by_name("Q1.1")
CONFIG = replace(ExecutionConfig.baseline(), writes=True)
EXTRA_SORT = ("custkey",)


def _redundant_store(data, fault_injector=None):
    store = CStore(data, levels=(CompressionLevel.MAX,),
                   fault_injector=fault_injector)
    store.add_projection("lineorder", EXTRA_SORT)
    return store


def _fact_projections(store):
    return [p.name for p in
            store._projections[("lineorder", CompressionLevel.MAX)]]


def _assert_fails_over(store):
    """Fence off the primary fact projection: the query must be served,
    correctly, by the redundant one (exactly one failover)."""
    primary = _fact_projections(store)[0]
    fenced = [name for name in store.disk.files()
              if name.startswith(primary + ".")]
    assert fenced
    for name in fenced:
        store.disk.quarantine(name, 0)
    run = store.execute(Q1_1, CONFIG)
    assert run.stats.recoveries == 1
    assert run.result.rows == \
        reference_execute(store.snapshot_tables(), Q1_1).rows


def test_added_projection_survives_move(wdata):
    store = _redundant_store(wdata)
    before = _fact_projections(store)
    assert len(before) == 2
    store.insert("lineorder", clone_rows(wdata.lineorder, 1))
    assert store.move() == 1
    assert _fact_projections(store) == before
    _assert_fails_over(store)


def test_added_projection_survives_crash_recovery(wdata):
    # the crash lands after the move record (the commit point) but
    # before the swap: recovery must roll the move forward by rebuilding
    harness = CrashHarness(
        wdata, crashes=[CrashPolicy(CRASH_AFTER_MOVE_SWAP)],
        make_engine=_redundant_store)
    before = _fact_projections(harness.engine)
    assert harness.insert("lineorder", clone_rows(wdata.lineorder, 1)) == 1
    assert harness.move() is None  # the kill point fired
    report = harness.crash_and_recover()
    assert report.moves_rolled_forward == 1
    assert harness.engine.pending_writes() == 0
    assert _fact_projections(harness.engine) == before
    _assert_fails_over(harness.engine)


def test_loaded_row_mv_flight_survives_move(wdata):
    store = CStore(wdata, levels=(CompressionLevel.MAX,))
    store.load_row_mv(1)
    store.insert("lineorder", clone_rows(wdata.lineorder, 40))
    assert store.move() == 40
    assert sorted(store._row_mv) == [1]  # that flight, and only that one
    # the rebuilt view holds the moved rows
    assert store.execute_row_mv(Q1_1).result.rows == \
        reference_execute(store.snapshot_tables(), Q1_1).rows
