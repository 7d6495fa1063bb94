"""Cold-start recovery unit behavior: journal scan/replay, torn-tail
truncation, move roll-forward, crash-point injection through the
harness, and the journal edge cases (empty journal, recover-twice,
transient reads during replay)."""

import threading

import numpy as np
import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import (JournalTornError, SimulatedCrashError,
                          WriteContentionError)
from repro.reference import execute as reference_execute
from repro.simio.faults import (CRASH_AFTER_JOURNAL_APPEND,
                                CRASH_AFTER_MOVE_SWAP,
                                CRASH_BEFORE_JOURNAL_APPEND,
                                CRASH_BEFORE_MOVE_SWAP,
                                CRASH_MID_MOVE_SHADOW, CrashPolicy,
                                FaultInjector, FaultPolicy)
from repro.simio.stats import QueryStats
from repro.ssb.queries import query_by_name
from repro.write.journal import RedoJournal
from repro.write.recovery import CrashHarness, recover_store
from repro.write.store import WriteStore
from tests.write.dml import clone_rows, delete_predicates

Q1_1 = query_by_name("Q1.1")
WRITE_CONFIG = ExecutionConfig(writes=True)

NEW_COUNTERS = ("journal_replay_pages", "recovered_batches",
                "torn_tail_records")


def _columns_equal(left, right):
    for name in sorted(left):
        for col in left[name].columns():
            if not np.array_equal(col.data, right[name].column(col.name).data):
                return False
    return True


# -------------------------------------------------------------------- #
# journal edge cases (the satellite): empty journal, recover twice,
# transient reads during replay
# -------------------------------------------------------------------- #
def test_empty_journal_recovers_clean(wdata):
    engine = CStore(wdata)
    stats = QueryStats()
    report = engine.recover(stats=stats)
    assert report.clean
    assert report.records_scanned == 0
    assert report.epoch == 0
    for counter in NEW_COUNTERS:
        assert getattr(stats, counter) == 0


def test_recover_on_empty_write_store_journal(wdata):
    # an armed write store whose journal holds zero records: replay is a
    # no-op but still walks the (empty) journal cleanly
    ws = WriteStore(dict(wdata.tables))
    store, report = recover_store(ws.journal)
    assert report.clean
    assert store.epoch == 0
    assert not store.has_pending()


def test_recover_twice_is_idempotent(wdata):
    harness = CrashHarness(
        wdata, crashes=[CrashPolicy(CRASH_AFTER_JOURNAL_APPEND, at=3)])
    rows = clone_rows(wdata.lineorder, 6)
    assert harness.insert("lineorder", rows[:3]) == 3
    assert harness.delete("lineorder", delete_predicates()) > 0
    assert harness.insert("lineorder", rows[3:]) is None  # crash fired
    first = harness.crash_and_recover()
    once = harness.engine.snapshot_tables()
    epoch_once = harness.engine._writes.epoch
    # recover again from the already-truncated journal: same state, and
    # nothing left to truncate
    second = harness.engine.recover(
        harness.engine._writes.journal, harness.committed_lsn)
    assert second.torn_tail_records == 0
    assert second.records_scanned == \
        first.records_scanned - first.torn_tail_records
    assert harness.engine._writes.epoch == epoch_once
    assert _columns_equal(once, harness.engine.snapshot_tables())


def test_replay_retries_transient_journal_reads(wdata):
    # the restart injector keeps fault policies (budgets re-armed), so
    # replay itself hits transient reads and retries through them
    harness = CrashHarness(
        wdata, seed=11,
        crashes=[CrashPolicy(CRASH_AFTER_JOURNAL_APPEND, at=2)],
        policies=[FaultPolicy(file_glob="journal.redo",
                              transient_rate=1.0,
                              max_transient_failures=2)])
    rows = clone_rows(wdata.lineorder, 6)
    assert harness.insert("lineorder", rows[:3]) == 3
    assert harness.insert("lineorder", rows[3:]) is None  # crash fired
    stats = QueryStats()
    report = harness.crash_and_recover(stats=stats)
    assert report.recovered_batches == 1
    assert stats.io_retries > 0
    assert stats.retry_backoff_us > 0
    assert stats.journal_replay_pages > 0
    run = harness.engine.execute(Q1_1, WRITE_CONFIG)
    expected = reference_execute(
        harness.reference_store().effective_tables(), Q1_1).rows
    assert run.result.rows == expected


# -------------------------------------------------------------------- #
# torn tails and committed-LSN enforcement
# -------------------------------------------------------------------- #
def test_crash_after_append_truncates_unacked_tail(wdata):
    harness = CrashHarness(
        wdata, crashes=[CrashPolicy(CRASH_AFTER_JOURNAL_APPEND, at=2)])
    rows = clone_rows(wdata.lineorder, 6)
    assert harness.insert("lineorder", rows[:3]) == 3
    # the second batch reaches the journal but is never acknowledged
    assert harness.insert("lineorder", rows[3:]) is None
    journal = harness.engine._writes.journal
    assert journal.records == 2
    assert harness.committed_lsn == 1
    stats = QueryStats()
    report = harness.crash_and_recover(stats=stats)
    assert report.records_scanned == 2
    assert report.recovered_batches == 1
    assert report.torn_tail_records == 1
    assert stats.torn_tail_records == 1
    assert report.epoch == 1
    # unacked absent: only the acknowledged batch survives
    assert harness.engine._writes.pending_rows() == 3
    # the torn tail was physically truncated: the journal now holds
    # exactly the committed prefix
    assert harness.engine._writes.journal.records == 1


def test_crash_before_append_loses_nothing(wdata):
    harness = CrashHarness(
        wdata, crashes=[CrashPolicy(CRASH_BEFORE_JOURNAL_APPEND, at=2)])
    rows = clone_rows(wdata.lineorder, 6)
    assert harness.insert("lineorder", rows[:3]) == 3
    assert harness.insert("lineorder", rows[3:]) is None
    report = harness.crash_and_recover()
    # the crashed batch never reached the journal: no torn tail at all
    assert report.records_scanned == 1
    assert report.torn_tail_records == 0
    assert report.recovered_batches == 1
    assert harness.engine._writes.pending_rows() == 3


def test_missing_committed_record_raises_typed(wdata):
    ws = WriteStore(dict(wdata.tables))
    ws.insert("lineorder", clone_rows(wdata.lineorder, 3), QueryStats())
    ws.insert("lineorder", clone_rows(wdata.lineorder, 2), QueryStats())
    # simulate losing the whole journal tail below an acknowledged LSN
    ws.journal.truncate_pages(0)
    with pytest.raises(JournalTornError, match="LSN 2 was acknowledged"):
        recover_store(ws.journal, committed_lsn=2)


def test_write_store_recover_classmethod(wdata):
    ws = WriteStore(dict(wdata.tables))
    ws.insert("lineorder", clone_rows(wdata.lineorder, 4), QueryStats())
    ws.delete("lineorder", delete_predicates(), QueryStats())
    recovered = WriteStore.recover(ws.journal)
    assert recovered.last_recovery.recovered_batches == 2
    assert recovered.epoch == ws.epoch
    assert _columns_equal(ws.effective_tables(),
                          recovered.effective_tables())


# -------------------------------------------------------------------- #
# move crash points: shadow discard vs roll-forward
# -------------------------------------------------------------------- #
def test_mid_move_shadow_crash_discards_shadow(wdata):
    harness = CrashHarness(
        wdata, crashes=[CrashPolicy(CRASH_MID_MOVE_SHADOW)])
    rows = clone_rows(wdata.lineorder, 6)
    assert harness.insert("lineorder", rows) == 6
    pending = harness.engine._writes.pending_rows()
    assert harness.move() is None  # crash fired mid-shadow
    report = harness.crash_and_recover()
    # no move record ever reached the journal: the shadow is garbage,
    # the delta is still pending, nothing rolled forward
    assert report.moves_rolled_forward == 0
    assert report.horizon == 0
    assert harness.engine._writes.pending_rows() == pending


def test_before_move_swap_crash_discards_shadow(wdata):
    harness = CrashHarness(
        wdata, crashes=[CrashPolicy(CRASH_BEFORE_MOVE_SWAP)])
    rows = clone_rows(wdata.lineorder, 6)
    assert harness.insert("lineorder", rows) == 6
    assert harness.move() is None
    report = harness.crash_and_recover()
    assert report.moves_rolled_forward == 0
    assert harness.engine._writes.pending_rows() == 6


def test_after_move_swap_crash_rolls_forward(wdata):
    harness = CrashHarness(
        wdata, crashes=[CrashPolicy(CRASH_AFTER_MOVE_SWAP)])
    rows = clone_rows(wdata.lineorder, 6)
    assert harness.insert("lineorder", rows) == 6
    expected = reference_execute(
        harness.engine._writes.effective_tables(), Q1_1).rows
    # the move record is durable — the swap's commit point — but the
    # rebuilt pages and the in-memory swap died with the process
    assert harness.move() is None
    report = harness.crash_and_recover()
    assert report.moves_rolled_forward == 1
    assert report.horizon == 1
    assert harness.engine._writes.pending_rows() == 0
    # the roll-forward rebuilt base storage at the recovered epoch: the
    # read-only path answers exactly the pre-crash effective rows
    run = harness.engine.execute(Q1_1, ExecutionConfig.baseline())
    assert run.result.rows == expected


def test_crash_points_fire_exactly_once(wdata):
    injector = FaultInjector(
        0, [], crashes=[CrashPolicy(CRASH_BEFORE_JOURNAL_APPEND, at=1)])
    assert injector.take_crash(CRASH_BEFORE_JOURNAL_APPEND)
    assert not injector.take_crash(CRASH_BEFORE_JOURNAL_APPEND)
    assert not injector.crash_pending()


# -------------------------------------------------------------------- #
# the contention gate (the satellite's unit half)
# -------------------------------------------------------------------- #
def test_reentrant_batch_raises_contention(wdata):
    ws = WriteStore(dict(wdata.tables))
    rows = clone_rows(wdata.lineorder, 2)
    assert ws._apply_lock.acquire(blocking=False)
    try:
        with pytest.raises(WriteContentionError, match="mid-application"):
            ws.insert("lineorder", rows, QueryStats())
        with pytest.raises(WriteContentionError):
            ws.delete("lineorder", delete_predicates(), QueryStats())
    finally:
        ws._apply_lock.release()
    # once the in-flight batch finishes, the same writes are accepted
    assert ws.insert("lineorder", rows, QueryStats()) == 2


def test_concurrent_store_writers_see_typed_contention(wdata):
    # two raw threads race the un-serialized store: every batch either
    # lands atomically or raises the typed contention error — never a
    # partial or corrupted application
    ws = WriteStore(dict(wdata.tables))
    rows = clone_rows(wdata.lineorder, 20)
    outcomes = []
    barrier = threading.Barrier(2)

    def writer(batch):
        barrier.wait()
        for _ in range(20):
            try:
                outcomes.append(ws.insert("lineorder", batch,
                                          QueryStats()))
            except WriteContentionError:
                outcomes.append("contended")

    threads = [threading.Thread(target=writer, args=(rows[:10],)),
               threading.Thread(target=writer, args=(rows[10:],))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    applied = [o for o in outcomes if o == 10]
    assert len(applied) + outcomes.count("contended") == 40
    assert ws.pending_rows() == 10 * len(applied)
    assert ws.epoch == len(applied)
