"""Generated crash/restart sequences over both engines: recovery starts
at the last durable move and replays one tail.

Hypothesis draws sequences of fact and dimension inserts and deletes,
tuple moves, crashes at every kill point, cold restarts and second
recoveries in a row, on the column store and on the row store at SF
0.004.  After every recovery:

* the recovered ``snapshot_tables()`` equal
  ``CrashHarness.reference_store()`` — an independent replay of exactly
  the acknowledged operations — at the same epoch;
* replay read no more journal pages than were appended since the last
  durable move — one whose checkpoint was recorded.  A move whose record
  reached the journal but whose process died before the checkpoint is
  committed too, but recovery rolls it forward by replaying the records
  its record follows, so until then those pages count;
* recovering again at once repairs nothing (its report is ``clean``)
  and changes nothing.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.plan.logical import (ColumnRef, CompareOp, Comparison,
                                RangePredicate)
from repro.simio.disk import SimulatedDisk
from repro.simio.faults import CRASH_POINTS, CRASH_PROFILES, CrashPolicy
from repro.simio.stats import QueryStats
from repro.write.journal import JOURNAL_FILE
from repro.write.recovery import CrashHarness
from tests.write.dml import clone_rows

NEW_KEY = 10 ** 6

OPS = st.one_of(
    st.tuples(st.just("insert_fact"), st.integers(0, 2000),
              st.integers(1, 6)),
    st.tuples(st.just("insert_dim"), st.integers(1, 3)),
    st.tuples(st.just("delete_fact"), st.integers(1, 8)),
    st.tuples(st.just("delete_dim"), st.integers(0, 8)),
    st.tuples(st.just("move")),
    st.tuples(st.just("crash"), st.sampled_from(CRASH_POINTS)),
    st.tuples(st.just("recover")),
)


def _same_tables(got, expected):
    assert sorted(got) == sorted(expected)
    for name, table in expected.items():
        assert got[name].num_rows == table.num_rows, name
        for col in table.columns():
            assert np.array_equal(got[name].column(col.name).data,
                                  col.data), (name, col.name)


class Run:
    """One harness, the rows it has written, and the journal pages
    appended since the journal's checkpoint last changed."""

    def __init__(self, data, kind):
        self.data = data
        self.harness = CrashHarness(data, kind=kind)
        self.next_key = NEW_KEY
        self.checkpoint = None
        self.appended = 0

    def journal(self):
        writes = self.harness.engine._writes
        return None if writes is None else writes.journal

    def since_move(self):
        """Pages appended since the last durable move."""
        journal = self.journal()
        if journal is not None and journal.checkpoint is not self.checkpoint:
            self.checkpoint, self.appended = journal.checkpoint, 0
        return self.appended

    def note_append(self, disk, payload):
        journal = self.journal()
        if journal is None or disk is not journal.disk:
            return  # another store's journal (the reference replay)
        self.appended = self.since_move() + 1

    def write(self, op):
        harness, kind = self.harness, op[0]
        if kind == "insert_fact":
            _kind, start, count = op
            harness.insert("lineorder", clone_rows(
                self.data.lineorder, indices=range(start, start + count)))
        elif kind == "insert_dim":
            rows = clone_rows(self.data.supplier, op[1])
            for row in rows:
                row["suppkey"] = self.next_key
                self.next_key += 1
            harness.insert("supplier", rows)
        elif kind == "delete_fact":
            harness.delete("lineorder", [Comparison(
                ColumnRef("lineorder", "quantity"), CompareOp.LT, op[1])])
        elif kind == "delete_dim":
            low = NEW_KEY + op[1]
            harness.delete("supplier", [RangePredicate(
                ColumnRef("supplier", "suppkey"), low, low + 2)])
        else:
            harness.move()

    def crash(self, point):
        harness = self.harness
        if point in CRASH_PROFILES["move"]:
            if harness.engine.pending_writes() == 0:
                self.write(("insert_fact", 0, 2))
            harness.injector.crashes = (CrashPolicy(point, at=1),)
            assert harness.move() is None
        else:
            harness.injector.crashes = (CrashPolicy(point, at=1),)
            self.write(("insert_fact", 100, 3))
        assert harness.crashed is not None
        self.recover()

    def recover(self):
        harness = self.harness
        bound = self.since_move()
        stats = QueryStats()
        harness.crash_and_recover(stats=stats)
        assert stats.journal_replay_pages <= bound
        reference = harness.reference_store()
        _same_tables(harness.engine.snapshot_tables(),
                     reference.effective_tables())
        assert harness.engine.write_epoch == reference.epoch
        once = harness.engine.snapshot_tables()
        again = harness.engine.recover(self.journal(),
                                       harness.committed_lsn)
        assert again.clean, again.render()
        _same_tables(harness.engine.snapshot_tables(), once)


def every_kill_point(test):
    """Pin one example per kill point and engine: a moved history, a
    tail, the crash, and a restart."""
    for kind in ("cs", "rs"):
        for point in CRASH_POINTS:
            test = example(kind=kind, ops=[
                ("insert_fact", 0, 3), ("delete_fact", 2), ("move",),
                ("insert_dim", 2), ("crash", point), ("recover",)])(test)
    return test


@settings(max_examples=max(25, settings().max_examples // 10),
          deadline=None)
@every_kill_point
@given(kind=st.sampled_from(("cs", "rs")),
       ops=st.lists(OPS, min_size=1, max_size=10))
def test_checkpoint_recovery_lattice(wdata, kind, ops):
    run = Run(wdata, kind)
    real_append = SimulatedDisk.append_page

    def recording(disk, name, payload):
        page_no = real_append(disk, name, payload)
        if name == JOURNAL_FILE:
            run.note_append(disk, payload)
        return page_no

    with mock.patch.object(SimulatedDisk, "append_page", recording):
        for op in ops:
            if op[0] == "crash":
                run.crash(op[1])
            elif op[0] == "recover":
                run.recover()
            else:
                run.write(op)
        run.recover()
