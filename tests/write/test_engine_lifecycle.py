"""One write / merge / move / recover lifecycle, driven once for both
engines.

``CStore`` and ``SystemX`` inherit the whole lifecycle from
:class:`repro.core.lifecycle.EngineShell`; this suite walks it end to
end — insert → merge read → delete → automatic move → manual move →
recover — on each engine through the same steps, checking rows against
the reference oracle, every trace against its ledger, and that the same
write-side counters move on both.
"""

from dataclasses import replace

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.core.lifecycle import EngineShell
from repro.errors import WriteError
from repro.reference import execute as reference_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.stats import QueryStats
from repro.ssb.queries import query_by_name
from repro.storage.colfile import CompressionLevel
from tests.write.dml import clone_rows, delete_predicates

QUERIES = [query_by_name(name) for name in ("Q1.1", "Q2.1", "Q3.1", "Q4.1")]
CS_CONFIG = replace(ExecutionConfig.baseline(), writes=True)

LIFECYCLE = ("insert", "delete", "move", "recover", "pending_writes",
             "snapshot_tables", "storage_bytes", "_write_store",
             "_execute_routed", "_execute_merge",
             "_rebuild_from_effective")


class Driver:
    """One engine plus how to read from it and set its mover policy."""

    def __init__(self, kind, data, writes=True):
        self.kind = kind
        if kind == "cs":
            self.engine = CStore(data, levels=(CompressionLevel.MAX,))
            self.config = replace(CS_CONFIG, writes=writes)
        else:
            self.engine = SystemX(data, designs=[DesignKind.TRADITIONAL],
                                  writes=writes)

    def auto_move_above(self, rows):
        if self.kind == "cs":
            self.config = replace(self.config, move_threshold_rows=rows)
        else:
            self.engine.move_threshold_rows = rows

    def read(self, query):
        if self.kind == "cs":
            return self.engine.execute(query, self.config)
        return self.engine.execute(query, DesignKind.TRADITIONAL)

    def check_reads(self):
        """Every query oracle-equal over the engine's own snapshot, every
        trace summing to its ledger; returns the runs."""
        tables = self.engine.snapshot_tables()
        runs = []
        for query in QUERIES:
            run = self.read(query)
            assert run.result.rows == \
                reference_execute(tables, query).rows, query.name
            run.trace.verify(run.stats)
            runs.append(run)
        return runs


def test_lifecycle_is_inherited_once():
    for name in LIFECYCLE:
        shared = getattr(EngineShell, name)
        assert getattr(CStore, name) is shared, name
        assert getattr(SystemX, name) is shared, name


@pytest.mark.parametrize("kind", ("cs", "rs"))
def test_insert_merge_delete_move_recover(wdata, kind):
    driver = Driver(kind, wdata)
    engine = driver.engine
    rows = clone_rows(wdata.lineorder, 90)

    # insert -> merge read over the pending delta
    ledger = QueryStats()
    assert engine.insert("lineorder", rows[:30], ledger) == 30
    assert ledger.journal_pages > 0
    assert engine.pending_writes() == 30
    for run in driver.check_reads():
        assert run.stats.delta_rows_merged > 0
        assert {"base-store", "wos-merge"} <= set(run.trace.span_names())

    # delete -> base scans patched in place, still merged
    assert engine.delete("lineorder", delete_predicates()) > 0
    driver.check_reads()

    # automatic move: the next read drains the WOS on the mover's own
    # ledger and is then an ordinary base read
    pending = engine.pending_writes()
    driver.auto_move_above(pending - 1)
    run = driver.read(QUERIES[0])
    assert engine.pending_writes() == 0
    assert run.stats.delta_rows_merged == 0
    assert run.stats.moves == 0 and run.stats.journal_pages == 0
    driver.auto_move_above(None)
    driver.check_reads()

    # manual move
    assert engine.insert("lineorder", rows[30:60]) == 30
    ledger = QueryStats()
    assert engine.move(ledger) == 30
    assert ledger.moves == 1
    assert ledger.journal_pages > 0 and ledger.bytes_written > 0
    assert engine.move() == 0  # nothing left to drain
    for run in driver.check_reads():
        assert run.stats.delta_rows_merged == 0

    # cold-start recovery replays only the journal's tail onto the last
    # move's checkpoint: moved rows and the un-moved tail both survive
    assert engine.insert("lineorder", rows[60:]) == 30
    before = engine.snapshot_tables()["lineorder"].num_rows
    ledger = QueryStats()
    report = engine.recover(stats=ledger)
    assert ledger.journal_replay_pages == report.replay_pages > 0
    assert report.records_scanned == report.recovered_batches == 1
    assert report.moves_rolled_forward == 0  # both moves checkpointed
    assert engine.pending_writes() == 30
    assert engine.snapshot_tables()["lineorder"].num_rows == before
    driver.check_reads()


@pytest.mark.parametrize("kind", ("cs", "rs"))
def test_merge_blind_read_is_refused_typed(wdata, kind):
    driver = Driver(kind, wdata, writes=False)
    driver.engine.insert("lineorder", clone_rows(wdata.lineorder, 1))
    with pytest.raises(WriteError, match="pending writes") as refused:
        driver.read(QUERIES[0])
    # one refusal, worded once, whichever engine raised it
    assert "ExecutionConfig.writes" in str(refused.value)
    assert "SystemX(writes=)" in str(refused.value)
    # the mover clears the condition without any opt-in
    assert driver.engine.move() == 1
    driver.check_reads()
