"""Service-level recovery and write robustness: ``service.recover()``
replays every engine under the DML lock, the auto tuple-mover policy
(``ExecutionConfig.move_threshold_rows``) drains the delta mid-serve,
and concurrent DML through the service serializes instead of raising
:class:`~repro.errors.WriteContentionError`."""

import threading

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import PlanError, WriteContentionError
from repro.reference import execute as reference_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService, ServiceConfig
from repro.ssb.generator import generate
from repro.ssb.queries import query_by_name
from tests.write.dml import clone_rows, delete_predicates

SERVE_SF = 0.004

Q1_1 = query_by_name("Q1.1")


@pytest.fixture(scope="module")
def sdata():
    return generate(SERVE_SF)


@pytest.fixture
def served(sdata):
    cs = CStore(sdata)
    rs = SystemX(sdata, designs=[DesignKind.TRADITIONAL], writes=True)
    with QueryService(cs, rs, config=ServiceConfig(
            breakers=False)) as service:
        yield service, cs, rs


# -------------------------------------------------------------------- #
# service.recover(): every engine replayed, traced, and counted
# -------------------------------------------------------------------- #
def test_recover_replays_every_engine(served, sdata):
    service, cs, rs = served
    deleted = service.delete("lineorder", delete_predicates())
    assert deleted > 0
    expected = reference_execute(cs._writes.effective_tables(), Q1_1).rows
    reports = service.recover()
    assert sorted(reports) == ["cs", "rs"]
    for report in reports.values():
        assert report.recovered_batches == 1
        assert report.trace is not None
        assert report.trace.root.name == "recovery"
    assert cs.pending_writes() == rs.pending_writes() == deleted
    assert service.stats.snapshot()["recoveries"] == 1
    session = service.session("s", engine="cs",
                              config=ExecutionConfig(writes=True))
    assert session.execute(Q1_1).result.rows == expected


def test_recover_on_clean_service_is_noop(served):
    service, _cs, _rs = served
    reports = service.recover()
    assert all(report.clean and report.records_scanned == 0
               for report in reports.values())
    assert service.stats.snapshot()["recoveries"] == 1


# -------------------------------------------------------------------- #
# the auto tuple-mover policy (ExecutionConfig.move_threshold_rows)
# -------------------------------------------------------------------- #
def test_auto_move_drains_delta_over_threshold(served, sdata):
    service, cs, rs = served
    inserted = service.insert("lineorder",
                              clone_rows(sdata.lineorder, 8))
    assert inserted == 8
    assert cs.pending_writes() == rs.pending_writes() == 8
    session = service.session(
        "auto", engine="cs",
        config=ExecutionConfig(writes=True, move_threshold_rows=4))
    expected = reference_execute(cs._writes.effective_tables(), Q1_1).rows
    run = session.execute(Q1_1)
    # the query itself tripped the mover: the delta drained before the
    # scan, and the rows are exactly the snapshot-merge answer
    assert cs.pending_writes() == 0
    assert run.result.rows == expected
    # below the threshold nothing moves
    service.insert("lineorder", clone_rows(sdata.lineorder, 2))
    session.execute(Q1_1)
    assert cs.pending_writes() == 2


def test_auto_move_rowstore_engine_kwarg(sdata):
    rs = SystemX(sdata, designs=[DesignKind.TRADITIONAL], writes=True,
                 move_threshold_rows=4)
    rs.insert("lineorder", clone_rows(sdata.lineorder, 8))
    assert rs.pending_writes() == 8
    expected = reference_execute(rs._writes.effective_tables(), Q1_1).rows
    run = rs.execute(Q1_1, DesignKind.TRADITIONAL)
    assert rs.pending_writes() == 0
    assert run.result.rows == expected


def test_auto_move_without_writes_is_rejected_on_cs():
    # a read that refuses pending writes would never consult the policy
    with pytest.raises(PlanError, match="requires writes"):
        ExecutionConfig(writes=False, move_threshold_rows=4)
    with pytest.raises(PlanError, match=">= 1"):
        ExecutionConfig(writes=True, move_threshold_rows=0)


def test_auto_move_without_writes_is_rejected_on_rs(sdata):
    with pytest.raises(PlanError, match="requires writes"):
        SystemX(sdata, designs=[DesignKind.TRADITIONAL], writes=False,
                move_threshold_rows=1)


# -------------------------------------------------------------------- #
# concurrent DML through the service serializes (no typed contention)
# -------------------------------------------------------------------- #
def test_concurrent_service_dml_serializes(served, sdata):
    service, cs, rs = served
    batches = [clone_rows(sdata.lineorder, 5) for _ in range(6)]
    errors = []
    barrier = threading.Barrier(3)

    def writer(batch):
        barrier.wait()
        try:
            service.insert("lineorder", batch)
        except WriteContentionError as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(b,))
               for b in batches[:3]]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # the service's DML lock serialized the racers: no contention error
    # surfaced and every batch landed atomically on BOTH engines
    assert errors == []
    assert cs.pending_writes() == rs.pending_writes() == 15
    assert cs._writes.epoch == rs._writes.epoch == 3
    expected = reference_execute(cs._writes.effective_tables(), Q1_1).rows
    session = service.session("t", engine="cs",
                              config=ExecutionConfig(writes=True))
    assert session.execute(Q1_1).result.rows == expected
