"""Service-layer writes: every attached engine mutates in lockstep,
cached results touching the written table are evicted, the cache is
bypassed while a delta is pending, and SQL DML dispatches through
``execute_sql``."""

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import ReproError, SqlParseError
from repro.reference import execute as reference_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService, ServiceConfig
from repro.sql import parser
from repro.ssb.generator import generate
from repro.ssb.queries import query_by_name
from repro.write.journal import JOURNAL_FILE
from tests.write.dml import clone_rows, delete_predicates

SERVE_SF = 0.004

Q1_1 = query_by_name("Q1.1")
Q3_1 = query_by_name("Q3.1")


@pytest.fixture(scope="module")
def sdata():
    return generate(SERVE_SF)


@pytest.fixture
def served(sdata):
    cs = CStore(sdata)
    rs = SystemX(sdata, designs=list(DesignKind), writes=True)
    with QueryService(cs, rs, config=ServiceConfig(
            cache=True, cache_admit_seconds=0.0,
            breakers=False)) as service:
        yield service, cs, rs


def _sessions(service):
    return (service.session("c", engine="cs",
                            config=ExecutionConfig(writes=True)),
            service.session("r", engine="rs"))


def test_writes_apply_to_every_engine(served):
    service, cs, rs = served
    deleted = service.delete("lineorder", delete_predicates())
    assert deleted > 0
    assert cs.pending_writes() == rs.pending_writes() == deleted
    moved = service.move()
    assert moved == deleted
    assert cs.pending_writes() == rs.pending_writes() == 0
    snap = service.stats.snapshot()
    assert snap["writes"] == 1 and snap["moves"] == 1


def test_diverged_engines_are_a_typed_error(served, sdata):
    service, cs, _rs = served
    # a direct write to one engine bypasses the service and diverges
    # the stores; the next service write must refuse, not mask it
    cs.delete("lineorder", delete_predicates())
    with pytest.raises(ReproError, match="diverged"):
        service.delete("lineorder", delete_predicates())


def test_invalidate_evicts_written_table_only(served, sdata):
    service, _cs, _rs = served
    s_cs, _s_rs = _sessions(service)
    assert s_cs.execute(Q1_1).source == "engine"  # {lineorder, date}
    assert s_cs.execute(Q3_1).source == "engine"  # + customer, supplier
    assert s_cs.execute(Q1_1).source == "cache-exact"
    before = service.cache.snapshot()
    service.insert("customer",
                   clone_rows(sdata.customer, 1, custkey=900001))
    after = service.cache.snapshot()
    # every entry touching customer fell (Q3.1's result); the Q1.1
    # entry was left alone
    victims = after["invalidations"] - before["invalidations"]
    assert victims > 0
    assert after["entries"] == before["entries"] - victims
    service.move()  # drain so reads leave the bypass path
    # the Q1.1 entry (no customer in scope) survived both the
    # invalidation and the move; the Q3.1 entry is gone
    assert s_cs.execute(Q1_1).source == "cache-exact"
    assert s_cs.execute(Q3_1).source == "engine"
    # the surviving entry's hit counter kept counting across the write
    assert service.stats.snapshot()["exact_hits"] >= 2


def test_cache_bypassed_while_delta_pending(served, sdata):
    service, cs, _rs = served
    s_cs, s_rs = _sessions(service)
    s_cs.execute(Q1_1)
    assert s_cs.execute(Q1_1).source == "cache-exact"
    deleted = service.delete("lineorder", delete_predicates())
    assert deleted > 0
    run_cs = s_cs.execute(Q1_1)
    run_rs = s_rs.execute(Q1_1)
    # merge-blind cache paths are all bypassed; both engines answer
    # from the snapshot merge and agree with the reference
    assert run_cs.source == "engine"
    assert run_rs.source == "engine"
    expected = reference_execute(cs._writes.effective_tables(),
                                 Q1_1).rows
    assert run_cs.result.rows == run_rs.result.rows == expected
    assert s_cs.execute(Q1_1).source == "engine"  # still bypassed
    moved = service.move()
    assert moved == deleted
    post = s_cs.execute(Q1_1)
    assert post.source == "engine"  # lineorder entries were evicted
    assert post.result.rows == expected
    assert s_cs.execute(Q1_1).source == "cache-exact"  # re-enabled


def test_execute_sql_dispatches_dml(served, sdata):
    service, cs, rs = served
    s_cs, _s_rs = _sessions(service)
    deleted = service.execute_sql(
        "DELETE FROM lineorder WHERE quantity < 3")
    assert deleted > 0
    assert cs.pending_writes() == rs.pending_writes() == deleted
    assert service.move() == deleted
    row = clone_rows(sdata.customer, 1, custkey=900002)[0]
    columns = ", ".join(row)
    values = ", ".join(
        str(v) if isinstance(v, int) else f"'{v}'" for v in row.values())
    assert service.execute_sql(
        f"INSERT INTO customer ({columns}) VALUES ({values})") == 1
    assert cs.pending_writes() == rs.pending_writes() == 1
    run = s_cs.execute_sql(
        "SELECT sum(lo.extendedprice * lo.discount) AS revenue "
        "FROM lineorder AS lo, date AS d "
        "WHERE lo.orderdate = d.datekey AND d.year = 1993 "
        "AND lo.discount BETWEEN 1 AND 3 AND lo.quantity < 25")
    assert run.source == "engine" and run.result.rows
    snap = service.stats.snapshot()
    assert snap["writes"] == 2 and snap["moves"] == 1


def _journal_pages(engine):
    journal = engine._write_store().journal
    return list(journal.disk.file(JOURNAL_FILE).pages)


def test_sql_insert_journals_the_token_path_bytes(sdata, monkeypatch):
    rows = clone_rows(sdata.lineorder, 100)
    columns = ", ".join(rows[0])
    sql = f"INSERT INTO lineorder ({columns}) VALUES " + ", ".join(
        "(" + ", ".join(str(v) if isinstance(v, int) else f"'{v}'"
                        for v in row.values()) + ")"
        for row in rows) + ";"
    pages = []
    for scan in (parser._scan_insert, lambda _sql: None):
        monkeypatch.setattr(parser, "_scan_insert", scan)
        cs = CStore(sdata)
        rs = SystemX(sdata, designs=[DesignKind.TRADITIONAL], writes=True)
        with QueryService(cs, rs) as service:
            assert service.execute_sql(sql) == 100
        pages.append((_journal_pages(cs), _journal_pages(rs)))
    assert pages[0][0] and pages[0][0] == pages[0][1]
    assert pages[0] == pages[1]


def test_over_long_integer_literal_is_typed_through_execute_sql(served):
    service, cs, rs = served
    with pytest.raises(SqlParseError,
                       match="integer literal of 5000 digits is too long"):
        service.execute_sql(
            "INSERT INTO part (partkey) VALUES (" + "9" * 5000 + ");")
    assert cs.pending_writes() == rs.pending_writes() == 0
