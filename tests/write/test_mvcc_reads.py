"""The MVCC acceptance bar: after an interleaved insert/delete mix,
all 13 SSBM queries on both engines — with the column store's inert
``shards`` and ``workers`` fields at 1 and 4 — return rows identical to
the reference engine over the effective tables, both before the tuple mover
runs (snapshot merge reads) and after it drains the WOS (rebuilt base
pages)."""

from dataclasses import replace

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.plan.logical import ColumnRef, CompareOp, Comparison
from repro.reference import execute as reference_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.stats import QueryStats
from repro.ssb.queries import ALL_QUERIES, query_by_name
from repro.write.store import WriteStore
from tests.write.dml import clone_rows, write_mix


@pytest.fixture(scope="module")
def oracle(wdata):
    """Reference rows per query over the effective tables of the mix."""
    mirror = WriteStore(dict(wdata.tables))
    inserts, predicates = write_mix(wdata)
    mirror.insert("lineorder", inserts, QueryStats())
    mirror.delete("lineorder", predicates, QueryStats())
    effective = mirror.effective_tables()
    return {q.name: reference_execute(effective, q).rows
            for q in ALL_QUERIES}


def _apply_mix(engine, wdata):
    inserts, predicates = write_mix(wdata)
    engine.insert("lineorder", inserts)
    engine.delete("lineorder", predicates)


@pytest.mark.parametrize("shards,workers",
                         [(1, 1), (1, 4), (4, 1), (4, 4)])
def test_cstore_snapshot_reads_match_reference(wdata, oracle, shards,
                                               workers):
    store = CStore(wdata)
    _apply_mix(store, wdata)
    config = replace(ExecutionConfig.baseline(), writes=True,
                     shards=shards, workers=workers)
    for query in ALL_QUERIES:
        run = store.execute(query, config)
        assert run.result.rows == oracle[query.name], query.name
        assert run.stats.delta_rows_merged > 0, query.name
    pending = store.pending_writes()
    assert store.move() == pending > 0
    assert store.pending_writes() == 0
    for query in ALL_QUERIES:
        run = store.execute(query, config)
        assert run.result.rows == oracle[query.name], query.name
        assert run.stats.delta_rows_merged == 0
        assert run.stats.journal_pages == 0


def test_systemx_snapshot_reads_match_reference(wdata, oracle):
    store = SystemX(wdata, designs=[DesignKind.TRADITIONAL], writes=True)
    _apply_mix(store, wdata)
    for query in ALL_QUERIES:
        run = store.execute(query, DesignKind.TRADITIONAL)
        assert run.result.rows == oracle[query.name], query.name
        assert run.stats.delta_rows_merged > 0, query.name
    pending = store.pending_writes()
    assert store.move() == pending > 0
    assert store.pending_writes() == 0
    for query in ALL_QUERIES:
        run = store.execute(query, DesignKind.TRADITIONAL)
        assert run.result.rows == oracle[query.name], query.name
        assert run.stats.delta_rows_merged == 0


def test_interleaved_cycles_stay_row_identical(wdata):
    """Write → read → move → write again → read → move, engines and a
    mirror WriteStore marching in lockstep with the reference."""
    mirror = WriteStore(dict(wdata.tables))
    cs = CStore(wdata)
    rs = SystemX(wdata, designs=[DesignKind.TRADITIONAL], writes=True)
    config = replace(ExecutionConfig.baseline(), writes=True)
    queries = [query_by_name(n) for n in ("Q1.1", "Q2.1", "Q3.1", "Q4.1")]

    def check():
        effective = mirror.effective_tables()
        for query in queries:
            expected = reference_execute(effective, query).rows
            assert cs.execute(query, config).result.rows == expected, \
                query.name
            assert rs.execute(query,
                              DesignKind.TRADITIONAL).result.rows == \
                expected, query.name

    def apply(op, *args):
        results = {op(engine, *args) for engine in (cs, rs)}
        results.add(op(mirror, *args))
        assert len(results) == 1  # all three agree on rows affected

    inserts, predicates = write_mix(wdata)
    stats = QueryStats()
    apply(lambda t, r: t.insert("lineorder", r, stats)
          if t is mirror else t.insert("lineorder", r), inserts)
    check()
    apply(lambda t, p: t.delete("lineorder", p, stats)
          if t is mirror else t.delete("lineorder", p), predicates)
    check()
    assert cs.move() == rs.move() == mirror.pending_rows() > 0
    mirror.complete_move(mirror.effective_tables())
    check()

    # second round: a dimension insert plus fact rows referencing it
    new_customer = clone_rows(wdata.customer, 1, custkey=900001)
    new_facts = clone_rows(wdata.lineorder, 10, custkey=900001)
    for target in (cs, rs):
        target.insert("customer", new_customer)
        target.insert("lineorder", new_facts)
    mirror.insert("customer", new_customer, stats)
    mirror.insert("lineorder", new_facts, stats)
    check()
    more = [Comparison(ColumnRef("lineorder", "discount"),
                       CompareOp.GT, 8)]
    apply(lambda t, p: t.delete("lineorder", p, stats)
          if t is mirror else t.delete("lineorder", p), more)
    check()
    assert cs.move() == rs.move() == mirror.pending_rows() > 0
    mirror.complete_move(mirror.effective_tables())
    check()
    assert cs.pending_writes() == rs.pending_writes() == 0
