"""End-to-end tracing: all 13 SSBM queries, both engines, the span
invariant, and the passivity guarantee (traced == untraced ledgers)."""

import dataclasses

import pytest

from repro.core.config import CONFIG_LADDER, ExecutionConfig
from repro.rowstore.designs import DesignKind
from repro.simio.stats import QueryStats
from repro.ssb.queries import ALL_QUERIES, query_by_name


def _assert_invariant(run):
    trace = run.trace
    assert trace is not None
    # independent re-check of what Trace.verify enforced at finish():
    # the self ledgers of all spans sum exactly to the flat ledger
    total = QueryStats()
    for span in trace.root.walk():
        total.merge(span.self_stats())
    assert total.snapshot() == run.stats.snapshot()
    # priced root equals the run's own priced cost
    assert trace.root.cost.total_seconds == pytest.approx(
        run.cost.total_seconds)


@pytest.mark.parametrize("workers", [1, 4])
def test_colstore_all_queries_span_invariant(cstore, workers):
    config = dataclasses.replace(ExecutionConfig.baseline(),
                                 workers=workers)
    for query in ALL_QUERIES:
        run = cstore.execute(query, config)
        _assert_invariant(run)
        names = {s.name for s in run.trace.root.children}
        assert {"phase1:dimension-filter", "phase2:fact-scan",
                "aggregate", "sort"} <= names


def test_colstore_early_materialization_spans(cstore):
    run = cstore.execute(query_by_name("Q2.1"),
                         ExecutionConfig.row_store_like())
    _assert_invariant(run)
    names = {s.name for s in run.trace.root.children}
    assert {"scan:fact-columns", "phase1:dimension-filter",
            "row-pipeline", "aggregate", "sort"} <= names


def test_colstore_ladder_traces(cstore):
    for config in CONFIG_LADDER:
        run = cstore.execute(query_by_name("Q3.2"), config)
        _assert_invariant(run)


def test_row_mv_traces(cstore):
    run = cstore.execute_row_mv(query_by_name("Q1.1"))
    _assert_invariant(run)
    names = {s.name for s in run.trace.root.children}
    assert "scan:row-mv" in names


def test_rowstore_all_queries_all_designs_span_invariant(system_x):
    for design in DesignKind:
        for query in ALL_QUERIES:
            run = system_x.execute(query, design)
            _assert_invariant(run)
            names = {s.name for s in run.trace.root.children}
            assert {"dimension-filter", "pipeline:scan-join-aggregate",
                    "sort"} <= names


def test_rowstore_design_specific_spans(system_x):
    q = query_by_name("Q3.1")
    by_design = {
        DesignKind.TRADITIONAL_BITMAP: "fact-scan:bitmap",
        DesignKind.VERTICAL_PARTITIONING: "fact-scan:vertical-partitions",
        DesignKind.INDEX_ONLY: "fact-scan:index-rid-joins",
    }
    for design, expected in by_design.items():
        run = system_x.execute(q, design)
        assert expected in run.trace.span_names()


def test_colstore_tracing_is_passive(cstore):
    """A planner run with no tracer charges byte-for-byte the same flat
    ledger as the (always traced) engine execution."""
    from repro.colstore.planner import ColumnPlanner

    config = ExecutionConfig.baseline()
    query = query_by_name("Q4.2")
    traced = cstore.execute(query, config).stats.snapshot()
    untraced = QueryStats()
    cstore.disk.stats = untraced
    cstore.pool.clear()
    ColumnPlanner(cstore._context(), config).run(query)
    assert untraced.snapshot() == traced


def test_rowstore_tracing_is_passive(system_x):
    from repro.rowstore.operators import SpillAccountant
    from repro.rowstore.planner import RowPlanner

    query = query_by_name("Q4.2")
    design = DesignKind.TRADITIONAL
    traced = system_x.execute(query, design).stats.snapshot()
    untraced = QueryStats()
    system_x.disk.stats = untraced
    system_x.pool.clear()
    spill = SpillAccountant(system_x.disk, system_x.join_memory_bytes)
    RowPlanner(system_x.pool, system_x.artifacts, system_x.data, spill,
               statistics=system_x.statistics).run(query, design)
    assert untraced.snapshot() == traced


def test_executions_are_deterministic(cstore, system_x):
    """Same query, same engine, same config -> identical ledgers and
    identical span trees (names and per-span snapshots)."""
    query = query_by_name("Q2.3")
    runs = [cstore.execute(query, ExecutionConfig.baseline())
            for _ in range(2)]
    assert runs[0].stats.snapshot() == runs[1].stats.snapshot()
    first, second = (list(r.trace.root.walk()) for r in runs)
    assert [s.name for s in first] == [s.name for s in second]
    for a, b in zip(first, second):
        assert a.stats.snapshot() == b.stats.snapshot()
