"""Histogram and selectivity-estimation tests (+ properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.logical import (
    ColumnRef,
    CompareOp,
    Comparison,
    InSet,
    RangePredicate,
)
from repro.rowstore.statistics import (
    CatalogStatistics,
    Histogram,
    TableStatistics,
)
from repro.ssb import query_by_name
from repro.storage.column import Column
from repro.storage.table import Table
from repro.types import int32


def test_histogram_empty():
    h = Histogram.build(np.zeros(0, dtype=np.int64))
    assert h.num_rows == 0
    assert h.estimate_range(0, 100) == 0.0
    assert h.estimate_eq(5) == 0.0


def test_histogram_uniform_range():
    h = Histogram.build(np.arange(10_000, dtype=np.int64))
    assert h.estimate_range(0, 9_999) == pytest.approx(1.0, abs=0.01)
    assert h.estimate_range(0, 999) == pytest.approx(0.1, abs=0.02)
    assert h.estimate_range(-100, -1) == 0.0
    assert h.estimate_range(20_000, 30_000) == 0.0


def test_histogram_equality_estimate():
    values = np.repeat(np.arange(10, dtype=np.int64), 1000)
    h = Histogram.build(values)
    assert h.estimate_eq(3) == pytest.approx(0.1, rel=0.5)
    assert h.estimate_eq(99) == 0.0


def test_histogram_skew():
    # 90% of rows hold value 0; a heavy hitter must not break the edges
    values = np.concatenate([np.zeros(9000, dtype=np.int64),
                             np.arange(1, 1001, dtype=np.int64)])
    h = Histogram.build(values)
    assert h.estimate_eq(0) > 0.3
    assert h.estimate_range(1, 1000) < 0.5


def test_table_statistics_predicates(ssb_data):
    stats = TableStatistics(ssb_data.supplier)
    region_eq = Comparison(ColumnRef("supplier", "region"), CompareOp.EQ,
                           "ASIA")
    est = stats.estimate_predicate(region_eq)
    assert est == pytest.approx(0.2, rel=0.5)
    nation_in = InSet(ColumnRef("supplier", "nation"),
                      ("CHINA", "JAPAN"))
    assert stats.estimate_predicate(nation_in) == pytest.approx(
        2 / 25, rel=0.6)


def test_catalog_estimates_track_reality(ssb_data):
    stats = CatalogStatistics(ssb_data.tables)
    date_stats = stats.table("date")
    year_range = RangePredicate(ColumnRef("date", "year"), 1992, 1997)
    est = date_stats.estimate_predicate(year_range)
    actual = float((ssb_data.date.column("year").data <= 1997).sum()
                   ) / ssb_data.date.num_rows
    assert est == pytest.approx(actual, abs=0.1)


def test_conjunction_independence(ssb_data):
    stats = TableStatistics(ssb_data.date)
    p1 = Comparison(ColumnRef("date", "year"), CompareOp.EQ, 1994)
    p2 = Comparison(ColumnRef("date", "weeknuminyear"), CompareOp.EQ, 6)
    joint = stats.estimate_conjunction([p1, p2])
    assert joint == pytest.approx(
        stats.estimate_predicate(p1) * stats.estimate_predicate(p2))


def test_planner_orders_by_estimates(system_x):
    """Q4.3 restricts supplier to one nation (1/25) and part to one
    category (1/25) vs customer to a region (1/5): the most selective
    dimensions must be probed first."""
    from repro.rowstore.operators import SpillAccountant
    from repro.rowstore.planner import RowPlanner

    planner = RowPlanner(system_x.pool, system_x.artifacts, system_x.data,
                         SpillAccountant(system_x.disk, 1 << 30),
                         statistics=system_x.statistics)
    order = [dim for dim, _t, _s in
             planner._dim_hash_tables(query_by_name("Q4.3"))]
    assert order.index("supplier") < order.index("customer")
    assert order.index("part") < order.index("customer")


@given(st.lists(st.integers(min_value=-10_000, max_value=10_000),
                min_size=1, max_size=500),
       st.integers(min_value=-10_000, max_value=10_000),
       st.integers(min_value=0, max_value=5_000))
@settings(max_examples=60, deadline=None)
def test_property_range_estimate_bounded(values, lo, span):
    """Equi-depth estimates are within one bucket of the truth."""
    arr = np.asarray(values, dtype=np.int64)
    h = Histogram.build(arr, buckets=16)
    hi = lo + span
    actual = float(((arr >= lo) & (arr <= hi)).sum()) / len(arr)
    estimate = h.estimate_range(lo, hi)
    max_bucket = float(h.counts.max()) / h.num_rows if h.num_rows else 0
    assert abs(estimate - actual) <= 2 * max_bucket + 1e-9


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=300))
@settings(max_examples=60, deadline=None)
def test_property_full_range_is_one(values):
    arr = np.asarray(values, dtype=np.int64)
    h = Histogram.build(arr)
    assert h.estimate_range(int(arr.min()), int(arr.max())) == \
        pytest.approx(1.0, abs=0.02)


def test_in_list_counts_each_value_once(ssb_data):
    stats = TableStatistics(ssb_data.supplier)
    nation = ColumnRef("supplier", "nation")
    twice = stats.estimate_predicate(InSet(nation, ("CHINA", "CHINA")))
    once = stats.estimate_predicate(InSet(nation, ("CHINA",)))
    equal = stats.estimate_predicate(Comparison(nation, CompareOp.EQ,
                                                "CHINA"))
    assert twice == once == equal > 0
    pair = stats.estimate_predicate(InSet(nation, ("CHINA", "JAPAN")))
    assert stats.estimate_predicate(
        InSet(nation, ("JAPAN", "CHINA", "JAPAN", "CHINA"))) == pair


def _serve_sql_queries(data):
    """Every statement of the serving benchmark's statement space."""
    import importlib.util
    import sys
    from pathlib import Path

    from repro.sql import parse_query

    path = Path(__file__).resolve().parents[2] / "benchmarks/e2e/streams.py"
    spec = importlib.util.spec_from_file_location("e2e_streams", path)
    streams = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = streams  # its dataclasses look it up
    spec.loader.exec_module(streams)
    space = streams.StatementSpace(data, 20080609)
    return [parse_query(request.sql) for request in space.statements.values]


def test_analyze_on_demand_is_exact(ssb_data):
    """Statistics are built per table on first use — only dimensions,
    for the planner never estimates the fact table — and every estimate
    and join order is the one eagerly built statistics give."""
    from repro.rowstore.designs import DesignKind
    from repro.rowstore.engine import SystemX
    from repro.rowstore.operators import SpillAccountant
    from repro.rowstore.planner import RowPlanner
    from repro.ssb.queries import all_queries

    designs = [DesignKind.TRADITIONAL, DesignKind.TRADITIONAL_BITMAP,
               DesignKind.MATERIALIZED_VIEWS,
               DesignKind.VERTICAL_PARTITIONING]
    engine = SystemX(ssb_data, designs=designs)
    assert engine.statistics.tables == {}
    for design in designs:
        for query in all_queries():
            engine.execute(query, design)
    lazy = engine.statistics
    assert set(lazy.tables) == set(ssb_data.dimensions())

    eager = CatalogStatistics(ssb_data.tables)
    for name in ssb_data.tables:
        eager.tables[name] = TableStatistics(ssb_data.tables[name])
    queries = list(all_queries()) + _serve_sql_queries(ssb_data)
    checked = 0
    for query in queries:
        for pred in query.predicates:
            assert lazy.table(pred.table).estimate_predicate(pred) == \
                eager.table(pred.table).estimate_predicate(pred)
            checked += 1
    assert checked > 5000

    def join_order(statistics, query):
        planner = RowPlanner(engine.pool, engine.artifacts, ssb_data,
                             SpillAccountant(engine.disk, 1 << 30),
                             statistics=statistics)
        return [(dim, estimate) for dim, _table, estimate
                in planner._dim_hash_tables(query)]

    for query in all_queries():
        assert join_order(lazy, query) == join_order(eager, query)
