"""The cache re-filter and a cold run share one aggregation tail.

``ColumnStoreAdapter.refilter`` answers a query from cached fact
positions by calling the planner's own late-materialization tail
(``ColumnPlanner.aggregate_positions``).  When the cached entry's
predicates equal the requested query's, nothing is re-applied: the
surviving positions are exactly the cold run's, so the tail must return
the cold run's rows *and* charge the cold run's tail ledger — the only
differences allowed are the re-filter's own bookkeeping and where page
requests were served from (the re-filter runs on a warm pool).
"""

from dataclasses import replace

import pytest

from repro.plan.logical import AggExpr, ColumnRef
from repro.serve import QueryService, ServiceConfig
from repro.simio.stats import QueryStats
from repro.ssb.queries import query_by_name

Q1_1 = query_by_name("Q1.1")
Q2_1 = query_by_name("Q2.1")

#: Q1.1's predicates under other outputs: no exact hit, but Q1.1's
#: cached positions subsume them with nothing left to re-apply
SCALAR = replace(Q1_1, name="Q1.1-gross", aggregates=(
    AggExpr("sum", ColumnRef("lineorder", "extendedprice"), "gross"),))
GROUPED = replace(SCALAR, name="Q1.1-by-quantity",
                  group_by=(ColumnRef("lineorder", "quantity"),))
#: dimension group-by: the re-filter gathers attributes through sorted
#: key sets where the planner extracts through the invisible join
GROUPED_BY_DIMENSION = replace(Q2_1, name="Q2.1-top", aggregates=(
    AggExpr("max", ColumnRef("lineorder", "revenue"), "top"),))

#: counters that depend on what the buffer pool already holds
POOL_STATE = {"bytes_read", "pages_read", "seeks", "buffer_hits"} | {
    f"stripe{disk}_{what}" for disk in range(4)
    for what in ("bytes", "seeks")}


def _refiltered(cstore, cached, requested):
    """(served-from-cache run, cold direct run) of ``requested``."""
    config = ServiceConfig(cache_admit_seconds=0.0)
    with QueryService(cstore=cstore, config=config) as service:
        session = service.session(engine="cs")
        assert session.execute(cached).source == "engine"
        served = session.execute(requested)
    assert served.source == "cache-refilter"
    return served, cstore.execute(requested)


@pytest.mark.parametrize("requested", (SCALAR, GROUPED),
                         ids=lambda q: q.name)
def test_refilter_matches_cold_tail_rows_and_ledger(cstore, requested):
    served, cold = _refiltered(cstore, Q1_1, requested)
    assert served.result.rows == cold.result.rows
    served.trace.verify(served.stats)

    refilter = served.trace.find("cache-refilter").stats
    positions = cold.survivors.count
    assert refilter.cache_refiltered_positions == positions > 0
    tail = QueryStats(position_ops=positions,
                      cache_refiltered_positions=positions)
    for span in ("aggregate", "sort"):
        tail.merge(cold.trace.find(span).stats)
    expected, got = tail.snapshot(), refilter.snapshot()
    for counter in sorted(set(expected) - POOL_STATE):
        assert got[counter] == expected[counter], counter
    assert refilter.pages_read + refilter.buffer_hits \
        == tail.pages_read + tail.buffer_hits


def test_refilter_dimension_gather_matches_cold_rows(cstore):
    served, cold = _refiltered(cstore, Q2_1, GROUPED_BY_DIMENSION)
    assert served.result.rows == cold.result.rows
    served.trace.verify(served.stats)
