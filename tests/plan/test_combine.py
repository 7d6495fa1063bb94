"""``repro.plan.combine``: the partial-aggregate combiner behind the WOS
merge read, driven through merge reads on both engines.

A merge read answers one query from the base store and the write
store's delta.  Each side returns a partial of the rewritten query, and
the gather must give exactly the oracle's rows over the effective
tables: AVG scattered as SUM+COUNT (never averaged per side), scalar
MIN/MAX that ignore an *empty* side's 0-normalized extreme, grouped AVG
beside other aggregates, and the canonical group order when there is no
ORDER BY.  Three write states: both sides non-empty, the base side empty
for the year-1997 rows with the WOS holding some, and the reverse.
"""

from dataclasses import replace

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.plan.combine import ROWS_ALIAS, partial_plan
from repro.plan.logical import ColumnRef, RangePredicate
from repro.reference import execute as reference_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.stats import QueryStats
from repro.sql import parse_query
from repro.ssb.generator import generate
from repro.write.store import WriteStore
from tests.write.dml import clone_rows, write_mix

SQL = (
    # AVG must be scattered as SUM+COUNT, never averaged per side
    "SELECT avg(lo.revenue) AS a FROM lineorder AS lo",
    # scalar MIN/MAX over one year: in the one-sided states one side has
    # no 1997 rows, and its 0-normalized extremes must not win the merge
    "SELECT min(lo.revenue) AS lo_r, max(lo.revenue) AS hi_r, "
    "count(*) AS n FROM lineorder AS lo, date AS d "
    "WHERE lo.orderdate = d.datekey AND d.year = 1997",
    # grouped AVG alongside other aggregates
    "SELECT d.year, avg(lo.discount) AS a, sum(lo.revenue) AS s "
    "FROM lineorder AS lo, date AS d WHERE lo.orderdate = d.datekey "
    "GROUP BY d.year ORDER BY d.year",
    # grouped, no ORDER BY: the gather's canonical order must match the
    # single-stack engines' canonical order
    "SELECT d.year, count(*) AS n FROM lineorder AS lo, date AS d "
    "WHERE lo.orderdate = d.datekey GROUP BY d.year",
)
SQL_IDS = ("avg", "min-max-1997", "grouped-avg", "grouped-unordered")
MIN_MAX_1997 = parse_query(SQL[1])

YEAR_1997 = [RangePredicate(ColumnRef("lineorder", "orderdate"),
                            19970101, 19971231)]
CS_CONFIG = replace(ExecutionConfig.baseline(), writes=True)


@pytest.fixture(scope="module")
def data():
    return generate(0.004)


def _rows_of_year(data, year):
    dates = data.lineorder.column("orderdate").data
    lo, hi = year * 10000 + 101, year * 10000 + 1231
    return [int(i) for i in ((dates >= lo) & (dates <= hi)).nonzero()[0]]


def _writes(data, state):
    """``[(op, table, argument)]`` for one write state."""
    if state == "both":
        # the standard mix's clones all fall in 1992: add some 1997 ones
        inserts, predicates = write_mix(data)
        inserts += clone_rows(data.lineorder,
                              indices=_rows_of_year(data, 1997)[:20])
        return [("insert", "lineorder", inserts),
                ("delete", "lineorder", predicates)]
    if state == "base-empty":
        # every base 1997 row deleted, then 1997 clones buffered
        clones = clone_rows(data.lineorder,
                            indices=_rows_of_year(data, 1997)[:40])
        return [("delete", "lineorder", YEAR_1997),
                ("insert", "lineorder", clones)]
    # "wos-empty": the WOS holds 1998 rows only
    clones = clone_rows(data.lineorder,
                        indices=_rows_of_year(data, 1998)[:40])
    return [("insert", "lineorder", clones)]


def _apply(target, writes, stats=None):
    for op, table, argument in writes:
        if stats is None:
            getattr(target, op)(table, argument)
        else:
            getattr(target, op)(table, argument, stats)


@pytest.fixture(scope="module", params=("both", "base-empty", "wos-empty"))
def state(request, data):
    """(state, cs, rs, mirror): both engines and a mirror write store
    holding the same pending writes."""
    writes = _writes(data, request.param)
    cs = CStore(data)
    rs = SystemX(data, designs=[DesignKind.TRADITIONAL], writes=True)
    mirror = WriteStore(dict(data.tables))
    for target in (cs, rs):
        _apply(target, writes)
    _apply(mirror, writes, QueryStats())
    return request.param, cs, rs, mirror


def test_states_have_the_sides_they_claim(state):
    """The year-1997 MIN/MAX query finds rows on exactly the sides the
    state names (so the one-sided cases really merge an empty side)."""
    name, _cs, _rs, mirror = state
    spec = partial_plan(MIN_MAX_1997)
    effective = reference_execute(mirror.effective_tables(),
                                  spec.partial_query).rows[0]
    delta = reference_execute(mirror.visibility().delta_tables(),
                              spec.partial_query).rows[0]
    total, in_wos = effective[spec.rows_pos], delta[spec.rows_pos]
    assert total > 0
    assert {"both": 0 < in_wos < total,
            "base-empty": in_wos == total,
            "wos-empty": in_wos == 0}[name]


@pytest.mark.parametrize("sql", SQL, ids=SQL_IDS)
@pytest.mark.parametrize("engine", ("cs", "rs"))
def test_merge_read_matches_oracle(state, engine, sql):
    _name, cs, rs, mirror = state
    query = parse_query(sql)
    if engine == "cs":
        run = cs.execute(query, CS_CONFIG)
    else:
        run = rs.execute(query, DesignKind.TRADITIONAL)
    expected = reference_execute(mirror.effective_tables(), query)
    assert run.stats.delta_rows_merged > 0  # a merge read, not a base read
    assert run.result.rows == expected.rows
    assert list(run.result.columns) == list(expected.columns)


def test_partial_plan_rewrites_avg_and_guards_min_max():
    avg = partial_plan(parse_query(SQL[0]))
    assert [(a.func, a.alias) for a in avg.partial_query.aggregates] == \
        [("sum", "__partial_0_sum"), ("count", "__partial_0_cnt")]
    assert avg.cells == (("avg", 0, 1),) and avg.rows_pos is None
    spec = partial_plan(MIN_MAX_1997)
    assert spec.partial_query.aggregates[spec.rows_pos].alias == ROWS_ALIAS
    grouped = partial_plan(parse_query(SQL[2]))
    assert grouped.rows_pos is None  # a group is never empty
    assert grouped.partial_query.order_by == ()
