"""ORDER BY ... LIMIT through ties: every engine returns the oracle's
rows, in the oracle's order.

The tie rule: rows equal on every ORDER BY key come out in ascending
group-key order, so a LIMIT that cuts through a tie keeps the same rows
on every engine, design and configuration.  The row store used to emit
its groups in first-seen batch order and so kept different rows.  The
property draws ORDER BY/LIMIT SQL over small count/min/max/avg domains,
where ties are the rule, and runs it through both engines, every design
that can plan it, and every column-store label.
"""

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import PlanError
from repro.reference import execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.sql import parse_query
from repro.ssb.generator import generate

#: every label ExecutionConfig accepts (an invisible join needs late
#: materialization)
CONFIGS = [ExecutionConfig.from_label(t + i + c + m)
           for t, i, c, m in product("tT", "iI", "cC", "lL")
           if not (i == "I" and m == "l")]

TIE_SQL = """
    SELECT c.nation, d.year, COUNT(lo.revenue) AS n
    FROM customer AS c, lineorder AS lo, date AS d
    WHERE lo.custkey = c.custkey AND lo.orderdate = d.datekey
      AND lo.quantity < 3
    GROUP BY c.nation, d.year ORDER BY n DESC LIMIT 7;
"""

#: (alias, table, join condition, group columns with distinct names)
DIMENSIONS = (
    ("c", "customer", "lo.custkey = c.custkey", ("nation", "region")),
    ("s", "supplier", "lo.suppkey = s.suppkey", ("city",)),
    ("d", "date", "lo.orderdate = d.datekey", ("year", "monthnuminyear")),
    ("p", "part", "lo.partkey = p.partkey", ("mfgr", "category")),
)
#: (SQL aggregate, alias) over small domains, so values tie
AGGREGATES = (
    ("COUNT(lo.revenue)", "n"),
    ("MIN(lo.quantity)", "lo_q"),
    ("MAX(lo.discount)", "hi_d"),
    ("AVG(lo.discount)", "avg_d"),
    ("SUM(lo.tax)", "tax"),
)


@pytest.fixture(scope="module")
def env():
    data = generate(0.004, seed=1)
    return data, SystemX(data, designs=list(DesignKind)), CStore(data)


def _runs(env, query):
    """(design or config, result) for every way that plans ``query``."""
    _data, system_x, cstore = env
    for design in DesignKind:
        try:
            run = system_x.execute(query, design)
        except PlanError:
            continue  # a materialized view covers only its own queries
        yield design.value, run.result
    for config in CONFIGS:
        yield config, cstore.execute(query, config).result


def test_order_by_limit_through_a_tie_matches_the_oracle(env):
    query = parse_query(TIE_SQL)
    expected = execute(env[0].tables, query)
    # the cut falls inside a tie of 11s, and two 12s tie above it
    assert [row[2] for row in expected.rows] == [14, 13, 12, 12, 11, 11, 11]
    assert expected.rows[-1] == ("MOZAMBIQUE", 1995, 11)
    names = []
    for name, result in _runs(env, query):
        names.append(name)
        assert result.rows == expected.rows, name
    assert {"T", "T(B)", "VP", "AI"} <= set(names)


@st.composite
def order_limit_sql(draw):
    dims = draw(st.lists(st.sampled_from(DIMENSIONS), min_size=1,
                         max_size=2, unique=True))
    group = [f"{alias}.{column}" for alias, _t, _j, columns in dims
             for column in draw(st.lists(st.sampled_from(columns),
                                         min_size=1, unique=True))]
    aggs = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                         max_size=3, unique=True))
    keys = [g.split(".")[1] for g in group] + [alias for _s, alias in aggs]
    order = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                          unique=True))
    order_sql = ", ".join(f"{key} {draw(st.sampled_from(['ASC', 'DESC']))}"
                          for key in order)
    limit = draw(st.integers(1, 12))
    select = ", ".join(group + [f"{sql} AS {alias}" for sql, alias in aggs])
    tables = ", ".join(["lineorder AS lo"]
                       + [f"{table} AS {alias}"
                          for alias, table, _j, _c in dims])
    where = " AND ".join([join for _a, _t, join, _c in dims]
                         + [f"lo.quantity < {draw(st.integers(2, 50))}"])
    return (f"SELECT {select} FROM {tables} WHERE {where} "
            f"GROUP BY {', '.join(group)} ORDER BY {order_sql} "
            f"LIMIT {limit};")


@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sql=order_limit_sql())
def test_generated_order_by_limit_property_matches_the_oracle(env, sql):
    query = parse_query(sql)
    expected = execute(env[0].tables, query)
    for name, result in _runs(env, query):
        assert result.rows == expected.rows, (name, sql)
