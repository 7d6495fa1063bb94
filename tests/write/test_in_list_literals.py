"""An IN-list literal no stored integer can equal matches nothing.

``quantity`` is stored as int32, so ``99999999999999999999`` (beyond
even int64) can equal no row: ``IN (1, <that>)`` must answer exactly as
``IN (1)`` on every engine, the oracle and the write path, instead of
raising an untyped ``OverflowError`` while building the needle array.
"""

import pytest

from repro.colstore.engine import CStore
from repro.reference import execute as ref_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService
from repro.sql import parse_query

HUGE = 99999999999999999999
SELECT = ("SELECT lo.discount, sum(lo.revenue) AS r FROM lineorder AS lo "
          "WHERE lo.quantity IN ({}) GROUP BY lo.discount "
          "ORDER BY lo.discount")
#: one value just past int32, one past int64
WIDE = f"1, 2147483648, {HUGE}"


def test_select_oracle_and_column_store(ssb_data, cstore):
    narrow = parse_query(SELECT.format("1"))
    wide = parse_query(SELECT.format(WIDE))
    expected = ref_execute(ssb_data.tables, narrow)
    assert expected.rows
    assert ref_execute(ssb_data.tables, wide).same_rows(expected)
    assert cstore.execute(wide).result.same_rows(expected)


#: the designs that answer this query at all: the materialized views
#: cover only the 13 SSB queries, and index-only plans refuse a fact IN
@pytest.mark.parametrize(
    "design", [DesignKind.TRADITIONAL, DesignKind.TRADITIONAL_BITMAP,
               DesignKind.VERTICAL_PARTITIONING],
    ids=lambda d: d.name)
def test_select_row_store_designs(ssb_data, system_x, design):
    expected = system_x.execute(parse_query(SELECT.format("1")), design)
    got = system_x.execute(parse_query(SELECT.format(WIDE)), design)
    assert got.result.same_rows(expected.result)
    assert got.result.same_rows(
        ref_execute(ssb_data.tables, parse_query(SELECT.format("1"))))


def test_service_delete(wdata):
    ones = int((wdata.lineorder.column("quantity").data == 1).sum())
    assert ones > 0
    with QueryService(
            cstore=CStore(wdata, row_mv=False),
            system_x=SystemX(wdata, designs=[DesignKind.TRADITIONAL],
                             writes=True)) as service:
        assert service.execute_sql(
            f"DELETE FROM lineorder WHERE quantity IN ({HUGE})") == 0
        assert service.execute_sql(
            f"DELETE FROM lineorder WHERE quantity IN ({WIDE})") == ones
        assert service.execute_sql(
            "DELETE FROM lineorder WHERE quantity IN (1)") == 0
