"""Pinned counterexamples off the 13 SSB queries: literals outside a
column's stored domain, strict string bounds, empty groups, and string
aggregate inputs.

Each case once gave different answers (or an untyped crash) depending
on the engine, design or configuration: strict ``>`` on a raw-bytes
projection acted as ``>=``, over-width and wrong-typed literals were
refused on some storage paths and matched nothing on others, a grouped
AVG over no rows crashed the column store, and SUM over a CHAR column
summed dictionary codes.  Every case runs on the oracle, on every
column-store label, on ``tIcL`` with zone maps, on every System X design
that plans it and once through the query service per engine; the
outcome is the oracle's rows, or the same ``ReproError`` subclass on
every path.
"""

import dataclasses

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import PlanError, ReproError, SqlBindError, TypeMismatchError
from repro.plan.logical import AggExpr, BinOp, ColumnRef
from repro.reference import execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve.service import QueryService
from repro.sql import parse_query
from repro.ssb.generator import generate

from .test_order_limit import CONFIGS

ZONE_MAPS = dataclasses.replace(ExecutionConfig.from_label("tIcL"),
                                zone_maps=True)

COUNT = ("SELECT COUNT(lo.partkey) AS n "
         "FROM lineorder AS lo, customer AS c "
         "WHERE lo.custkey = c.custkey AND {};")

#: (SQL, the oracle's rows, or the error every path raises)
CASES = {
    # (a) strict > on strings, fact and dimension columns
    "shipmode_gt": (COUNT.format("lo.shipmode > 'MAIL'"), [(13660,)]),
    "nation_gt": (COUNT.format("c.nation > 'CHINA'"), [(19260,)]),
    # (b) a grouped AVG over no rows
    "empty_grouped_avg": (
        "SELECT c.name, AVG(lo.discount) AS a "
        "FROM lineorder AS lo, customer AS c "
        "WHERE lo.custkey = c.custkey AND lo.quantity = 999 "
        "GROUP BY c.name;", []),
    # (c) aggregates over a CHAR column; COUNT stays legal
    "sum_string": ("SELECT SUM(lo.shipmode) AS s FROM lineorder AS lo;",
                   SqlBindError),
    "min_string": ("SELECT MIN(lo.shipmode) AS s FROM lineorder AS lo;",
                   SqlBindError),
    "avg_string": ("SELECT AVG(lo.shippriority) AS s FROM lineorder AS lo;",
                   SqlBindError),
    "arith_string": ("SELECT SUM(lo.shipmode + lo.tax) AS s "
                     "FROM lineorder AS lo;", SqlBindError),
    "count_string": ("SELECT COUNT(lo.shipmode) AS s FROM lineorder AS lo;",
                     [(24000,)]),
    # (d) over-width and wrong-typed literals
    "over_width_eq": (COUNT.format("lo.shippriority = 'ZZZ'"), [(0,)]),
    "over_width_in": (
        COUNT.format("lo.shipmode IN ('MAIL', 'MAILMAILMAILMAIL')"),
        [(3427,)]),
    "int_on_string": (COUNT.format("lo.shipmode = 5"), SqlBindError),
    "string_on_int": (COUNT.format("lo.quantity < 'A'"), SqlBindError),
    # (e) nothing sorts below ''
    "below_empty": (COUNT.format("lo.shipmode < ''"), [(0,)]),
}


@pytest.fixture(scope="module")
def env():
    data = generate(0.004, seed=1)
    system_x = SystemX(data, designs=list(DesignKind))
    cstore = CStore(data)
    with QueryService(cstore=cstore, system_x=system_x) as service:
        yield data, system_x, cstore, service


def _outcome(run):
    try:
        return run()
    except ReproError as exc:
        return type(exc)


def _paths(env, sql, query=None):
    """(path, outcome) for every way to run ``sql`` (or the IR
    ``query``, which skips the binder)."""
    data, system_x, cstore, service = env

    def bound():
        return query if query is not None else parse_query(sql)

    yield "oracle", _outcome(lambda: execute(data.tables, bound()).rows)
    for design in DesignKind:
        outcome = _outcome(lambda: system_x.execute(bound(), design)
                           .result.rows)
        if outcome is not PlanError:  # a view covers only its own queries
            yield design.value, outcome
    for config in CONFIGS + [ZONE_MAPS]:
        yield config, _outcome(lambda: cstore.execute(bound(), config)
                               .result.rows)
    if query is None:
        for engine in ("cs", "rs"):
            session = service.session(engine=engine)
            yield f"service:{engine}", _outcome(
                lambda: session.execute_sql(sql, cached=False).result.rows)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_path_gives_the_oracle_outcome(env, case):
    sql, expected = CASES[case]
    outcomes = dict(_paths(env, sql))
    assert outcomes["oracle"] == expected
    assert {"T", "T(B)", "VP", ZONE_MAPS} <= set(outcomes)
    for path, outcome in outcomes.items():
        assert outcome == expected, (case, path, outcome)


def test_an_int_literal_on_a_string_column_in_ir_is_a_type_error(env):
    """A query built as IR skips the binder; the one translation raises
    the same error on every path."""
    base = parse_query(COUNT.format("lo.shipmode = 'MAIL'"))
    query = dataclasses.replace(base, predicates=(dataclasses.replace(
        base.predicates[0], value=5),))
    for path, outcome in _paths(env, None, query):
        assert outcome is TypeMismatchError, (path, outcome)


@pytest.mark.parametrize("func, expr", [
    ("sum", ColumnRef("lineorder", "shipmode")),
    ("min", ColumnRef("lineorder", "shipmode")),
    ("max", ColumnRef("lineorder", "shippriority")),
    ("avg", ColumnRef("lineorder", "shipmode")),
    ("count", BinOp("+", ColumnRef("lineorder", "shipmode"),
                    ColumnRef("lineorder", "tax"))),
])
def test_an_ir_aggregate_over_a_string_column_is_a_type_error(env, func,
                                                              expr):
    """An IR aggregate skips the binder; the binder's rule, applied by
    every engine and the oracle, refuses it typed on every path instead
    of summing dictionary codes or failing in numpy."""
    base = parse_query("SELECT SUM(lo.revenue) AS s FROM lineorder AS lo;")
    query = dataclasses.replace(base, aggregates=(AggExpr(func, expr, "s"),))
    outcomes = dict(_paths(env, None, query))
    assert {"oracle", ZONE_MAPS} | {d.value for d in DesignKind} <= set(
        outcomes)
    for path, outcome in outcomes.items():
        assert outcome is TypeMismatchError, (path, outcome)


def test_an_ir_count_of_a_string_column_stays_legal(env):
    base = parse_query("SELECT SUM(lo.revenue) AS s FROM lineorder AS lo;")
    query = dataclasses.replace(base, aggregates=(
        AggExpr("count", ColumnRef("lineorder", "shipmode"), "s"),))
    for path, outcome in _paths(env, None, query):
        assert outcome == [(24000,)], (path, outcome)
