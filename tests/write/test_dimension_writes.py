"""A dimension write must not corrupt the invisible join.

Dimension projections are sorted by their rollup hierarchy (customer on
region, nation, city; part on mfgr, category, brand1), so once a fresh
key is inserted and moved it sits mid-projection.  Whether a
projection's keys run 1, 2, 3, ... (phase 3 then resolves a key by
subtraction) or never decrease (phase 1 may then rewrite a surviving
position range as a between predicate on the key) is a property of the
*projection's* order, re-derived on every rebuild.  Judged in catalog
order instead, ``tICL``/``tIcL`` grouped under wrong city labels,
``ticL`` raised a false dangling foreign key, and a between rewrite
spanning key 900001 counted every fact row in between.

Every case runs through every legal configuration label and through the
service (engine and exact-cache paths), against the oracle.
"""

from dataclasses import replace
from itertools import product

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.reference import execute as reference_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService, ServiceConfig
from repro.simio.faults import CRASH_AFTER_MOVE_SWAP, CrashPolicy
from repro.sql import parse_query
from repro.storage.colfile import CompressionLevel
from repro.write.recovery import CrashHarness
from tests.plan.test_key_paths import LABELS
from tests.write.dml import clone_rows

#: dimension -> (key column, attribute a predicate restricts,
#: attribute grouped under it): the rollup levels the projection sorts on
DIMENSIONS = {
    "customer": ("custkey", "nation", "city"),
    "part": ("partkey", "category", "brand1"),
}
#: the next key (contiguous in catalog order, not in projection order)
#: and a far one (monotonic in catalog order, not in projection order)
KEYS = ("next", "far")
FACTS_PER_KEY = 3


def _queries(data, dim):
    """(group-by over the written row's parent level, count of its own
    leaf value, the same group-by narrowed to that leaf)."""
    key, parent, leaf = DIMENSIONS[dim]
    alias = dim[0]
    row = clone_rows(data.table(dim), indices=[0])[0]
    join = f"FROM lineorder lo, {dim} {alias} WHERE lo.{key} = {alias}.{key}"
    grouped = (f"SELECT {alias}.{leaf}, sum(lo.revenue) AS revenue {join} "
               f"AND {alias}.{parent} = '{row[parent]}' "
               f"GROUP BY {alias}.{leaf} ORDER BY {alias}.{leaf}")
    counted = (f"SELECT count(*) AS n {join} "
               f"AND {alias}.{leaf} = '{row[leaf]}'")
    narrowed = grouped.replace(
        "GROUP BY", f"AND {alias}.{leaf} = '{row[leaf]}' GROUP BY")
    return [parse_query(sql, name=f"{dim}-{i}")
            for i, sql in enumerate((grouped, counted, narrowed))]


def _written_rows(data, dim, which):
    """The cloned dimension row (first catalog row under a fresh key)
    and fact rows referencing it."""
    key = DIMENSIONS[dim][0]
    new_key = data.table(dim).num_rows + 1 if which == "next" else 900001
    return (clone_rows(data.table(dim), indices=[0], **{key: new_key}),
            clone_rows(data.lineorder, FACTS_PER_KEY, **{key: new_key}))


def _write_and_move(engine, data, dim, which):
    dim_rows, fact_rows = _written_rows(data, dim, which)
    assert engine.insert(dim, dim_rows) == 1
    assert engine.insert("lineorder", fact_rows) == FACTS_PER_KEY
    assert engine.move() == 1 + FACTS_PER_KEY


@pytest.fixture(scope="module", params=list(product(DIMENSIONS, KEYS)),
                ids=lambda p: "-".join(p))
def moved(request, wdata):
    dim, which = request.param
    store = CStore(wdata)
    _write_and_move(store, wdata, dim, which)
    return store, dim, _expected(store, _queries(wdata, dim))


def _expected(engine, queries):
    """(query, oracle rows over the engine's current tables) pairs."""
    tables = engine.snapshot_tables()
    return [(query, reference_execute(tables, query).rows)
            for query in queries]


def test_projection_order_is_reclassified(moved):
    store, dim, _ = moved
    for level in (CompressionLevel.MAX, CompressionLevel.NONE):
        projection = store.projection(dim, level)
        assert projection.contiguous_from is None
        assert projection.key_monotonic is False


@pytest.mark.parametrize("label", LABELS)
def test_every_label_matches_the_oracle(moved, label):
    store, _dim, expected = moved
    config = replace(ExecutionConfig.from_label(label), writes=True)
    for query, rows in expected:
        assert rows
        assert store.execute(query, config).result.rows == rows, \
            (label, query.name)


def test_recovery_rebuild_reclassifies(wdata):
    # the crash lands after the move record: recovery rolls the move
    # forward by rebuilding, and the rebuilt projection must be judged
    # afresh
    harness = CrashHarness(wdata, crashes=[CrashPolicy(CRASH_AFTER_MOVE_SWAP)])
    dim_rows, fact_rows = _written_rows(wdata, "customer", "far")
    assert harness.insert("customer", dim_rows) == 1
    assert harness.insert("lineorder", fact_rows) == FACTS_PER_KEY
    assert harness.move() is None  # the kill point fired
    assert harness.crash_and_recover().moves_rolled_forward == 1
    engine = harness.engine
    config = replace(ExecutionConfig.baseline(), writes=True)
    for query, rows in _expected(engine, _queries(wdata, "customer")):
        assert engine.execute(query, config).result.rows == rows


@pytest.mark.parametrize("dim,which", list(product(DIMENSIONS, KEYS)))
def test_service_paths_match_the_oracle(wdata, dim, which):
    cs = CStore(wdata)
    rs = SystemX(wdata, designs=[DesignKind.TRADITIONAL], writes=True)
    dim_rows, fact_rows = _written_rows(wdata, dim, which)
    with QueryService(cs, rs, config=ServiceConfig(
            cache=True, cache_admit_seconds=0.0,
            breakers=False)) as service:
        service.insert(dim, dim_rows)
        service.insert("lineorder", fact_rows)
        assert service.move() == 1 + FACTS_PER_KEY
        expected = _expected(cs, _queries(wdata, dim))
        sessions = [service.session(label, engine="cs",
                                    config=ExecutionConfig.from_label(label))
                    for label in LABELS]
        sessions.append(service.session("rs", engine="rs"))
        for session in sessions:
            sources = []
            # the group-by twice (engine, then the exact cache), then
            # two narrower queries: not exact repeats, so engine runs
            for query, rows in expected[:1] + expected:
                answer = session.execute(query)
                assert answer.result.rows == rows, (session.name, query.name)
                sources.append(answer.source)
            assert sources == ["engine", "cache-exact", "engine", "engine"], \
                session.name
