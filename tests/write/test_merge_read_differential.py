"""Merge reads equal the oracle over the effective tables, and the WOS
partial keeps its four charges.

Hypothesis draws batches of fact inserts (some referencing dimension
rows that are themselves still buffered), dimension inserts into
``customer`` and ``supplier``, fact deletes and dimension deletes (some
RESTRICTed), and applies them to a mirror :class:`WriteStore`, to a
column store and to a row store with the T and MV designs.  Then:

* the WOS partial of every SSBM query (and of its gather rewrite) is the
  oracle's answer over the image's delta tables, and its ledger is
  exactly ``delta_rows_merged`` n, ``values_scanned_scalar``
  n x max(1, fact predicates), ``hash_probes`` survivors x dimensions
  used and ``agg_updates`` survivors, with the survivors counted by the
  oracle;
* merge reads of drawn queries on Figure 7's seven configurations plus
  ``tIcL``, and on both row-store designs, return the oracle's rows over
  ``effective_tables()``.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.colstore.engine import CStore
from repro.core.config import CONFIG_LADDER, ExecutionConfig
from repro.errors import IntegrityError
from repro.plan.combine import partial_plan
from repro.plan.logical import ColumnRef, CompareOp, Comparison
from repro.reference import execute as reference_execute
from repro.reference import selected_positions
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.stats import QueryStats
from repro.ssb.queries import ALL_QUERIES
from repro.write.delta import delta_partial
from repro.write.store import WriteStore
from tests.write.dml import clone_rows

NEW_KEY = 900_000
DIMENSIONS = {"customer": "custkey", "supplier": "suppkey"}
LABELS = [replace(config, writes=True) for config in CONFIG_LADDER] + [
    replace(ExecutionConfig.from_label("tIcL"), writes=True)]
DESIGNS = (DesignKind.TRADITIONAL, DesignKind.MATERIALIZED_VIEWS)

BATCHES = st.one_of(
    st.tuples(st.just("facts"), st.integers(0, 20000), st.integers(1, 60)),
    st.tuples(st.just("new_facts"), st.sampled_from(sorted(DIMENSIONS)),
              st.integers(0, 3), st.integers(1, 8)),
    st.tuples(st.just("dims"), st.sampled_from(sorted(DIMENSIONS)),
              st.integers(0, 3), st.integers(1, 2)),
    st.tuples(st.just("delete_facts"),
              st.sampled_from(("quantity", "discount", "tax")),
              st.sampled_from((CompareOp.LT, CompareOp.GT, CompareOp.EQ)),
              st.integers(0, 10)),
    st.tuples(st.just("delete_dims"), st.sampled_from(sorted(DIMENSIONS)),
              st.integers(0, 3)),
)


def _write(target, batch, data):
    """Apply one batch; an error text is an outcome like a row count."""
    kind = batch[0]
    stats = QueryStats()
    try:
        if kind == "facts":
            _kind, start, count = batch
            return target.insert("lineorder", clone_rows(
                data.lineorder, indices=range(start, start + count)), stats)
        if kind == "new_facts":
            _kind, dim, offset, count = batch
            return target.insert("lineorder", clone_rows(
                data.lineorder, count, **{DIMENSIONS[dim]: NEW_KEY + offset}),
                stats)
        if kind == "dims":
            _kind, dim, offset, count = batch
            key = DIMENSIONS[dim]
            rows = clone_rows(data.tables[dim], count)
            for i, row in enumerate(rows):
                row[key] = NEW_KEY + offset + i
            return target.insert(dim, rows, stats)
        if kind == "delete_facts":
            _kind, column, op, value = batch
            return target.delete("lineorder", [Comparison(
                ColumnRef("lineorder", column), op, value)], stats)
        _kind, dim, offset = batch
        return target.delete(dim, [Comparison(
            ColumnRef(dim, DIMENSIONS[dim]), CompareOp.EQ, NEW_KEY + offset)],
            stats)
    except IntegrityError as error:
        return str(error)


def _charges(vis, query):
    """The WOS partial's ledger, from the oracle's survivors."""
    tables = vis.delta_tables()
    n = tables["lineorder"].num_rows
    survivors = len(selected_positions(tables, query))
    return QueryStats(
        delta_rows_merged=n,
        values_scanned_scalar=n * max(1, len(query.fact_predicates())),
        hash_probes=survivors * len(query.dimensions_used()),
        agg_updates=survivors).snapshot()


#: facts from 1993 (Q1.1's year), new dimension rows, facts that
#: reference them, and deletes that reach both
PINNED = [("facts", 4000, 600), ("dims", "customer", 0, 2),
          ("dims", "supplier", 1, 2), ("new_facts", "customer", 1, 5),
          ("new_facts", "supplier", 2, 4), ("delete_facts", "quantity",
                                            CompareOp.LT, 10),
          ("delete_dims", "customer", 0), ("delete_dims", "supplier", 2)]


@settings(max_examples=max(30, settings().max_examples // 2), deadline=None)
@example(batches=PINNED)
@given(batches=st.lists(BATCHES, min_size=1, max_size=6))
def test_wos_partial_matches_oracle_property(wdata, batches):
    store = WriteStore(dict(wdata.tables))
    for batch in batches:
        _write(store, batch, wdata)
    vis = store.visibility()
    if not vis.needs_merge:
        return
    for query in ALL_QUERIES:
        for shape in (partial_plan(query).partial_query, query):
            stats = QueryStats()
            got = delta_partial(shape, vis, stats)
            expected = reference_execute(vis.delta_tables(), shape)
            assert (got.columns, got.rows) == \
                (expected.columns, expected.rows), query.name
            assert stats.snapshot() == _charges(vis, shape), query.name


@settings(max_examples=max(12, settings().max_examples // 8), deadline=None)
@example(batches=PINNED, queries=list(ALL_QUERIES))
@given(batches=st.lists(BATCHES, min_size=1, max_size=5),
       queries=st.lists(st.sampled_from(ALL_QUERIES), min_size=1,
                        max_size=3, unique_by=lambda q: q.name))
def test_merge_reads_match_oracle_on_both_engines_property(wdata, batches,
                                                          queries):
    mirror = WriteStore(dict(wdata.tables))
    cstore = CStore(wdata)
    systemx = SystemX(wdata, designs=list(DESIGNS), writes=True)
    for batch in batches:
        outcome = _write(mirror, batch, wdata)
        assert _write(cstore, batch, wdata) == outcome
        assert _write(systemx, batch, wdata) == outcome
    effective = mirror.effective_tables()
    merging = mirror.visibility().needs_merge
    for query in queries:
        expected = reference_execute(effective, query).rows
        for config in LABELS:
            run = cstore.execute(query, config)
            assert run.result.rows == expected, (query.name, config)
            assert (run.stats.delta_rows_merged > 0) == merging
        for design in DESIGNS:
            run = systemx.execute(query, design)
            assert run.result.rows == expected, (query.name, design)
            assert (run.stats.delta_rows_merged > 0) == merging
