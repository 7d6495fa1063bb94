"""Config ladder and invisible join behaviour tests."""

import numpy as np
import pytest

from repro.core.config import CONFIG_LADDER, ExecutionConfig
from repro.core.invisible_join import (
    DimensionSide,
    InvisibleJoin,
    JoinStrategy,
    LateMaterializedJoin,
)
from repro.errors import PlanError
from repro.reference import selected_positions
from repro.ssb.queries import ALL_QUERIES, query_by_name
from repro.storage.colfile import CompressionLevel


# --------------------------------------------------------------------- #
# ExecutionConfig
# --------------------------------------------------------------------- #
def test_labels_roundtrip():
    for config in CONFIG_LADDER:
        assert ExecutionConfig.from_label(config.label) == config


def test_ladder_matches_paper_order():
    assert [c.label for c in CONFIG_LADDER] == [
        "tICL", "TICL", "tiCL", "TiCL", "ticL", "TicL", "Ticl"]


def test_invisible_requires_late_materialization():
    with pytest.raises(PlanError):
        ExecutionConfig(invisible_join=True, late_materialization=False)


def test_bad_label_rejected():
    for bad in ("xxxx", "tIC", "TICLL", "aICL"):
        with pytest.raises(PlanError):
            ExecutionConfig.from_label(bad)


def test_baseline_and_rowlike():
    assert ExecutionConfig.baseline().label == "tICL"
    assert ExecutionConfig.row_store_like().label == "Ticl"


# --------------------------------------------------------------------- #
# invisible join internals (via a loaded CStore)
# --------------------------------------------------------------------- #
def _join(cstore, ssb_data, name, cls=InvisibleJoin, config=None,
          **kwargs):
    query = query_by_name(name)
    config = config or ExecutionConfig.baseline()
    level = CompressionLevel.MAX
    fact_proj = cstore.projection("lineorder", level)
    dims = {}
    for dim in query.dimensions_used():
        table = ssb_data.table(dim)
        projection = cstore.projection(dim, level)
        dims[dim] = DimensionSide(
            name=dim,
            projection=projection,
            key_column=query.key_of(dim),
            catalog={c.name: c for c in table.columns()},
            contiguous_from=projection.contiguous_from,
            key_monotonic=projection.key_monotonic,
        )
    fact_catalog = {c.name: c for c in ssb_data.lineorder.columns()}
    cstore.disk.stats.reset()
    return cls(cstore.pool, config, fact_proj, dims, query, level,
               fact_catalog, **kwargs), query


def test_invisible_join_positions_match_oracle(cstore, ssb_data):
    sorted_tables = {
        "lineorder": cstore.data.lineorder.sort_by(
            ["orderdate", "quantity", "discount"]),
        **{k: v for k, v in ssb_data.tables.items() if k != "lineorder"},
    }
    for name in ("Q1.1", "Q2.1", "Q3.1", "Q4.3"):
        join, query = _join(cstore, ssb_data, name)
        survivors, _rows = join.run()
        expected = selected_positions(sorted_tables, query)
        assert sorted(survivors.to_array().tolist()) == expected.tolist()


def test_between_rewrite_fires_on_every_ssb_query(cstore, ssb_data):
    """Section 6.3.2: 'it was possible to use the between-predicate
    rewriting optimization at least once per query'."""
    for query in ALL_QUERIES:
        join, _ = _join(cstore, ssb_data, query.name)
        join.run()
        strategies = [f.strategy for f in join.filters.values()]
        assert JoinStrategy.BETWEEN in strategies, query.name


def test_between_rewrite_avoids_hash_probes_q2_1(cstore, ssb_data):
    join, _ = _join(cstore, ssb_data, "Q2.1")
    join.run()
    with_between = cstore.disk.stats.snapshot()
    # the category and region predicates both produce contiguous keys
    assert join.filters["part"].strategy is JoinStrategy.BETWEEN
    assert join.filters["supplier"].strategy is JoinStrategy.BETWEEN

    join_lm, _ = _join(cstore, ssb_data, "Q2.1", cls=LateMaterializedJoin)
    join_lm.run()
    without = cstore.disk.stats.snapshot()
    assert without["hash_probes"] > with_between["hash_probes"]
    assert with_between["range_checks"] >= 0


def test_invisible_join_disabled_falls_back_to_hash(cstore, ssb_data):
    config = ExecutionConfig.from_label("tICL")
    join, _ = _join(cstore, ssb_data, "Q2.1", config=config,
                    allow_between=False)
    join.run()
    assert join.filters["part"].strategy is JoinStrategy.HASH


def test_unfiltered_dimension_gets_none_strategy(cstore, ssb_data):
    # Q2.1 groups by d.year but has no date predicate
    join, _ = _join(cstore, ssb_data, "Q2.1")
    join.run()
    assert join.filters["date"].strategy is JoinStrategy.NONE


def test_date_extraction_needs_real_lookup(cstore, ssb_data):
    """The date key is not contiguous-from-1, so phase 3 pays hash
    probes for it (Section 5.4.1's 'full join must be performed')."""
    join, _ = _join(cstore, ssb_data, "Q2.1")
    cstore.disk.stats.reset()
    join.run()
    assert cstore.disk.stats.hash_probes > 0


def test_contiguous_dims_detected(cstore):
    for level in (CompressionLevel.MAX, CompressionLevel.NONE):
        for dim in ("customer", "supplier", "part"):
            assert cstore.projection(dim, level).contiguous_from == 1
        date = cstore.projection("date", level)
        assert date.contiguous_from is None
        assert date.key_monotonic is True


def test_lm_join_matches_invisible_positions(cstore, ssb_data):
    for name in ("Q1.2", "Q3.2", "Q4.1"):
        inv, _ = _join(cstore, ssb_data, name)
        p1, rows1 = inv.run()
        lm, _ = _join(cstore, ssb_data, name, cls=LateMaterializedJoin)
        p2, rows2 = lm.run()
        assert p1.to_array().tolist() == p2.to_array().tolist()
        for dim in rows1:
            assert np.array_equal(rows1[dim], rows2[dim])
