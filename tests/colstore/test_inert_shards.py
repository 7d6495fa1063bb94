"""``ExecutionConfig.shards`` is inert: every read runs on the engine's
one storage stack, and no value of the field reaches it.

All 13 SSBM queries under ``tIcL`` (the benchmark's uncompressed
variant, which is the one that sets ``shards=4``) and ``tICL`` must give,
at ``shards=4``, the rows, the whole flat ledger and the span tree of
``shards=1`` — as a read-only read, and as a merge read over pending
fact and dimension writes.
"""

import dataclasses

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.ssb.queries import ALL_QUERIES
from tests.write.dml import clone_rows, write_mix

LABELS = ("tIcL", "tICL")


@pytest.fixture(scope="module")
def pending(ssb_data):
    """A column store holding pending fact inserts and deletes, plus a
    new customer with fact rows that reference it."""
    store = CStore(ssb_data)
    inserts, predicates = write_mix(ssb_data)
    store.insert("lineorder", inserts)
    store.delete("lineorder", predicates)
    store.insert("customer", clone_rows(ssb_data.customer, 1,
                                        custkey=900001))
    store.insert("lineorder", clone_rows(ssb_data.lineorder, 10,
                                         custkey=900001))
    return store


def _assert_identical(engine, query, config):
    run1 = engine.execute(query, config)
    run4 = engine.execute(query, dataclasses.replace(config, shards=4))
    assert run4.result.rows == run1.result.rows
    assert run4.stats.snapshot() == run1.stats.snapshot()
    assert run4.trace.to_dict() == run1.trace.to_dict()


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("label", LABELS)
def test_shards_field_is_inert(cstore, query, label):
    _assert_identical(cstore, query, ExecutionConfig.from_label(label))


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("label", LABELS)
def test_shards_field_is_inert_on_merge_reads(pending, query, label):
    config = dataclasses.replace(ExecutionConfig.from_label(label),
                                 writes=True)
    assert pending.execute(query, config).stats.delta_rows_merged > 0
    _assert_identical(pending, query, config)


def test_shards_knob_validation():
    from repro.errors import PlanError

    with pytest.raises(PlanError):
        ExecutionConfig(shards=0)
    assert ExecutionConfig(shards=4).label == "tICL"  # label unchanged
