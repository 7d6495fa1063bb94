"""The columnar WOS behaves exactly like the row-format WOS it replaced.

Hypothesis draws sequences of fact and dimension inserts (some with
dangling or duplicate keys), fact and dimension deletes (some
RESTRICTed), tuple moves and cold-start recoveries, and feeds each one
to a :class:`WriteStore` and to the row model kept in
``tests/write/reference_wos.py``.  After every operation the two agree
on the outcome or error text, the epoch and horizon, ``pending_rows``,
``has_pending``, the image of every epoch still reachable, every
effective table (arrays, dtypes, sort order, and whether it is the base
object itself), DELETE's WOS matches for a drawn predicate, and the
journal bytes appended.

The tuple mover's sorted merge is held separately to the
``concat + sort_by`` it replaced: duplicate keys, an empty side, and
signed keys anywhere in their width; a base not sorted on the keys is
refused.  Many small batches show the buffer growing by doubling.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, WriteError
from repro.plan.logical import (ColumnRef, CompareOp, Comparison, InSet,
                                RangePredicate)
from repro.simio.stats import QueryStats
from repro.storage.column import Column
from repro.storage.table import SortOrder, Table
from repro.types import int32, int64
import repro.write.store as store_module
from repro.write.store import WriteStore, _merge_sorted
from tests.write.dml import clone_rows
from tests.write.reference_wos import RowWriteStore, concat_tables

NEW_KEY = 10 ** 6

FACT_COLUMNS = ("quantity", "discount", "orderdate", "shipmode", "suppkey")


@st.composite
def fact_predicate(draw):
    column = draw(st.sampled_from(FACT_COLUMNS))
    ref = ColumnRef("lineorder", column)
    if column == "shipmode":
        return InSet(ref, tuple(draw(st.lists(st.sampled_from(
            ("AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "NOPE")),
            min_size=1, max_size=3))))
    if column == "orderdate":
        low = draw(st.integers(19920101, 19981231))
        return RangePredicate(ref, low, low + draw(st.integers(0, 400)))
    if column == "suppkey":
        return Comparison(ref, CompareOp.GE, NEW_KEY)
    if column == "quantity":  # wide enough to hit buffered rows
        low = draw(st.integers(0, 50))
        return RangePredicate(ref, low, low + draw(st.integers(0, 30)))
    return Comparison(ref, draw(st.sampled_from(list(CompareOp))),
                      draw(st.integers(0, 12)))


OPS = st.one_of(
    st.tuples(st.just("insert_fact"), st.integers(0, 3000),
              st.integers(1, 40)),
    st.tuples(st.just("insert_fact_new"), st.integers(0, 4),
              st.integers(1, 5)),
    st.tuples(st.just("insert_dim"), st.integers(0, 4), st.integers(1, 3)),
    st.tuples(st.just("delete_fact"),
              st.lists(fact_predicate(), min_size=1, max_size=2)),
    st.tuples(st.just("delete_dim"), st.integers(-2, 4), st.integers(0, 2)),
    st.tuples(st.just("move")),
    st.tuples(st.just("recover")),
)


def _move(store):
    """The engines' tuple mover, minus the shadow build."""
    if not store.has_pending():
        return 0
    stats = QueryStats()
    moved, effective = store.pending_rows(), store.effective_tables()
    store.journal.append({"op": "move", "epoch": store.epoch,
                          "rows": moved}, stats)
    store.complete_move(effective)
    store.journal.record_checkpoint(effective, store.epoch)
    store.journal.drop_covered()
    return moved


def _apply(store, op, wdata):
    kind, stats = op[0], QueryStats()
    try:
        if kind == "insert_fact":
            return store.insert("lineorder", clone_rows(
                wdata.lineorder, indices=range(op[1], op[1] + op[2])), stats)
        if kind == "insert_fact_new":
            return store.insert("lineorder", clone_rows(
                wdata.lineorder, op[2], suppkey=NEW_KEY + op[1]), stats)
        if kind == "insert_dim":
            rows = clone_rows(wdata.supplier, op[2])
            for i, row in enumerate(rows):
                row["suppkey"] = NEW_KEY + op[1] + i
            return store.insert("supplier", rows, stats)
        if kind == "delete_fact":
            return store.delete("lineorder", op[1], stats)
        if kind == "delete_dim":
            # negative offsets reach base suppliers that facts reference
            low = NEW_KEY + op[1] if op[1] >= 0 else -op[1]
            return store.delete("supplier", [RangePredicate(
                ColumnRef("supplier", "suppkey"), low, low + op[2])], stats)
        return _move(store)
    except IntegrityError as error:
        return str(error)


def _table(table):
    if table is None:
        return None
    return (table.sort_order.keys,
            [(c.name, c.data.dtype.str, c.data.tobytes())
             for c in table.columns()])


def _state(store, probe):
    images = []
    for epoch in range(max(store.horizon, store.epoch - 3), store.epoch + 1):
        image = store.visibility(epoch)
        deleted = image.fact_deleted
        images.append((epoch, None if deleted is None else deleted.tobytes(),
                       _table(image.fact_wos)))
    effective = {name: (table is store.base_table(name), _table(table))
                 for name, table in store.effective_tables().items()}
    hits = (store._wos_hits("lineorder", probe),
            store._wos_hits("supplier", [Comparison(
                ColumnRef("supplier", "suppkey"), CompareOp.GE, NEW_KEY)]))
    return (store.epoch, store.horizon, store.pending_rows(),
            store.has_pending(), images, effective, hits)


def _recording(store):
    appended = []
    append_page = store.journal.disk.append_page

    def recording(name, payload):
        appended.append(payload)
        return append_page(name, payload)

    store.journal.disk.append_page = recording
    return appended


QUANTITY_BELOW = [Comparison(ColumnRef("lineorder", "quantity"),
                             CompareOp.LT, 25)]
NEW_FACTS = [Comparison(ColumnRef("lineorder", "suppkey"), CompareOp.GE,
                        NEW_KEY)]


@settings(max_examples=max(30, settings().max_examples // 4), deadline=None)
@example(ops=[("insert_fact", 0, 40), ("delete_fact", QUANTITY_BELOW),
              ("insert_dim", 0, 3), ("insert_fact_new", 1, 3),
              ("insert_dim", 2, 1), ("delete_dim", 1, 0),
              ("delete_fact", NEW_FACTS), ("delete_dim", 1, 0),
              ("insert_fact_new", 1, 2), ("delete_dim", -1, 0),
              ("move",), ("insert_fact", 100, 20), ("recover",),
              ("delete_fact", QUANTITY_BELOW), ("insert_fact_new", 0, 2)],
         probe=QUANTITY_BELOW)
@given(ops=st.lists(OPS, min_size=3, max_size=10),
       probe=st.lists(fact_predicate(), max_size=2))
def test_columnar_wos_matches_row_model(wdata, ops, probe):
    columnar = WriteStore(dict(wdata.tables))
    rows = RowWriteStore(dict(wdata.tables))
    pages = (_recording(columnar), _recording(rows))
    for op in ops:
        if op[0] == "recover":
            columnar = WriteStore.recover(columnar.journal)
            rows = RowWriteStore.replay(rows.journal)
        else:
            assert _apply(columnar, op, wdata) == _apply(rows, op, wdata), op
        assert _state(columnar, probe) == _state(rows, probe), op
        assert pages[0] == pages[1], op
    recovered = WriteStore.recover(columnar.journal)
    assert _state(recovered, probe) == _state(
        RowWriteStore.replay(rows.journal), probe)


def test_small_batches_copy_the_buffer_only_when_it_doubles(wdata,
                                                            monkeypatch):
    """300 one-row inserts: the image and the move equal the row model's,
    and the buffer was copied at most log2(300) times per array."""
    grown = []

    def counting(data, used, capacity):
        grown.append(capacity)
        return _grown(data, used, capacity)

    _grown = store_module._grown
    monkeypatch.setattr(store_module, "_grown", counting)
    columnar = WriteStore(dict(wdata.tables))
    reference = RowWriteStore(dict(wdata.tables))
    rows = clone_rows(wdata.lineorder, 300)
    for row in rows:
        for store in (columnar, reference):
            store.insert("lineorder", [row], QueryStats())
    columns = len(wdata.lineorder.column_names) + 2
    assert sorted(set(grown)) == [64, 130, 262, 526]
    assert len(grown) == 4 * columns
    assert _state(columnar, []) == _state(reference, [])


# -------------------------------------------------------------------- #
# the mover's sorted merge
# -------------------------------------------------------------------- #
def _synthetic(keys, payload, ctype=None):
    ctype = ctype or int32()
    dtype = ctype.numpy_dtype
    return Table("t", [Column("a", ctype, np.asarray(keys[0], dtype=dtype)),
                       Column("b", ctype, np.asarray(keys[1], dtype=dtype)),
                       Column("p", int32(), np.asarray(payload,
                                                       dtype=np.int32))],
                 SortOrder(()))


def _sorted(table):
    return table.sort_by(("a", "b"))


def _assert_merge_is_sort(kept, wos):
    merged = _merge_sorted(kept, wos, ("a", "b"))
    expected = concat_tables("t", kept, kept, wos).sort_by(("a", "b"))
    assert _table(merged) == _table(expected)


INT32 = np.iinfo(np.int32)
INT64 = np.iinfo(np.int64)


@given(base=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)),
                     max_size=30),
       wos=st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 2)),
                    max_size=20))
def test_sorted_merge_is_concat_and_sort_property(base, wos):
    """Duplicate keys on both sides and across them, either side empty:
    kept rows first among ties, each side in its own order."""
    kept = _sorted(_synthetic(list(zip(*base)) or [[], []],
                              range(len(base))))
    buffered = (None if not wos else
                _synthetic(list(zip(*wos)), range(100, 100 + len(wos))))
    _assert_merge_is_sort(kept, buffered)


@given(wide=st.sampled_from([(int32(), INT32), (int64(), INT64)]),
       data=st.data())
def test_sorted_merge_orders_full_width_keys_property(wide, data):
    """Signed keys anywhere in their width, spans far past 62 bits: the
    merge still orders them as the re-sort does."""
    ctype, info = wide
    value = st.one_of(st.integers(int(info.min), int(info.max)),
                      st.sampled_from([int(info.min), -1, 0, 1,
                                       int(info.max)]))
    base = data.draw(st.lists(st.tuples(value, value), max_size=20))
    wos = data.draw(st.lists(st.tuples(value, value), min_size=1,
                             max_size=10))
    kept = _sorted(_synthetic(list(zip(*base)) or [[], []],
                              range(len(base)), ctype=ctype))
    _assert_merge_is_sort(kept, _synthetic(list(zip(*wos)),
                                           range(100, 100 + len(wos)),
                                           ctype=ctype))


def test_sorted_merge_refuses_an_unsorted_base():
    for keys in (([2, 1, 3], [0, 0, 0]), ([1, 1, 3], [1, 0, 0])):
        kept = _synthetic(keys, [0, 1, 2])
        for wos in (_synthetic(([1], [0]), [9]), None):
            with pytest.raises(WriteError, match="not sorted on"):
                _merge_sorted(kept, wos, ("a", "b"))


def test_extreme_fact_keys_still_move(wdata):
    """An INSERT may put any in-width quantity and discount in the WOS;
    the fact's sort keys then span more than 62 bits, and the move still
    equals the row model's re-sort."""
    columnar = WriteStore(dict(wdata.tables))
    reference = RowWriteStore(dict(wdata.tables))
    rows = clone_rows(wdata.lineorder, 4)
    for row, (quantity, discount) in zip(rows, [
            (INT32.max, INT32.min), (INT32.min, INT32.max),
            (INT32.max, INT32.max), (INT32.min, INT32.min)]):
        row.update(quantity=int(quantity), discount=int(discount))
    for store in (columnar, reference):
        store.insert("lineorder", rows, QueryStats())
    moved = columnar.effective_tables()
    assert _table(moved["lineorder"]) == \
        _table(reference.effective_table("lineorder"))
    columnar.complete_move(moved)
    reference.complete_move(reference.effective_tables())
    for store in (columnar, reference):
        store.insert("lineorder", rows[:2], QueryStats())
    assert _table(columnar.effective_table("lineorder")) == \
        _table(reference.effective_table("lineorder"))


@pytest.mark.parametrize("name", ["lineorder", "supplier"])
def test_effective_tables_take_the_merge_on_generated_data(wdata, name):
    """Generated fact and dimension tables are sorted on the mover's
    keys, so a move merges; the result is the old re-sort exactly."""
    columnar = WriteStore(dict(wdata.tables))
    reference = RowWriteStore(dict(wdata.tables))
    if name == "supplier":
        ops = [("insert_dim", 0, 3), ("delete_dim", 1, 0)]
    else:
        ops = [("insert_fact", 7, 30), ("delete_fact", [Comparison(
            ColumnRef("lineorder", "quantity"), CompareOp.LT, 4)])]
    for op in ops:
        assert _apply(columnar, op, wdata) == _apply(reference, op, wdata)
    assert _table(columnar.effective_table(name)) == \
        _table(reference.effective_table(name))
