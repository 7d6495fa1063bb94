"""The write path checks per batch and shares one WOS image per epoch,
with exactly the outcomes of checking per cell and rebuilding per read.

* Every rejected batch keeps its message, word for word, and leaves the
  store untouched; the foreign keys report the first failing key, then
  the first failing row within it.
* The redo journal of a seeded insert / delete / move sequence hashes to
  the same bytes it did when validation ran per cell.
* ``WriteStore.visibility`` returns one read-only image per epoch: an
  epoch's image never changes under later writes, a move replaces it,
  and a read after a write sees the new rows.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import IntegrityError, WriteError
from repro.plan.logical import ColumnRef, CompareOp, Comparison, InSet
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.stats import QueryStats
from repro.write.journal import JOURNAL_FILE
from repro.write.store import WriteStore
from tests.write.dml import clone_rows, delete_predicates

MISSING = 10 ** 8


def _rows(wdata, k=None, **overrides):
    rows = clone_rows(wdata.lineorder, 5)
    if k is not None:
        rows[k].update(overrides)
    return rows


def _without(wdata, k, column):
    rows = _rows(wdata)
    del rows[k][column]
    return rows


def _two_bad_keys(wdata):
    # row 1 fails on partkey, row 3 on custkey: custkey is checked first
    rows = _rows(wdata, 3, custkey=MISSING)
    rows[1]["partkey"] = MISSING + 1
    return rows


def _two_bad_rows(wdata):
    rows = _rows(wdata, 1, custkey=MISSING)
    rows[3]["custkey"] = MISSING + 2
    return rows


def _supplier(wdata, *keys):
    return [clone_rows(wdata.supplier, 1, suppkey=key)[0] for key in keys]


REJECTED = [
    ("missing column", "lineorder", lambda d: _without(d, 2, "quantity"),
     "insert into 'lineorder': row must supply exactly the schema "
     "columns (missing ['quantity'], unexpected [])"),
    ("extra column", "lineorder", lambda d: _rows(d, 1, bogus=1),
     "insert into 'lineorder': row must supply exactly the schema "
     "columns (missing [], unexpected ['bogus'])"),
    ("string into int", "lineorder", lambda d: _rows(d, 1, quantity="x"),
     "insert into 'lineorder'.quantity: expected an integer, got 'x'"),
    ("bool into int", "lineorder", lambda d: _rows(d, 2, quantity=True),
     "insert into 'lineorder'.quantity: expected an integer, got True"),
    ("int into string", "lineorder", lambda d: _rows(d, 0, shipmode=3),
     "insert into 'lineorder'.shipmode: expected a string, got 3"),
    ("unknown string", "lineorder", lambda d: _rows(d, 2, shipmode="NOPE"),
     "insert into 'lineorder'.shipmode: 'NOPE' is outside the column's "
     "fixed string domain"),
    ("int32 overflow", "lineorder", lambda d: _rows(d, 4, quantity=2 ** 31),
     "insert into 'lineorder'.quantity: 2147483648 does not fit the "
     "stored width"),
    ("int32 underflow", "lineorder",
     lambda d: _rows(d, 4, quantity=-2 ** 31 - 1),
     "insert into 'lineorder'.quantity: -2147483649 does not fit the "
     "stored width"),
    ("dangling fk in row 3", "lineorder",
     lambda d: _rows(d, 3, custkey=MISSING),
     "insert into 'lineorder': custkey=100000000 references no live "
     "'customer' row"),
    ("bad keys in two fks", "lineorder", _two_bad_keys,
     "insert into 'lineorder': custkey=100000000 references no live "
     "'customer' row"),
    ("one fk bad in two rows", "lineorder", _two_bad_rows,
     "insert into 'lineorder': custkey=100000000 references no live "
     "'customer' row"),
    ("dangling date", "lineorder", lambda d: _rows(d, 2, orderdate=19000101),
     "insert into 'lineorder': orderdate=19000101 references no live "
     "'date' row"),
    ("existing dimension key", "supplier", lambda d: _supplier(d, 10 ** 6, 1),
     "insert into 'supplier': duplicate key suppkey=1"),
    ("duplicate key in batch", "supplier",
     lambda d: _supplier(d, 10 ** 6, 10 ** 6 + 1, 10 ** 6),
     "insert into 'supplier': duplicate key suppkey=1000000"),
]


def _state(ws):
    return (ws.epoch, ws.journal.num_pages, ws.journal.records,
            ws.pending_rows(), ws.effective_table("lineorder").num_rows,
            ws.effective_table("supplier").num_rows)


@pytest.mark.parametrize("case", REJECTED, ids=[c[0] for c in REJECTED])
def test_rejected_batch_keeps_message_and_store(wdata, case):
    _name, table, build, message = case
    ws = WriteStore(dict(wdata.tables))
    ws.insert("lineorder", clone_rows(wdata.lineorder, 3), QueryStats())
    before, image = _state(ws), ws.visibility()
    with pytest.raises(IntegrityError) as caught:
        ws.insert(table, build(wdata), QueryStats())
    assert str(caught.value) == message
    assert _state(ws) == before
    assert ws.visibility() is image


def test_unknown_table_is_refused_untouched(wdata):
    ws = WriteStore(dict(wdata.tables))
    with pytest.raises(WriteError, match="unknown table 'nosuch'"):
        ws.insert("nosuch", _rows(wdata), QueryStats())
    assert _state(ws) == (0, 0, 0, 0, wdata.lineorder.num_rows,
                          wdata.supplier.num_rows)


def test_live_keys_follow_deletes_and_the_wos(wdata):
    ws = WriteStore(dict(wdata.tables))
    stats = QueryStats()
    key = 10 ** 6
    ws.insert("supplier", _supplier(wdata, key), stats)
    # a buffered dimension row is a live key: facts may reference it,
    # and a second insert of it is a duplicate
    assert ws.insert("lineorder", _rows(wdata, 0, suppkey=key), stats) == 5
    with pytest.raises(IntegrityError, match=f"duplicate key suppkey={key}"):
        ws.insert("supplier", _supplier(wdata, key), stats)
    # once its fact row is deleted the dimension row may go, and then the
    # key is neither referenceable nor taken
    fact_key = ColumnRef("lineorder", "suppkey")
    assert ws.delete("lineorder", [Comparison(fact_key, CompareOp.EQ, key)],
                     stats) == 1
    assert ws.delete("supplier", [Comparison(
        ColumnRef("supplier", "suppkey"), CompareOp.EQ, key)], stats) == 1
    with pytest.raises(IntegrityError, match="references no live"):
        ws.insert("lineorder", _rows(wdata, 0, suppkey=key), stats)
    assert ws.insert("supplier", _supplier(wdata, key), stats) == 1


# -------------------------------------------------------------------- #
# the journal's bytes
# -------------------------------------------------------------------- #
#: sha256 over the journal pages the sequence below appends, recorded
#: when validation still ran once per cell (the bytes must never move)
JOURNAL_SHA256 = \
    "90faf30a0c6b9d47d444cdf9696f47a768761a4770dedcb0058982bbf18ff376"
JOURNAL_PAGES = 8


def test_journal_pages_are_byte_identical(wdata):
    engine = SystemX(wdata, designs=[DesignKind.TRADITIONAL], writes=True)
    journal = engine._write_store().journal
    # the move drops the journal's prefix, so collect pages as appended
    appended = []
    append_page = journal.disk.append_page

    def recording(name, payload):
        page_no = append_page(name, payload)
        appended.append(payload)
        return page_no

    journal.disk.append_page = recording
    stats = QueryStats()
    engine.insert("lineorder", clone_rows(wdata.lineorder, 120), stats)
    engine.insert("supplier", _supplier(wdata, 10 ** 6), stats)
    engine.insert("lineorder", _rows(wdata, 2, suppkey=10 ** 6), stats)
    engine.delete("lineorder", delete_predicates(), stats)
    engine.delete("lineorder", [InSet(ColumnRef("lineorder", "discount"),
                                      (9, 10))], stats)
    engine.move(stats)
    engine.insert("lineorder",
                  clone_rows(wdata.lineorder, indices=range(200, 260)), stats)
    digest = hashlib.sha256(b"".join(appended)).hexdigest()
    assert (len(appended), digest) == (JOURNAL_PAGES, JOURNAL_SHA256)
    # afterwards the journal holds the post-move insert and nothing else
    held = list(journal.disk.file(JOURNAL_FILE).pages)
    assert held and held == appended[-len(held):]
    assert json.loads(b"".join(held))["op"] == "insert"
    assert (journal.checkpoint.lsn, journal.records) == (6, 7)


# -------------------------------------------------------------------- #
# one visibility image per epoch
# -------------------------------------------------------------------- #
def _image(vis):
    return (vis.epoch, vis.fact_deleted.copy(),
            {col.name: col.data.copy() for col in vis.fact_wos.columns()})


def _same(a, b):
    (epoch_a, deleted_a, wos_a), (epoch_b, deleted_b, wos_b) = a, b
    assert epoch_a == epoch_b
    np.testing.assert_array_equal(deleted_a, deleted_b)
    assert wos_a.keys() == wos_b.keys()
    for name in wos_a:
        np.testing.assert_array_equal(wos_a[name], wos_b[name])


def test_an_epochs_image_survives_later_writes(wdata):
    ws = WriteStore(dict(wdata.tables))
    ws.insert("lineorder", clone_rows(wdata.lineorder, 10), QueryStats())
    ws.delete("lineorder", delete_predicates(), QueryStats())
    pinned = ws.pin()
    first = ws.visibility()
    assert ws.visibility(pinned) is first  # one image per epoch
    before = _image(first)
    ws.insert("lineorder", clone_rows(wdata.lineorder, indices=range(20, 30)),
              QueryStats())
    ws.delete("lineorder", [Comparison(ColumnRef("lineorder", "quantity"),
                                       CompareOp.LT, 5)], QueryStats())
    later = ws.visibility()
    assert later is not first and later.epoch == pinned + 2
    # a read after a write sees the new rows and the new deletes
    assert later.fact_wos.num_rows > first.fact_wos.num_rows
    assert int(later.fact_deleted.sum()) > int(first.fact_deleted.sum())
    # the pinned epoch, rebuilt from scratch, is the image it always was
    again = ws.visibility(pinned)
    assert again is not later
    _same(_image(again), before)


def test_a_move_replaces_the_image(wdata):
    ws = WriteStore(dict(wdata.tables))
    ws.insert("lineorder", clone_rows(wdata.lineorder, 10), QueryStats())
    ws.delete("lineorder", delete_predicates(), QueryStats())
    dirty = ws.visibility()
    assert dirty.needs_merge and dirty.needs_patching
    ws.complete_move(ws.effective_tables())
    fresh = ws.visibility()
    # same epoch, new base: nothing left to merge or mask
    assert fresh is not dirty and fresh.epoch == dirty.epoch
    assert not fresh.needs_merge and not fresh.needs_patching


def test_an_image_built_across_a_move_is_not_kept(wdata, monkeypatch):
    ws = WriteStore(dict(wdata.tables))
    ws.insert("lineorder", clone_rows(wdata.lineorder, 10), QueryStats())
    build = ws._rows_as_table

    def build_then_move(name, rows):
        table = build(name, rows)
        monkeypatch.setattr(ws, "_rows_as_table", build)
        ws.complete_move(ws.effective_tables())
        return table

    monkeypatch.setattr(ws, "_rows_as_table", build_then_move)
    stale = ws.visibility()
    assert stale.needs_merge  # built over the pre-move base
    fresh = ws.visibility()
    assert fresh is not stale and not fresh.needs_merge


def test_a_future_epochs_image_is_not_kept(wdata):
    ws = WriteStore(dict(wdata.tables))
    early = ws.visibility(ws.epoch + 1)
    assert not early.needs_merge
    ws.insert("lineorder", clone_rows(wdata.lineorder, 3), QueryStats())
    # the insert took that epoch: its rows must show
    assert ws.visibility().fact_wos.num_rows == 3


def test_writes_buffer_before_they_publish_the_epoch(wdata):
    ws = WriteStore(dict(wdata.tables))
    seen = []

    class Recording(list):
        def extend(self, rows):
            seen.append(ws.epoch)
            super().extend(rows)

    ws._wos["lineorder"] = Recording()
    ws.insert("lineorder", clone_rows(wdata.lineorder, 3), QueryStats())
    # a reader pinning the old epoch cannot see the new rows; one pinning
    # the new epoch finds them already buffered
    assert seen == [0] and ws.epoch == 1
    assert ws.visibility().fact_wos.num_rows == 3


def test_image_arrays_are_read_only(wdata):
    ws = WriteStore(dict(wdata.tables))
    ws.insert("lineorder", clone_rows(wdata.lineorder, 10), QueryStats())
    ws.delete("lineorder", delete_predicates(), QueryStats())
    vis = ws.visibility()
    arrays = [vis.fact_deleted] + [c.data for c in vis.fact_wos.columns()]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]
