"""DELETE evaluates the WOS side per column, with exactly the outcome of
testing each buffered row in Python.

``WriteStore._wos_hits`` gathers the predicate columns of the undeleted
WOS rows from the column buffer and runs the base side's
``eval_predicate`` over them.
Held against the row-at-a-time reference below on generated
deletes — comparisons, ranges and IN lists over integer and dictionary
columns of the fact table and of a dimension, with literals outside the
string domain or the integer width, after an earlier delete already
marked some WOS rows — both pick the same WOS indices, and the journals
of the two stores are byte-identical.
"""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IntegrityError
from repro.plan.logical import (ColumnRef, CompareOp, Comparison, InSet,
                                RangePredicate)
from repro.simio.stats import QueryStats
from repro.write.journal import JOURNAL_FILE
from repro.write.store import LIVE, WriteStore
from tests.write.dml import clone_rows

NEW_KEY = 10 ** 6
#: integers outside every column's int32 width, and a few inside
WIDE = (2 ** 31, -2 ** 31 - 1, 10 ** 12, -10 ** 12)
#: strings no dictionary holds, between and beyond its entries
FOREIGN = ("", "A", "ASIAN", "MAIL ", "ZZZ", "ALGERIA  05")

COLUMNS = {
    "lineorder": ("quantity", "discount", "tax", "orderdate", "shipmode",
                  "ordpriority"),
    "supplier": ("suppkey", "city", "nation", "region"),
}


def _row_matches(values, pred):
    """One conjunct against one logical row, in Python.  String
    comparisons are plain lexicographic: the dictionaries are
    order-preserving, so this is what code-domain evaluation must give."""
    v = values[pred.column]
    if isinstance(pred, Comparison):
        return {
            CompareOp.EQ: v == pred.value,
            CompareOp.LT: v < pred.value,
            CompareOp.LE: v <= pred.value,
            CompareOp.GT: v > pred.value,
            CompareOp.GE: v >= pred.value,
        }[pred.op]
    if isinstance(pred, RangePredicate):
        return pred.low <= v <= pred.high
    return v in pred.values  # InSet


def wos_rows(store, table):
    """The WOS rows of ``table`` as (logical values, delete epoch or
    None), decoded one cell at a time."""
    wos, base = store._wos[table], store.base_table(table)
    rows = []
    for idx in range(wos.size):
        values = {}
        for col in base.columns():
            raw = int(wos.data[col.name][idx])
            values[col.name] = (raw if col.dictionary is None
                                else col.dictionary.value(raw))
        epoch = int(wos.delete_epoch[idx])
        rows.append((values, None if epoch == LIVE else epoch))
    return rows


def reference_hits(store, table, predicates):
    """The WOS rows a per-row test in Python deletes."""
    return [idx for idx, (values, deleted) in enumerate(wos_rows(store, table))
            if deleted is None
            and all(_row_matches(values, p) for p in predicates)]


def _literal(draw, wdata, table, column, wos_rows):
    col = wdata.tables[table].column(column)
    seen = [row[column] for row in wos_rows]
    if col.dictionary is not None:
        return draw(st.sampled_from(seen + list(FOREIGN)
                                    + list(col.dictionary.strings[:8])))
    return draw(st.one_of(st.sampled_from(seen), st.sampled_from(WIDE),
                          st.integers(-3, 60),
                          st.integers(NEW_KEY - 2, NEW_KEY + 12)))


@st.composite
def predicate(draw, wdata, table, wos_rows):
    column = draw(st.sampled_from(COLUMNS[table]))
    ref = ColumnRef(table, column)
    shape = draw(st.sampled_from(("cmp", "range", "in")))
    if shape == "cmp":
        return Comparison(ref, draw(st.sampled_from(list(CompareOp))),
                          _literal(draw, wdata, table, column, wos_rows))
    if shape == "range":
        low, high = sorted(_literal(draw, wdata, table, column, wos_rows)
                           for _ in range(2))
        return RangePredicate(ref, low, high)
    count = draw(st.integers(1, 4))
    return InSet(ref, tuple(_literal(draw, wdata, table, column, wos_rows)
                            for _ in range(count)))


@st.composite
def delete_case(draw, wdata):
    table = draw(st.sampled_from(sorted(COLUMNS)))
    source = wdata.tables[table]
    indices = draw(st.lists(st.integers(0, source.num_rows - 1),
                            min_size=1, max_size=30))
    rows = clone_rows(source, indices=indices)
    if table == "supplier":
        for i, row in enumerate(rows):
            row["suppkey"] = NEW_KEY + i
    deletes = [draw(st.lists(predicate(wdata, table, rows), max_size=3))
               for _ in range(2)]
    return table, rows, deletes


def _run(wdata, table, rows, deletes, check_hits):
    ws = WriteStore(dict(wdata.tables))
    ws.insert(table, rows, QueryStats())
    outcomes = []
    for predicates in deletes:
        if check_hits:
            assert ws._wos_hits(table, predicates) \
                == reference_hits(ws, table, predicates)
        try:
            outcomes.append(ws.delete(table, predicates, QueryStats()))
        except IntegrityError as exc:  # a referenced dimension row
            outcomes.append(str(exc))
    pages = list(ws.journal.disk.file(JOURNAL_FILE).pages)
    epochs = [deleted for _values, deleted in wos_rows(ws, table)]
    return outcomes, pages, epochs


@given(data=st.data())
def test_wos_delete_per_column_matches_per_row(wdata, data):
    table, rows, deletes = data.draw(delete_case(wdata))
    columnar = _run(wdata, table, rows, deletes, check_hits=True)
    with mock.patch.object(WriteStore, "_wos_hits", reference_hits):
        per_row = _run(wdata, table, rows, deletes, check_hits=False)
    assert columnar == per_row
