"""The row-format WOS ``WriteStore`` replaced.

Before the write store kept its buffered rows column-major, every
buffered row was a Python dict with its MVCC interval beside it
(``WosRow``), and every consumer walked those dicts: the epoch image,
the effective tables (surviving base rows, then WOS rows, re-sorted by a
stable ``sort_by``), DELETE's WOS matches, the foreign-key checks and
the pending count.  That logic stays here, trimmed to what the write
path does, as the test-only reference of the columnar WOS's differential
property: fed the same batches, both stores agree on every outcome,
error text, image, effective table, pending count and journal byte.
Validation is :func:`reference_validate_rows`, itself the reference of
the per-column validation.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import IntegrityError, WriteError
from repro.plan.keys import KeyIndex
from repro.plan.logical import Predicate, Value
from repro.plan.predicates import eval_predicate
from repro.simio.stats import QueryStats
from repro.ssb.schema import FACT_SORT_KEYS
from repro.storage.column import Column
from repro.storage.table import SortOrder, Table
from repro.write.journal import RedoJournal
from repro.write.recovery import scan_journal
from repro.write.store import FACT_TABLE, VALIDATED_FOREIGN_KEYS
from tests.write.reference_validate import reference_validate_rows


@dataclass
class WosRow:
    """One buffered row: logical values plus its MVCC interval."""

    values: Dict[str, Value]
    insert_epoch: int
    delete_epoch: Optional[int] = None

    def visible_at(self, epoch: int) -> bool:
        if self.insert_epoch > epoch:
            return False
        return self.delete_epoch is None or self.delete_epoch > epoch


@dataclass
class RowImage:
    """What one pinned epoch sees: the fields of a ``Visibility``."""

    epoch: int
    fact_deleted: Optional[np.ndarray]
    fact_wos: Optional[Table]


class RowWriteStore:
    """The row-format delta store: WOS rows, deleted maps, journal."""

    def __init__(self, tables: Dict[str, Table],
                 journal: Optional[RedoJournal] = None) -> None:
        self._base: Dict[str, Table] = dict(tables)
        self.epoch = 0
        self.horizon = 0
        self._wos: Dict[str, List[WosRow]] = {n: [] for n in tables}
        self._base_deleted: Dict[str, Dict[int, int]] = {
            n: {} for n in tables}
        self.journal = (journal if journal is not None
                        else RedoJournal(tables))

    @classmethod
    def replay(cls, journal: RedoJournal) -> "RowWriteStore":
        """A store rebuilt from ``journal``'s checkpoint and records."""
        checkpoint = journal.checkpoint
        store = cls(checkpoint.tables, journal=journal)
        store.epoch = store.horizon = checkpoint.epoch
        records, _torn = scan_journal(journal, QueryStats())
        for rec in records:
            store.apply_record(rec.record)
        return store

    def base_table(self, name: str) -> Table:
        try:
            return self._base[name]
        except KeyError:
            raise WriteError(f"unknown table {name!r}") from None

    def has_pending(self) -> bool:
        return any(self._wos.values()) or any(self._base_deleted.values())

    def pending_rows(self) -> int:
        live = sum(1 for rows in self._wos.values() for r in rows
                   if r.delete_epoch is None)
        return live + sum(len(d) for d in self._base_deleted.values())

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def insert(self, table: str, rows: Sequence[Dict[str, Value]],
               stats: QueryStats) -> int:
        base = self.base_table(table)
        if not rows:
            return 0
        checked = reference_validate_rows(table, base, rows)
        if table == FACT_TABLE:
            self._check_fact_references(checked)
        else:
            self._check_dimension_uniqueness(table, base, checked)
        new_epoch = self.epoch + 1
        self.journal.append({"op": "insert", "table": table,
                             "epoch": new_epoch, "rows": checked}, stats)
        self._wos[table].extend(
            WosRow(values=r, insert_epoch=new_epoch) for r in checked)
        self.epoch = new_epoch
        return len(checked)

    def delete(self, table: str, predicates: Sequence[Predicate],
               stats: QueryStats) -> int:
        base = self.base_table(table)
        for p in predicates:
            if p.table != table:
                raise IntegrityError(
                    f"delete from {table!r} has a predicate on {p.table!r}")
            base.column(p.column)
        deleted_map = self._base_deleted[table]
        mask = np.ones(base.num_rows, dtype=bool)
        for p in predicates:
            mask &= eval_predicate(base.column(p.column), p)
        base_hits = [int(pos) for pos in np.flatnonzero(mask)
                     if int(pos) not in deleted_map]
        wos = self._wos[table]
        wos_hits = self._wos_hits(table, predicates)
        if not base_hits and not wos_hits:
            return 0
        if table != FACT_TABLE:
            key_column = base.columns()[0].name
            keys = {base.column(key_column).data[pos] for pos in base_hits}
            keys |= {wos[idx].values[key_column] for idx in wos_hits}
            self._check_dimension_unreferenced(table, key_column,
                                               {int(k) for k in keys})
        new_epoch = self.epoch + 1
        self.journal.append(
            {"op": "delete", "table": table, "epoch": new_epoch,
             "predicates": [str(p) for p in predicates],
             "base_positions": base_hits, "wos": wos_hits,
             "wos_rows": len(wos_hits)}, stats)
        for pos in base_hits:
            deleted_map[pos] = new_epoch
        for idx in wos_hits:
            wos[idx].delete_epoch = new_epoch
        self.epoch = new_epoch
        return len(base_hits) + len(wos_hits)

    def _wos_hits(self, table: str, predicates: Sequence[Predicate]
                  ) -> List[int]:
        wos = self._wos[table]
        live = [idx for idx, row in enumerate(wos)
                if row.delete_epoch is None]
        rows = [wos[idx] for idx in live]
        base = self._base[table]
        mask = np.ones(len(live), dtype=bool)
        for p in predicates:
            mask &= eval_predicate(_wos_column(base.column(p.column), rows),
                                   p)
        return [live[i] for i in np.flatnonzero(mask)]

    def apply_record(self, record: Dict) -> None:
        op, epoch = record["op"], int(record["epoch"])
        if op == "insert":
            self._wos[record["table"]].extend(
                WosRow(values=dict(r), insert_epoch=epoch)
                for r in record["rows"])
            self.epoch = epoch
        elif op == "delete":
            deleted_map = self._base_deleted[record["table"]]
            for pos in record["base_positions"]:
                deleted_map[int(pos)] = epoch
            wos = self._wos[record["table"]]
            for idx in record.get("wos", ()):
                wos[int(idx)].delete_epoch = epoch
            self.epoch = epoch
        else:
            self.complete_move(self.effective_tables())

    # ------------------------------------------------------------------ #
    # foreign keys
    # ------------------------------------------------------------------ #
    def _missing_keys(self, dim: str, key_column: str,
                      keys: Sequence[int]) -> np.ndarray:
        data = self._base[dim].column(key_column).data
        deleted = self._base_deleted[dim]
        if deleted:
            live = np.ones(len(data), dtype=bool)
            live[np.fromiter(deleted, dtype=np.int64)] = False
            data = data[live]
        wos = [row.values[key_column] for row in self._wos[dim]
               if row.delete_epoch is None]
        known = KeyIndex(np.concatenate([data.astype(np.int64),
                                         np.asarray(wos, dtype=np.int64)]))
        found, _rows = known.lookup(np.asarray(keys, dtype=np.int64))
        return ~found

    def _check_fact_references(self, rows: Sequence[Dict[str, Value]]
                               ) -> None:
        for fk, (dim, key_column) in VALIDATED_FOREIGN_KEYS.items():
            missing = self._missing_keys(dim, key_column,
                                         [row[fk] for row in rows])
            if missing.any():
                row = rows[int(np.argmax(missing))]
                raise IntegrityError(
                    f"insert into {FACT_TABLE!r}: {fk}={row[fk]} "
                    f"references no live {dim!r} row")

    def _check_dimension_uniqueness(self, table: str, base: Table,
                                    rows: Sequence[Dict[str, Value]]
                                    ) -> None:
        key_column = base.columns()[0].name
        keys = [row[key_column] for row in rows]
        batch = np.asarray(keys, dtype=np.int64)
        _found, first = KeyIndex(batch).lookup(batch)
        duplicate = ((first != np.arange(len(batch)))
                     | ~self._missing_keys(table, key_column, batch))
        if duplicate.any():
            key = keys[int(np.argmax(duplicate))]
            raise IntegrityError(
                f"insert into {table!r}: duplicate key {key_column}={key}")

    def _check_dimension_unreferenced(self, dim: str, key_column: str,
                                      keys: Set[int]) -> None:
        fact = self._base[FACT_TABLE]
        deleted = self._base_deleted[FACT_TABLE]
        keys_arr = np.fromiter(sorted(keys), dtype=np.int64)
        for fk, (ref_dim, _key) in VALIDATED_FOREIGN_KEYS.items():
            if ref_dim != dim:
                continue
            hits = np.isin(fact.column(fk).data.astype(np.int64), keys_arr)
            if deleted:
                hits[np.fromiter(deleted, dtype=np.int64)] = False
            if bool(hits.any()):
                pos = int(np.flatnonzero(hits)[0])
                raise IntegrityError(
                    f"delete from {dim!r} RESTRICTed: live "
                    f"{FACT_TABLE!r} row {pos} references "
                    f"{fk}={int(fact.column(fk).data[pos])}")
            for row in self._wos[FACT_TABLE]:
                if row.delete_epoch is None and int(row.values[fk]) in keys:
                    raise IntegrityError(
                        f"delete from {dim!r} RESTRICTed: buffered "
                        f"{FACT_TABLE!r} row references {fk}="
                        f"{row.values[fk]}")

    # ------------------------------------------------------------------ #
    # snapshot reads and the mover
    # ------------------------------------------------------------------ #
    def visibility(self, epoch: int) -> RowImage:
        fact = self._base[FACT_TABLE]
        deleted = [pos for pos, ep in self._base_deleted[FACT_TABLE].items()
                   if ep <= epoch]
        mask = None
        if deleted:
            mask = np.zeros(fact.num_rows, dtype=bool)
            mask[np.asarray(deleted, dtype=np.int64)] = True
        visible = [r for r in self._wos[FACT_TABLE] if r.visible_at(epoch)]
        return RowImage(epoch, mask, self._rows_as_table(FACT_TABLE, visible))

    def effective_table(self, name: str, epoch: Optional[int] = None
                        ) -> Table:
        if epoch is None:
            epoch = self.epoch
        base = self.base_table(name)
        deleted = [pos for pos, ep in self._base_deleted[name].items()
                   if ep <= epoch]
        visible = [r for r in self._wos[name] if r.visible_at(epoch)]
        if not deleted and not visible:
            return base
        if deleted:
            live = np.ones(base.num_rows, dtype=bool)
            live[np.asarray(deleted, dtype=np.int64)] = False
            kept = base.take(np.flatnonzero(live))
        else:
            kept = base
        merged = concat_tables(name, base, kept,
                               self._rows_as_table(name, visible))
        if name == FACT_TABLE:
            return merged.sort_by(FACT_SORT_KEYS)
        return merged.sort_by((base.columns()[0].name,))

    def effective_tables(self, epoch: Optional[int] = None
                         ) -> Dict[str, Table]:
        return {n: self.effective_table(n, epoch) for n in self._base}

    def complete_move(self, tables: Dict[str, Table]) -> None:
        self._base = dict(tables)
        self._wos = {n: [] for n in tables}
        self._base_deleted = {n: {} for n in tables}
        self.horizon = self.epoch

    def _rows_as_table(self, name: str, rows: Sequence[WosRow]
                       ) -> Optional[Table]:
        if not rows:
            return None
        return Table(name, [_wos_column(col, rows)
                            for col in self._base[name].columns()],
                     SortOrder(()))


def _wos_column(col: Column, rows: Sequence[WosRow]) -> Column:
    if col.dictionary is not None:
        values = [col.dictionary.code(r.values[col.name]) for r in rows]
    else:
        values = [r.values[col.name] for r in rows]
    return Column(col.name, col.ctype,
                  np.asarray(values, dtype=col.data.dtype), col.dictionary)


def concat_tables(name: str, base: Table, kept: Table,
                  wos: Optional[Table]) -> Table:
    """Surviving base rows followed by WOS rows, column by column: the
    input today's stable ``sort_by`` orders."""
    if wos is None:
        return kept
    columns = []
    for col in base.columns():
        data = np.concatenate([kept.column(col.name).data,
                               wos.column(col.name).data])
        columns.append(Column(col.name, col.ctype, data, col.dictionary))
    return Table(name, columns, SortOrder(()))
