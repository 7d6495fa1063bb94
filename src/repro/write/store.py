"""The write-optimized store (WOS): deltas, epochs, and MVCC visibility.

Both engines stay read-optimized; accepted writes land here first, in a
row-format in-memory buffer per table, after schema and foreign-key
validation and a priced append to the redo journal.  Every accepted
batch bumps a global **epoch**; every row remembers the epoch it was
inserted and (if deleted while still in the WOS) the epoch it was
deleted.  Deletes against rows already in the read-optimized base mark
the base *position* with the deleting epoch instead of touching pages.

A reader pins an epoch and gets a :class:`Visibility`: which base fact
rows are deleted as of that epoch and which WOS fact rows are visible.
The foreign-key rules below are what keep visibility *fact-only*:

* a fact insert must reference dimension keys that exist (base or WOS);
* a dimension insert must use a fresh key;
* a dimension delete is RESTRICTed while any live fact row references it.

Consequently a dimension row reachable from a live base fact row can
never disappear, and a WOS-inserted dimension row can only be referenced
by WOS fact rows — so base-page scans need only a fact deleted-mask, and
WOS fact rows are evaluated against *effective* dimensions by the delta
evaluator (:mod:`repro.write.delta`).

The tuple mover (driven by the engines) drains the WOS: it asks for the
:meth:`WriteStore.effective_tables`, rebuilds base pages from them, and
calls :meth:`WriteStore.complete_move`, which advances the merge horizon.
Pinned epochs older than the horizon can no longer be reconstructed and
raise :class:`~repro.errors.SnapshotTooOldError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import (IntegrityError, SnapshotTooOldError,
                      WriteContentionError, WriteError)
from ..obs import Tracer
from ..plan.keys import KeyIndex
from ..plan.logical import Predicate, Value
from ..reference.predicates import eval_predicate
from ..simio.stats import QueryStats
from ..ssb.schema import FACT_SORT_KEYS, FOREIGN_KEYS
from ..storage.column import Column
from ..storage.table import SortOrder, Table
from .journal import RedoJournal

#: The one fact table of the star schema.
FACT_TABLE = "lineorder"

#: Foreign keys the write path enforces.  ``commitdate`` is exempt: SSB
#: queries never join through it, and the generator itself emits commit
#: dates with no referential guarantee the reader relies on.
VALIDATED_FOREIGN_KEYS: Dict[str, Tuple[str, str]] = {
    fk: ref for fk, ref in FOREIGN_KEYS.items() if fk != "commitdate"
}


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
class Visibility:
    """What one pinned epoch sees, reduced to the fact table.

    ``fact_deleted`` is a boolean mask over the *base* fact rows (in
    generation order) or ``None`` when no base fact row is deleted as of
    the epoch; ``fact_wos`` is a :class:`Table` of the visible WOS fact
    rows or ``None`` when there are none.  Dimension changes never
    appear here — see the module docstring for why that is sound.
    """

    epoch: int
    store: "WriteStore"
    fact_deleted: Optional[np.ndarray] = None
    fact_wos: Optional[Table] = None

    @property
    def needs_merge(self) -> bool:
        """True when visible WOS fact rows force a gather-style merge."""
        return self.fact_wos is not None

    @property
    def needs_patching(self) -> bool:
        """True when base scans must mask out deleted fact positions."""
        return self.fact_deleted is not None

    def delta_tables(self) -> Dict[str, Table]:
        """Tables for the delta evaluator: visible WOS fact rows joined
        against *effective* dimensions as of this epoch."""
        tables = {FACT_TABLE: self.fact_wos}
        for name in self.store.table_names():
            if name != FACT_TABLE:
                tables[name] = self.store.effective_table(name, self.epoch)
        return tables


class WriteStore:
    """Per-database delta store: WOS buffers, deleted maps, journal."""

    def __init__(self, tables: Dict[str, Table],
                 journal: Optional[RedoJournal] = None) -> None:
        if FACT_TABLE not in tables:
            raise WriteError(f"write store requires a {FACT_TABLE!r} table")
        self._base: Dict[str, Table] = dict(tables)
        self.epoch = 0
        #: epochs below this can no longer be reconstructed (tuple mover)
        self.horizon = 0
        self._wos: Dict[str, List[WosRow]] = {n: [] for n in tables}
        #: base position -> epoch that deleted it
        self._base_deleted: Dict[str, Dict[int, int]] = {n: {} for n in tables}
        #: an existing journal may be adopted (cold-start replay re-applies
        #: a surviving journal's tail to its checkpoint's tables)
        self.journal = (journal if journal is not None
                        else RedoJournal(tables))
        # projection-space deleted positions, keyed (epoch, sort keys)
        self._proj_cache: Dict[Tuple[int, Tuple[str, ...]], np.ndarray] = {}
        # the latest visibility: epoch E's snapshot never changes until a
        # move swaps the base at E, so complete_move clears it (the lock
        # orders that clear against a reader filling the slot)
        self._visibility: Optional[Visibility] = None
        self._slot_lock = threading.Lock()
        # batch application is not re-entrant: journal order must match
        # buffer mutation order, so a racing second writer is refused typed
        self._apply_lock = threading.Lock()

    def _enter_batch(self) -> None:
        if not self._apply_lock.acquire(blocking=False):
            raise WriteContentionError(
                "write store busy: another batch is mid-application; "
                "retry after it finishes"
            )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def table_names(self) -> List[str]:
        return sorted(self._base)

    def base_table(self, name: str) -> Table:
        try:
            return self._base[name]
        except KeyError:
            raise WriteError(f"unknown table {name!r}") from None

    def has_pending(self) -> bool:
        """Any buffered inserts or marked deletes at all?"""
        return any(self._wos.values()) or any(self._base_deleted.values())

    def pending_rows(self) -> int:
        """Rows the tuple mover would have to merge right now."""
        live = sum(
            1 for rows in self._wos.values() for r in rows
            if r.delete_epoch is None
        )
        return live + sum(len(d) for d in self._base_deleted.values())

    def pin(self) -> int:
        """Pin the current epoch for a snapshot read."""
        return self.epoch

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def insert(self, table: str, rows: Sequence[Dict[str, Value]],
               stats: QueryStats, tracer: Optional[Tracer] = None) -> int:
        """Validate, journal, and buffer a batch of inserts.

        All-or-nothing: any :class:`IntegrityError` (or a journal
        :class:`~repro.errors.WriteFaultError`) leaves the store exactly
        as it was.  Returns the number of rows inserted.
        """
        self._enter_batch()
        try:
            base = self.base_table(table)
            if not rows:
                return 0
            checked = self._validate_rows(table, base, rows)
            if table == FACT_TABLE:
                self._check_fact_references(checked)
            else:
                self._check_dimension_uniqueness(table, base, checked)
            new_epoch = self.epoch + 1
            self.journal.append(
                {"op": "insert", "table": table, "epoch": new_epoch,
                 "rows": checked},
                stats, tracer,
            )
            # buffer first, publish the epoch last: a reader never pins an
            # epoch whose rows are not buffered yet
            self._wos[table].extend(
                WosRow(values=r, insert_epoch=new_epoch) for r in checked
            )
            self.epoch = new_epoch
            return len(checked)
        finally:
            self._apply_lock.release()

    def delete(self, table: str, predicates: Sequence[Predicate],
               stats: QueryStats, tracer: Optional[Tracer] = None) -> int:
        """Mark every visible row of ``table`` matching all ``predicates``
        as deleted.  Dimension deletes are RESTRICTed while referenced.
        Returns the number of rows deleted (0 is not an error)."""
        self._enter_batch()
        try:
            return self._delete_locked(table, predicates, stats, tracer)
        finally:
            self._apply_lock.release()

    def _delete_locked(self, table: str, predicates: Sequence[Predicate],
                       stats: QueryStats, tracer: Optional[Tracer]) -> int:
        base = self.base_table(table)
        for p in predicates:
            if p.table != table:
                raise IntegrityError(
                    f"delete from {table!r} has a predicate on {p.table!r}"
                )
            base.column(p.column)  # SchemaError if absent
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
        # "wos" holds indices into the per-table WOS list at delete time —
        # replayable because the list only ever appends between moves, so
        # replay reconstructs the identical list and the indices land on
        # the identical rows
        self.journal.append(
            {"op": "delete", "table": table, "epoch": new_epoch,
             "predicates": [str(p) for p in predicates],
             "base_positions": base_hits, "wos": wos_hits,
             "wos_rows": len(wos_hits)},
            stats, tracer,
        )
        for pos in base_hits:
            deleted_map[pos] = new_epoch
        for idx in wos_hits:
            wos[idx].delete_epoch = new_epoch
        self.epoch = new_epoch
        return len(base_hits) + len(wos_hits)

    def _wos_hits(self, table: str, predicates: Sequence[Predicate]
                  ) -> List[int]:
        """Indices of the undeleted WOS rows of ``table`` that match every
        conjunct, evaluated per column exactly as on the base side."""
        wos = self._wos[table]
        live = [idx for idx, row in enumerate(wos) if row.delete_epoch is None]
        rows = [wos[idx] for idx in live]
        base = self._base[table]
        mask = np.ones(len(live), dtype=bool)
        columns: Dict[str, Column] = {}
        for p in predicates:
            if p.column not in columns:
                columns[p.column] = _wos_column(base.column(p.column), rows)
            mask &= eval_predicate(columns[p.column], p)
        return [live[i] for i in np.flatnonzero(mask)]

    # ------------------------------------------------------------------ #
    # replay (cold-start recovery)
    # ------------------------------------------------------------------ #
    def apply_record(self, record: Dict) -> None:
        """Re-apply one journaled record without re-journaling it.

        Used only by :mod:`repro.write.recovery`: records are replayed in
        LSN order against the journal checkpoint's tables, so validation
        already ran when the record was first accepted and is skipped.
        """
        op = record.get("op")
        epoch = int(record.get("epoch", -1))
        if op in ("insert", "delete") and epoch != self.epoch + 1:
            raise WriteError(
                f"journal replay out of order: record epoch {epoch} after "
                f"store epoch {self.epoch}"
            )
        if op == "insert":
            self._wos[record["table"]].extend(
                WosRow(values=dict(r), insert_epoch=epoch)
                for r in record["rows"]
            )
            self.epoch = epoch
        elif op == "delete":
            deleted_map = self._base_deleted[record["table"]]
            for pos in record["base_positions"]:
                deleted_map[int(pos)] = epoch
            wos = self._wos[record["table"]]
            for idx in record.get("wos", ()):
                wos[int(idx)].delete_epoch = epoch
            self.epoch = epoch
        elif op == "move":
            if epoch != self.epoch:
                raise WriteError(
                    f"journal replay: move record at epoch {epoch} does "
                    f"not match store epoch {self.epoch}"
                )
            self.complete_move(self.effective_tables())
        else:
            raise WriteError(f"journal replay: unknown op {op!r}")

    @classmethod
    def recover(cls, journal: RedoJournal,
                committed_lsn: Optional[int] = None,
                stats: Optional[QueryStats] = None,
                tracer: Optional[Tracer] = None) -> "WriteStore":
        """Cold-start replay: rebuild a store from a surviving
        ``journal`` — its checkpoint plus the records after it (see
        :mod:`repro.write.recovery`).

        Returns the recovered store; its :class:`RecoveryReport` is left
        on ``store.last_recovery``.
        """
        from .recovery import recover_store
        store, report = recover_store(journal, committed_lsn, stats,
                                      tracer)
        store.last_recovery = report
        return store

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def _validate_rows(self, table: str, base: Table,
                       rows: Sequence[Dict[str, Value]]
                       ) -> List[Dict[str, Value]]:
        """Check every row against the schema, in row then column order;
        the column set and per-column plan are built once per batch."""
        expected = set(base.column_names)
        plan = []
        for col in base.columns():
            if col.dictionary is not None:
                plan.append((col.name, col.dictionary, 0, 0))
            else:
                info = np.iinfo(col.data.dtype)
                plan.append((col.name, None, int(info.min), int(info.max)))
        checked: List[Dict[str, Value]] = []
        for row in rows:
            if row.keys() != expected:
                got = set(row)
                missing, extra = expected - got, got - expected
                raise IntegrityError(
                    f"insert into {table!r}: row must supply exactly the "
                    f"schema columns (missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)})"
                )
            out: Dict[str, Value] = {}
            for name, dictionary, low, high in plan:
                value = row[name]
                if dictionary is not None:
                    if not isinstance(value, str):
                        raise IntegrityError(
                            f"insert into {table!r}.{name}: expected a "
                            f"string, got {value!r}"
                        )
                    if value not in dictionary:
                        raise IntegrityError(
                            f"insert into {table!r}.{name}: {value!r} is "
                            f"outside the column's fixed string domain"
                        )
                    out[name] = value
                else:
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise IntegrityError(
                            f"insert into {table!r}.{name}: expected an "
                            f"integer, got {value!r}"
                        )
                    if not low <= value <= high:
                        raise IntegrityError(
                            f"insert into {table!r}.{name}: {value} does "
                            f"not fit the stored width"
                        )
                    out[name] = int(value)
            checked.append(out)
        return checked

    def _missing_keys(self, dim: str, key_column: str,
                      keys: Sequence[int]) -> np.ndarray:
        """Mask over ``keys``: True where no live ``dim`` row (base minus
        deleted positions, plus undeleted WOS rows) has that key."""
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
        # first failing foreign key, then first failing row within it
        for fk, (dim, key_column) in VALIDATED_FOREIGN_KEYS.items():
            missing = self._missing_keys(dim, key_column,
                                         [row[fk] for row in rows])
            if missing.any():
                row = rows[int(np.argmax(missing))]
                raise IntegrityError(
                    f"insert into {FACT_TABLE!r}: {fk}={row[fk]} "
                    f"references no live {dim!r} row"
                )

    def _check_dimension_uniqueness(self, table: str, base: Table,
                                    rows: Sequence[Dict[str, Value]]
                                    ) -> None:
        key_column = base.columns()[0].name
        keys = [row[key_column] for row in rows]
        batch = np.asarray(keys, dtype=np.int64)
        # a duplicate: a live row or an earlier row of the batch has it
        _found, first = KeyIndex(batch).lookup(batch)
        duplicate = ((first != np.arange(len(batch)))
                     | ~self._missing_keys(table, key_column, batch))
        if duplicate.any():
            key = keys[int(np.argmax(duplicate))]
            raise IntegrityError(
                f"insert into {table!r}: duplicate key "
                f"{key_column}={key}"
            )

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
                    f"{fk}={int(fact.column(fk).data[pos])}"
                )
            for row in self._wos[FACT_TABLE]:
                if row.delete_epoch is None and int(row.values[fk]) in keys:
                    raise IntegrityError(
                        f"delete from {dim!r} RESTRICTed: buffered "
                        f"{FACT_TABLE!r} row references {fk}="
                        f"{row.values[fk]}"
                    )

    # ------------------------------------------------------------------ #
    # snapshot reads
    # ------------------------------------------------------------------ #
    def visibility(self, epoch: Optional[int] = None) -> Visibility:
        """What a reader pinned at ``epoch`` (default: now) may see.

        Every read pinned at one epoch shares one read-only WOS image,
        kept in a slot that a move clears; an image of a future epoch,
        or one built while a move landed, is not kept.  Reads are not
        ordered against writes here (QueryService's engine locks do).
        """
        if epoch is None:
            epoch = self.epoch
        if epoch < self.horizon:
            raise SnapshotTooOldError(
                f"epoch {epoch} predates the merge horizon {self.horizon}; "
                f"pin a fresh epoch and retry"
            )
        slot = self._visibility
        if slot is not None and slot.epoch == epoch:
            return slot
        fact, horizon = self._base[FACT_TABLE], self.horizon
        deleted = [pos for pos, ep in self._base_deleted[FACT_TABLE].items()
                   if ep <= epoch]
        mask: Optional[np.ndarray] = None
        if deleted:
            mask = np.zeros(fact.num_rows, dtype=bool)
            mask[np.asarray(deleted, dtype=np.int64)] = True
            mask.flags.writeable = False
        visible = [r for r in self._wos[FACT_TABLE] if r.visible_at(epoch)]
        wos_table = self._rows_as_table(FACT_TABLE, visible)
        image = Visibility(epoch=epoch, store=self, fact_deleted=mask,
                           fact_wos=wos_table)
        with self._slot_lock:
            # a future epoch may still gain rows, and a move that landed
            # mid-build made this image stale
            if (epoch <= self.epoch and self._base[FACT_TABLE] is fact
                    and self.horizon == horizon):
                self._visibility = image
        return image

    def effective_table(self, name: str, epoch: Optional[int] = None
                        ) -> Table:
        """``name`` as of ``epoch`` with all deltas applied.

        A table with no visible changes is returned as the *same* base
        object (preserving its original sort metadata); a changed fact
        table is re-sorted on :data:`FACT_SORT_KEYS`, a changed dimension
        ascending on its key — the orders a cold rebuild would produce.
        """
        if epoch is None:
            epoch = self.epoch
        if epoch < self.horizon:
            raise SnapshotTooOldError(
                f"epoch {epoch} predates the merge horizon {self.horizon}"
            )
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
        wos_table = self._rows_as_table(name, visible)
        merged = _concat_tables(name, base, kept, wos_table)
        if name == FACT_TABLE:
            return merged.sort_by(FACT_SORT_KEYS)
        return merged.sort_by((base.columns()[0].name,))

    def effective_tables(self, epoch: Optional[int] = None
                         ) -> Dict[str, Table]:
        """Every table as of ``epoch`` (the tuple mover's input)."""
        return {n: self.effective_table(n, epoch) for n in self._base}

    def deleted_fact_positions_sorted(
        self, sort_keys: Tuple[str, ...], epoch: int
    ) -> np.ndarray:
        """Deleted base fact rows as positions in the projection whose
        sort order is ``sort_keys`` (cached per (epoch, keys)).

        The default fact projection shares the base order, so positions
        are the base row numbers; other projections permute by lexsort
        exactly as :meth:`Table.sort_by` does.
        """
        key = (epoch, tuple(sort_keys))
        cached = self._proj_cache.get(key)
        if cached is not None:
            return cached
        base = self._base[FACT_TABLE]
        deleted = np.asarray(
            sorted(pos for pos, ep in self._base_deleted[FACT_TABLE].items()
                   if ep <= epoch),
            dtype=np.int64,
        )
        if len(deleted) and tuple(sort_keys) not in ((), base.sort_order.keys):
            perm = np.lexsort(
                [base.column(k).data for k in reversed(sort_keys)]
            )
            inverse = np.empty(base.num_rows, dtype=np.int64)
            inverse[perm] = np.arange(base.num_rows, dtype=np.int64)
            deleted = np.sort(inverse[deleted])
        self._proj_cache[key] = deleted
        return deleted

    # ------------------------------------------------------------------ #
    # tuple mover hand-off
    # ------------------------------------------------------------------ #
    def complete_move(self, tables: Dict[str, Table]) -> None:
        """Adopt the rebuilt base tables; advance the merge horizon.

        Called by an engine's tuple mover *after* its shadow rebuild
        succeeded and was swapped in, before it checkpoints the journal.
        Epochs below the new horizon are gone.
        """
        if set(tables) != set(self._base):
            raise WriteError(
                f"tuple move must cover every table; got {sorted(tables)}"
            )
        with self._slot_lock:
            self._base = dict(tables)
            self._wos = {n: [] for n in tables}
            self._base_deleted = {n: {} for n in tables}
            self._proj_cache.clear()
            self._visibility = None
            self.horizon = self.epoch

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _rows_as_table(self, name: str, rows: Sequence[WosRow]
                       ) -> Optional[Table]:
        """Materialize WOS rows columnar, borrowing the base's types and
        (fixed-domain) dictionaries.  None when ``rows`` is empty."""
        if not rows:
            return None
        return Table(name, [_wos_column(col, rows)
                            for col in self._base[name].columns()],
                     SortOrder(()))


def _wos_column(col: Column, rows: Sequence[WosRow]) -> Column:
    """``rows``' values of ``col`` as a column of the same type (strings
    as codes of its fixed-domain dictionary)."""
    if col.dictionary is not None:
        values = [col.dictionary.code(r.values[col.name]) for r in rows]
    else:
        values = [r.values[col.name] for r in rows]
    return Column(col.name, col.ctype,
                  np.asarray(values, dtype=col.data.dtype), col.dictionary)


def _concat_tables(name: str, base: Table, kept: Table,
                   wos: Optional[Table]) -> Table:
    """Surviving base rows followed by WOS rows, column by column."""
    if wos is None:
        return kept
    columns: List[Column] = []
    for col in base.columns():
        data = np.concatenate(
            [kept.column(col.name).data, wos.column(col.name).data]
        )
        columns.append(Column(col.name, col.ctype, data, col.dictionary))
    return Table(name, columns, SortOrder(()))


def projection_deleted_positions(table: Table, sort_keys: Sequence[str],
                                 deleted_mask: np.ndarray) -> np.ndarray:
    """Deleted row numbers of ``table`` mapped into the position space of
    a projection sorted on ``sort_keys``.

    The default fact projection keeps the table's own order, so positions
    are the row numbers themselves; any other projection permutes by the
    same stable lexsort :meth:`Table.sort_by` (and projection creation)
    uses, so the mapping is exact.
    """
    deleted = np.flatnonzero(deleted_mask).astype(np.int64)
    keys = tuple(sort_keys)
    if len(deleted) == 0 or not keys or table.sort_order.keys == keys:
        return deleted
    perm = np.lexsort([table.column(k).data for k in reversed(keys)])
    inverse = np.empty(table.num_rows, dtype=np.int64)
    inverse[perm] = np.arange(table.num_rows, dtype=np.int64)
    return np.sort(inverse[deleted])


__all__ = [
    "WriteStore",
    "Visibility",
    "WosRow",
    "FACT_TABLE",
    "VALIDATED_FOREIGN_KEYS",
    "projection_deleted_positions",
]
