"""The write-optimized store (WOS): deltas, epochs, and MVCC visibility.

Both engines stay read-optimized; accepted writes land here first, in an
in-memory column buffer per table, after schema and foreign-key
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
from operator import itemgetter
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from ..errors import (IntegrityError, SnapshotTooOldError,
                      WriteContentionError, WriteError)
from ..obs import Tracer
from ..plan.keys import KeyIndex
from ..plan.logical import Predicate, Value
from ..plan.predicates import eval_predicate
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


#: ``delete_epoch`` of a buffered row that no delete has reached
LIVE = np.iinfo(np.int64).max


class WosBuffer:
    """One table's buffered rows: an array per column (strings as
    codes), each row's MVCC interval, and the count of unmarked rows.
    Rows only append between moves, so journaled deletes name a WOS row
    by its index.  The arrays grow by doubling, so a batch costs its own
    rows (amortised); an append publishes ``size`` last and readers
    slice by it, so a racing reader never sees half a row."""

    def __init__(self, base: Table) -> None:
        self.data: Dict[str, np.ndarray] = {
            col.name: col.data[:0] for col in base.columns()}
        self.delete_epoch = np.zeros(0, dtype=np.int64)
        self.insert_epoch = np.zeros(0, dtype=np.int64)
        self.size = 0
        self.live = 0

    def append(self, columns: Dict[str, np.ndarray], epoch: int) -> None:
        start = self.size
        end = start + len(next(iter(columns.values())))
        if end > len(self.insert_epoch):  # full: copy into twice the room
            capacity = max(2 * end, 64)
            self.data = {name: _grown(data, start, capacity)
                         for name, data in self.data.items()}
            self.delete_epoch = _grown(self.delete_epoch, start, capacity)
            self.insert_epoch = _grown(self.insert_epoch, start, capacity)
        for name, values in columns.items():
            self.data[name][start:end] = values
        self.delete_epoch[start:end] = LIVE
        self.insert_epoch[start:end] = epoch
        self.live += end - start
        self.size = end

    def mark_deleted(self, rows: Sequence[int], epoch: int) -> None:
        self.delete_epoch[np.asarray(rows, dtype=np.int64)] = epoch
        self.live -= len(rows)

    def visible_rows(self, epoch: int = LIVE - 1) -> np.ndarray:
        """Indices of the rows a reader pinned at ``epoch`` sees (by
        default, every row no delete has marked)."""
        size = self.size
        return np.flatnonzero((self.insert_epoch[:size] <= epoch)
                              & (self.delete_epoch[:size] > epoch))

    def column(self, col: Column, rows: np.ndarray) -> Column:
        """``rows`` of base column ``col`` as a column of the same type."""
        return Column(col.name, col.ctype, self.data[col.name][rows],
                      col.dictionary)


def _grown(data: np.ndarray, used: int, capacity: int) -> np.ndarray:
    """A ``capacity``-row array starting with ``data``'s first ``used``."""
    out = np.empty(capacity, dtype=data.dtype)
    out[:used] = data[:used]
    return out


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
    #: values built once per image: effective dimensions, their key
    #: indexes, the engines' delete masks
    _memo: Dict[Tuple, Any] = field(default_factory=dict, repr=False)

    @property
    def needs_merge(self) -> bool:
        """True when visible WOS fact rows force a gather-style merge."""
        return self.fact_wos is not None

    @property
    def needs_patching(self) -> bool:
        """True when base scans must mask out deleted fact positions."""
        return self.fact_deleted is not None

    def memo(self, key: Tuple, build: Callable[[], Any]) -> Any:
        """``build()``, computed on first use and kept with this image
        (every read pinned at its epoch shares it)."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def delta_tables(self) -> Dict[str, Table]:
        """Tables for the delta evaluator: visible WOS fact rows joined
        against *effective* dimensions as of this epoch."""
        dimensions = self.memo(("dimensions",), lambda: {
            name: self.store.effective_table(name, self.epoch)
            for name in self.store.table_names() if name != FACT_TABLE})
        return {FACT_TABLE: self.fact_wos, **dimensions}

    def key_index(self, dim: str, key_column: str) -> KeyIndex:
        """A :class:`KeyIndex` over effective ``dim``'s ``key_column``."""
        return self.memo(("key_index", dim, key_column), lambda: KeyIndex(
            self.delta_tables()[dim].column(key_column).data))


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
        self._wos = {n: WosBuffer(t) for n, t in tables.items()}
        #: base position -> epoch that deleted it
        self._base_deleted: Dict[str, Dict[int, int]] = {n: {} for n in tables}
        #: per dimension, a KeyIndex over its live keys (FK checks)
        self._key_indexes: Dict[str, KeyIndex] = {}
        #: an existing journal may be adopted (cold-start replay re-applies
        #: a surviving journal's tail to its checkpoint's tables)
        self.journal = (journal if journal is not None
                        else RedoJournal(tables))
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
        return (any(wos.size for wos in self._wos.values())
                or any(self._base_deleted.values()))

    def pending_rows(self) -> int:
        """Rows the tuple mover would have to merge right now."""
        return (sum(wos.live for wos in self._wos.values())
                + sum(map(len, self._base_deleted.values())))

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
            checked, columns = self._validate_rows(table, base, rows)
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
            self._buffer(table, columns, new_epoch)
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
            keys |= set(wos.data[key_column][wos_hits].tolist())
            self._check_dimension_unreferenced(table, key_column,
                                               {int(k) for k in keys})
        new_epoch = self.epoch + 1
        # "wos" holds row indices into the table's WOS at delete time —
        # replayable because the WOS only ever appends between moves, so
        # replay reconstructs the identical buffer and the indices land on
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
        wos.mark_deleted(wos_hits, new_epoch)
        self._key_indexes.pop(table, None)
        self.epoch = new_epoch
        return len(base_hits) + len(wos_hits)

    def _wos_hits(self, table: str, predicates: Sequence[Predicate]
                  ) -> List[int]:
        """Indices of the undeleted WOS rows of ``table`` that match every
        conjunct, evaluated per column exactly as on the base side."""
        wos, base = self._wos[table], self._base[table]
        live = wos.visible_rows()
        mask = np.ones(len(live), dtype=bool)
        for p in predicates:
            mask &= eval_predicate(wos.column(base.column(p.column), live), p)
        return live[mask].tolist()

    def _buffer(self, table: str, columns: Sequence[Sequence[Value]],
                epoch: int) -> None:
        """Buffer checked values (columns in schema order) at ``epoch``."""
        arrays = {}
        for col, values in zip(self._base[table].columns(), columns):
            if col.dictionary is not None:
                values = col.dictionary.encode(values)
            arrays[col.name] = np.asarray(values, dtype=col.data.dtype)
        self._wos[table].append(arrays, epoch)
        self._key_indexes.pop(table, None)

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
            table, rows = record["table"], record["rows"]
            self._buffer(table, [[row[name] for row in rows] for name
                                 in self._base[table].column_names], epoch)
            self.epoch = epoch
        elif op == "delete":
            deleted_map = self._base_deleted[record["table"]]
            for pos in record["base_positions"]:
                deleted_map[int(pos)] = epoch
            self._wos[record["table"]].mark_deleted(record.get("wos", ()),
                                                    epoch)
            self._key_indexes.pop(record["table"], None)
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
                       ) -> Tuple[List[Dict[str, Value]], List[List[Value]]]:
        """Check ``rows`` against the schema one column at a time and
        return copies of them, plus their values column by column in
        schema order.  A failure reports what a walk in row then column
        order meets first: a row's column set before its cells, its
        cells in schema order."""
        names = base.column_names
        expected = set(names)
        try:
            columns = [list(map(itemgetter(name), rows)) for name in names]
            shaped = set(map(len, rows)) <= {len(names)}
        except KeyError:
            shaped = False
        if not shaped:  # check the cells of the rows before the bad one
            limit = next(i for i, row in enumerate(rows)
                         if row.keys() != expected)
            columns = [list(map(itemgetter(name), rows[:limit]))
                       for name in names]
        failures, converted = [], False
        for index, (col, values) in enumerate(zip(base.columns(), columns)):
            if _column_fits(col, values):
                continue
            failure = next(((row, index, problem)
                            for row, value in enumerate(values)
                            if (problem := _cell_problem(col, value))),
                           None)
            if failure is not None:
                failures.append(failure)
            elif col.dictionary is None:  # int subclasses, stored as int
                columns[index] = list(map(int, values))
                converted = True
        if failures:
            _row, index, problem = min(failures)
            raise IntegrityError(
                f"insert into {table!r}.{names[index]}: {problem}")
        if not shaped:
            got = set(rows[limit])
            raise IntegrityError(
                f"insert into {table!r}: row must supply exactly the "
                f"schema columns (missing {sorted(expected - got)}, "
                f"unexpected {sorted(got - expected)})"
            )
        return ([dict(zip(names, cells)) for cells in zip(*columns)]
                if converted else list(map(dict, rows))), columns

    def _missing_keys(self, dim: str, key_column: str,
                      keys: Sequence[int]) -> np.ndarray:
        """Mask over ``keys``: True where no live ``dim`` row (base minus
        deleted positions, plus undeleted WOS rows) has that key; the
        index is kept until ``dim`` is written or a move lands."""
        known = self._key_indexes.get(dim)
        if known is None:
            data = np.delete(self._base[dim].column(key_column).data,
                             list(self._base_deleted[dim]))
            wos = self._wos[dim]
            known = self._key_indexes[dim] = KeyIndex(np.concatenate(
                [data, wos.data[key_column][wos.visible_rows()]]
            ).astype(np.int64))
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
            wos = self._wos[FACT_TABLE]
            refs = wos.data[fk][wos.visible_rows()]
            buffered = np.flatnonzero(np.isin(refs, keys_arr))
            if len(buffered):
                raise IntegrityError(
                    f"delete from {dim!r} RESTRICTed: buffered "
                    f"{FACT_TABLE!r} row references {fk}="
                    f"{int(refs[buffered[0]])}"
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
        image = Visibility(epoch=epoch, store=self, fact_deleted=mask,
                           fact_wos=self._wos_table(FACT_TABLE, epoch))
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
        table is sorted on :data:`FACT_SORT_KEYS`, a changed dimension
        ascending on its key — the orders a cold rebuild would produce.
        The base is already in that order (generation sorts it and every
        move keeps it), so the WOS rows are merged in; a base out of
        order raises :class:`~repro.errors.WriteError`.
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
        wos_table = self._wos_table(name, epoch)
        if not deleted and wos_table is None:
            return base
        kept = (base.take(np.delete(np.arange(base.num_rows), deleted))
                if deleted else base)
        keys = (FACT_SORT_KEYS if name == FACT_TABLE
                else (base.columns()[0].name,))
        return _merge_sorted(kept, wos_table, keys)

    def effective_tables(self, epoch: Optional[int] = None
                         ) -> Dict[str, Table]:
        """Every table as of ``epoch`` (the tuple mover's input)."""
        return {n: self.effective_table(n, epoch) for n in self._base}

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
            self._wos = {n: WosBuffer(t) for n, t in tables.items()}
            self._base_deleted = {n: {} for n in tables}
            self._key_indexes = {}
            self._visibility = None
            self.horizon = self.epoch

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _wos_table(self, name: str, epoch: int) -> Optional[Table]:
        """The WOS rows of ``name`` visible at ``epoch`` as a table with
        the base's types and (fixed-domain) dictionaries: one mask, one
        gather per column.  None when no row is visible."""
        wos = self._wos[name]
        rows = wos.visible_rows(epoch)
        if not len(rows):
            return None
        return Table(name, [wos.column(col, rows)
                            for col in self._base[name].columns()],
                     SortOrder(()))


def _column_fits(col: Column, values: List[Value]) -> bool:
    """Every value has exactly ``col``'s type and fits its domain or
    width: a few whole-column passes, no per-cell Python."""
    if col.dictionary is not None:
        return (set(map(type, values)) <= {str}
                and all(map(col.dictionary.__contains__, set(values))))
    info = np.iinfo(col.data.dtype)
    return set(map(type, values)) <= {int} and (
        not values or info.min <= min(values) and max(values) <= info.max)


def _cell_problem(col: Column, value: Value) -> Optional[str]:
    """Why ``value`` cannot be stored in ``col``, or None if it can."""
    if col.dictionary is not None:
        if not isinstance(value, str):
            return f"expected a string, got {value!r}"
        if value not in col.dictionary:
            return f"{value!r} is outside the column's fixed string domain"
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        return f"expected an integer, got {value!r}"
    info = np.iinfo(col.data.dtype)
    if not info.min <= value <= info.max:
        return f"{value} does not fit the stored width"
    return None


def _row_keys(table: Table, keys: Sequence[str]) -> np.ndarray:
    """One byte string per row that orders like its ``keys`` tuple: each
    signed integer key (every column type is one) big-endian with its
    sign bit flipped, any width."""
    fields = [(k, f">u{table.column(k).data.dtype.itemsize}") for k in keys]
    out = np.empty(table.num_rows, dtype=np.dtype(fields))
    for k, width in fields:
        data = table.column(k).data
        unsigned = data.view(width[1:])
        out[k] = unsigned ^ unsigned.dtype.type(1 << (8 * data.itemsize - 1))
    return out.view(f"S{out.dtype.itemsize}")


def _merge_sorted(kept: Table, wos: Optional[Table], keys: Sequence[str]
                  ) -> Table:
    """``kept`` (sorted on ``keys``) with the ``wos`` rows merged in, as a
    stable lexsort of kept-then-WOS rows would order them: kept rows come
    first among equal keys, so a stable sort of the WOS rows alone, placed
    by ``searchsorted(..., side="right")``, is the same permutation."""
    ordered = np.ones(max(kept.num_rows - 1, 0), dtype=bool)
    for k in reversed(keys):
        data = kept.column(k).data
        ordered = (data[1:] > data[:-1]) | ((data[1:] == data[:-1])
                                             & ordered)
    if not ordered.all():
        raise WriteError(f"{kept.name!r} base is not sorted on {keys}; "
                         f"the tuple mover merges into a sorted base only")
    if wos is None:
        return Table(kept.name, kept.columns(), SortOrder(tuple(keys)))
    buffered = _row_keys(wos, keys)
    order = np.argsort(buffered, kind="stable")
    slots = np.searchsorted(_row_keys(kept, keys), buffered[order],
                            side="right")
    slots += np.arange(len(order))
    from_kept = np.ones(kept.num_rows + len(order), dtype=bool)
    from_kept[slots] = False
    columns: List[Column] = []
    for col in kept.columns():
        data = np.empty(len(from_kept), dtype=col.data.dtype)
        data[from_kept] = col.data
        data[slots] = wos.column(col.name).data[order]
        columns.append(Column(col.name, col.ctype, data, col.dictionary))
    return Table(kept.name, columns, SortOrder(tuple(keys)))


def projection_deleted_mask(table: Table, sort_keys: Sequence[str],
                            deleted_mask: np.ndarray) -> np.ndarray:
    """``deleted_mask`` (over ``table``'s rows) re-indexed by the
    positions of a projection sorted on ``sort_keys``.

    The default fact projection keeps the table's own order, so the mask
    is its own; any other projection permutes by the same stable lexsort
    :meth:`Table.sort_by` (and projection creation) uses, so the mapping
    is exact.
    """
    keys = tuple(sort_keys)
    if not keys or table.sort_order.keys == keys:
        return deleted_mask
    return deleted_mask[np.lexsort([table.column(k).data
                                    for k in reversed(keys)])]


__all__ = [
    "WriteStore",
    "Visibility",
    "FACT_TABLE",
    "VALIDATED_FOREIGN_KEYS",
    "projection_deleted_mask",
]
