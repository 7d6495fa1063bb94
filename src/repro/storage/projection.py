"""C-Store projections: column groups stored in a chosen sort order.

A projection materializes some (here: all) columns of a table, sorted on a
compound key.  The paper stores one projection of the SSB fact table,
sorted on ``orderdate`` with ``quantity`` and ``discount`` as secondary
keys (Section 6.3.2), which is what makes those three columns run-length
compressible and flight 1 an order of magnitude faster under compression.

Dimension tables are stored sorted by their rollup hierarchy (e.g.
region, nation, city), which is what makes between-predicate rewriting
(Section 5.4.2) applicable.  Whether a projection's key column runs
1, 2, 3, ... or at least never decreases is a property of *its* position
order, not of the table's, so each projection records it when it is
built — a rebuild after a write re-derives it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from ..simio.buffer_pool import BufferPool
from ..simio.disk import SimulatedDisk
from .colfile import ColumnFile, CompressionLevel
from .column import Column
from .table import SortOrder, Table


class Projection:
    """All columns of one table, stored sorted, one column file each."""

    def __init__(
        self,
        name: str,
        table_name: str,
        sort_order: SortOrder,
        column_files: Dict[str, ColumnFile],
        num_rows: int,
        level: CompressionLevel,
        contiguous_from: Optional[int] = None,
        key_monotonic: bool = False,
    ) -> None:
        self.name = name
        self.table_name = table_name
        self.sort_order = sort_order
        self._column_files = column_files
        self.num_rows = num_rows
        self.level = level
        #: first key when the key (leading) column reads first, first + 1,
        #: ... in position order, so a key's row is a subtraction
        self.contiguous_from = contiguous_from
        #: True when the key column never decreases in position order
        self.key_monotonic = key_monotonic

    @classmethod
    def create(
        cls,
        disk: SimulatedDisk,
        table: Table,
        sort_keys: Sequence[str] = (),
        level: CompressionLevel = CompressionLevel.MAX,
        name: Optional[str] = None,
    ) -> "Projection":
        """Sort ``table`` on ``sort_keys`` and write every column.

        If the table is already sorted on exactly these keys the data is
        used as-is (no re-sort).
        """
        proj_name = name or f"{table.name}_proj_{'_'.join(sort_keys) or 'unsorted'}"
        if tuple(sort_keys) and table.sort_order.keys != tuple(sort_keys):
            table = table.sort_by(list(sort_keys))
        files: Dict[str, ColumnFile] = {}
        for column in table.columns():
            file_name = f"{proj_name}.{column.name}"
            files[column.name] = ColumnFile.load(disk, file_name, column, level)
        contiguous_from, monotonic = _key_order(table.columns()[0])
        return cls(proj_name, table.name, SortOrder(tuple(sort_keys)), files,
                   table.num_rows, level, contiguous_from, monotonic)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> List[str]:
        return sorted(self._column_files)

    def column_file(self, name: str) -> ColumnFile:
        """The :class:`ColumnFile` for column ``name``."""
        try:
            return self._column_files[name]
        except KeyError:
            raise SchemaError(
                f"projection {self.name!r} has no column {name!r}; "
                f"columns are {self.column_names}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._column_files

    def column_for_file(self, file_name: str) -> Optional[str]:
        """Which column a disk file belongs to, or None if not ours.

        The recovery layer maps a corrupt file back to its owning
        projection/column to decide whether a redundant copy exists.
        """
        for name, colfile in self._column_files.items():
            if colfile.name == file_name:
                return name
        return None

    def size_bytes(self) -> int:
        """Occupied whole-page bytes across all column files."""
        return sum(f.size_bytes for f in self._column_files.values())

    def compressed_payload_bytes(self) -> int:
        """Encoded bytes across all column files (excludes page slack)."""
        return sum(
            f.compressed_payload_bytes for f in self._column_files.values()
        )

    def read_table(self, pool: BufferPool) -> Dict[str, np.ndarray]:
        """Decode every column fully (verification paths only)."""
        return {
            name: f.read_all(pool) for name, f in self._column_files.items()
        }

    def sorted_on(self, column: str) -> Optional[int]:
        """This column's position in the sort key (0 = primary), or None."""
        return self.sort_order.position(column)


def _key_order(key: Column) -> Tuple[Optional[int], bool]:
    """(``contiguous_from``, ``key_monotonic``) of a key column, read in
    the order it is stored in (the in-memory data, so no I/O)."""
    if key.dictionary is not None:
        return None, False
    keys = key.data
    if len(keys) and np.array_equal(
            keys, np.arange(1, len(keys) + 1, dtype=keys.dtype)):
        return 1, True
    return None, bool(np.all(np.diff(keys.astype(np.int64)) >= 0))


__all__ = ["Projection"]
