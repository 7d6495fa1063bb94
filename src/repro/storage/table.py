"""In-memory logical tables.

A :class:`Table` is what the SSB generator produces and what the engines
load into their physical designs.  It is columnar in memory (a dict of
:class:`~repro.storage.column.Column`), carries a
:class:`~repro.types.Schema`, and records its :class:`SortOrder` — the
paper's compression results hinge on which columns are (secondarily)
sorted, so sort metadata is a first-class property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SchemaError
from ..types import Field, Schema
from .column import Column


@dataclass(frozen=True)
class SortOrder:
    """The (possibly compound) sort order of a table.

    ``keys`` lists column names from major to minor; an empty tuple means
    unsorted.  The SSB fact table in the paper is sorted on ``orderdate``
    with ``quantity`` and ``discount`` as secondary keys.
    """

    keys: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.keys)

    def position(self, column: str) -> Optional[int]:
        """Sort position of ``column`` (0 = primary), or None."""
        try:
            return self.keys.index(column)
        except ValueError:
            return None


class Table:
    """Named columns + schema + sort order.

    All columns must have identical length; positions (row ordinals) are
    the implicit join key between them — exactly the property column
    stores exploit (Section 6.3.1).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        sort_order: SortOrder = SortOrder(),
    ) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise SchemaError(
                f"table {name!r} has ragged columns: lengths {sorted(lengths)}"
            )
        self.name = name
        self._columns: Dict[str, Column] = {}
        for col in columns:
            if col.name in self._columns:
                raise SchemaError(f"duplicate column {col.name!r} in {name!r}")
            self._columns[col.name] = col
        self.schema = Schema([Field(c.name, c.ctype) for c in columns])
        self.sort_order = sort_order
        for key in sort_order.keys:
            if key not in self._columns:
                raise SchemaError(f"sort key {key!r} is not a column of {name!r}")

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={self.num_rows}, cols={len(self.schema)})"

    @property
    def num_rows(self) -> int:
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> List[str]:
        return self.schema.names

    def column(self, name: str) -> Column:
        """The column called ``name``; :class:`SchemaError` if absent."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns are {self.column_names}"
            ) from None

    def columns(self) -> List[Column]:
        """All columns in schema order."""
        return [self._columns[n] for n in self.schema.names]

    def has_column(self, name: str) -> bool:
        return name in self._columns

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def project(self, names: Sequence[str], new_name: Optional[str] = None) -> "Table":
        """A table with only ``names`` (shares column data)."""
        keep = set(names)
        order = SortOrder(
            tuple(k for k in self.sort_order.keys if k in keep)
        )
        # a compound sort order is only meaningful as a prefix
        prefix: List[str] = []
        for key in self.sort_order.keys:
            if key in keep:
                prefix.append(key)
            else:
                break
        return Table(
            new_name or self.name,
            [self.column(n) for n in names],
            SortOrder(tuple(prefix)),
        )

    def take(self, positions: np.ndarray, new_name: Optional[str] = None) -> "Table":
        """A table holding only the rows at ``positions`` (in that order)."""
        return Table(
            new_name or self.name,
            [c.take(positions) for c in self.columns()],
            SortOrder(()),
        )

    def sort_by(self, keys: Sequence[str]) -> "Table":
        """A stably sorted copy of this table on ``keys`` (major first)."""
        if not keys:
            return self
        arrays = [self.column(k).data for k in reversed(keys)]
        order = np.lexsort(arrays)
        sorted_cols = [c.take(order) for c in self.columns()]
        return Table(self.name, sorted_cols, SortOrder(tuple(keys)))

    def row(self, position: int) -> Dict[str, Union[int, str]]:
        """One logical row as a dict (decoded strings); for tests/oracle."""
        return {n: self._columns[n].value_at(position) for n in self.schema.names}

    def iter_rows(self) -> Iterator[Dict[str, Union[int, str]]]:
        """Iterate logical rows (slow; reference/oracle use only)."""
        for i in range(self.num_rows):
            yield self.row(i)

    def uncompressed_bytes(self) -> int:
        """Plain storage size of all columns at declared widths."""
        return sum(c.uncompressed_bytes() for c in self.columns())

    def verify_sorted(self) -> bool:
        """Check that the data actually obeys ``sort_order`` (test helper)."""
        if not self.sort_order:
            return True
        arrays = [self.column(k).data for k in self.sort_order.keys]
        n = self.num_rows
        if n <= 1:
            return True
        keys = np.stack([a.astype(np.int64) for a in arrays])
        prev = keys[:, :-1]
        nxt = keys[:, 1:]
        for level in range(keys.shape[0]):
            higher_equal = np.ones(n - 1, dtype=bool)
            for upper in range(level):
                higher_equal &= prev[upper] == nxt[upper]
            if np.any(higher_equal & (prev[level] > nxt[level])):
                return False
        return True


__all__ = ["Table", "SortOrder"]
