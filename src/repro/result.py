"""Query results: a tiny, engine-neutral result set.

Every engine returns a :class:`ResultSet`; integration tests compare an
engine's result against the reference oracle with :meth:`ResultSet.same_rows`
(order-insensitive) or exact equality after ORDER BY.  Ordering is not
shared: the engines order in :mod:`repro.plan.tail`, the oracle in
:mod:`repro.reference.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

Cell = Union[int, float, str]
Row = Tuple[Cell, ...]


@dataclass
class ResultSet:
    """Named columns and materialized rows of one query's output."""

    columns: List[str]
    rows: List[Row]

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> List[Row]:
        """Rows in a canonical order (for order-insensitive comparison)."""
        return sorted(self.rows, key=lambda r: tuple(map(_sort_key, r)))

    def same_rows(self, other: "ResultSet") -> bool:
        """True when both results hold exactly the same multiset of rows."""
        return self.sorted_rows() == other.sorted_rows()

    def limited(self, limit) -> "ResultSet":
        """A copy truncated to the first ``limit`` rows (None = all)."""
        if limit is None:
            return self
        return ResultSet(self.columns, self.rows[:limit])

    def column_values(self, name: str) -> List[Cell]:
        """All values of one output column."""
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        widths = [
            max(len(str(c)),
                max((len(str(r[i])) for r in self.rows[:limit]), default=0))
            for i, c in enumerate(self.columns)
        ]
        header = " | ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
            for row in self.rows[:limit]
        ]
        suffix = [] if len(self.rows) <= limit else [
            f"... ({len(self.rows) - limit} more rows)"
        ]
        return "\n".join([header, rule] + body + suffix)


def _sort_key(value: Cell) -> Tuple[int, Union[int, float, str]]:
    """Total order across numbers and strings (numbers first, ints and
    floats — an AVG — compared by value)."""
    if isinstance(value, str):
        return (1, value)
    return (0, value)


__all__ = ["ResultSet", "Row", "Cell"]
