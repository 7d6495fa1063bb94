"""Abstract syntax for the SSB SQL subset (parser output, binder input)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class Ident:
    """A possibly-qualified identifier: ``lo.revenue`` or ``revenue``."""

    qualifier: Optional[str]
    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class NumberLit:
    value: int


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class Arith:
    """Binary arithmetic in a select expression."""

    op: str
    left: "SqlExpr"
    right: "SqlExpr"


SqlExpr = Union[Ident, NumberLit, StringLit, Arith]


@dataclass(frozen=True)
class SelectItem:
    """One output column: an aggregate call or a plain column."""

    expr: SqlExpr
    aggregate: Optional[str]  # "sum" / "count" / None
    alias: Optional[str]


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str]


@dataclass(frozen=True)
class ComparisonCond:
    """``left <op> right`` where either side is a column or literal."""

    op: str
    left: SqlExpr
    right: SqlExpr


@dataclass(frozen=True)
class BetweenCond:
    column: Ident
    low: SqlExpr
    high: SqlExpr


@dataclass(frozen=True)
class InCond:
    column: Ident
    values: Tuple[SqlExpr, ...]


Condition = Union[ComparisonCond, BetweenCond, InCond]


@dataclass(frozen=True)
class OrderItem:
    key: Ident
    ascending: bool


@dataclass(frozen=True)
class SelectStatement:
    """One parsed SELECT."""

    items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    conditions: Tuple[Condition, ...]
    group_by: Tuple[Ident, ...]
    order_by: Tuple[OrderItem, ...]
    limit: Optional[int] = None


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table (cols...) VALUES (...), (...)``, column-major:
    ``values[i]`` holds the literals of ``columns[i]``, one per row."""

    table: str
    columns: Tuple[str, ...]
    values: Tuple[Tuple[Union[int, str], ...], ...]


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table WHERE ...`` (conjunctive, single table)."""

    table: str
    conditions: Tuple[Condition, ...]


Statement = Union[SelectStatement, InsertStatement, DeleteStatement]


__all__ = [
    "Ident",
    "NumberLit",
    "StringLit",
    "Arith",
    "SqlExpr",
    "SelectItem",
    "TableRef",
    "ComparisonCond",
    "BetweenCond",
    "InCond",
    "Condition",
    "OrderItem",
    "SelectStatement",
    "InsertStatement",
    "DeleteStatement",
    "Statement",
]
