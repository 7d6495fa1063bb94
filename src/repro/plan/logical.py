"""The StarQuery IR: a declarative description of one SSB-style query.

Design notes
------------
* Predicates are single-column and conjunctive — the whole SSBM (and the
  broader star-schema idiom the paper targets) needs nothing more.  Each
  predicate names the table it applies to, so planners can route dimension
  predicates into join phases and fact predicates into scans.
* Aggregate expressions are tiny arithmetic trees over fact columns
  (``sum(extendedprice * discount)``, ``sum(revenue - supplycost)``).
* Group-by keys may come from dimension tables (``d.year``, ``c.nation``)
  or, in denormalized schemas, directly from the fact table.
* The IR is engine-neutral: the row-store planner, the column-store
  planner, the reference evaluator, and the SQL frontend all meet here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..errors import PlanError

Value = Union[int, str]

#: Aggregate functions the IR accepts.
SUPPORTED_FUNCS = ("sum", "count", "min", "max", "avg")


def validate_func(func: str) -> None:
    if func not in SUPPORTED_FUNCS:
        raise PlanError(
            f"unsupported aggregate {func!r}; supported: "
            f"{', '.join(SUPPORTED_FUNCS)}"
        )


class CompareOp(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "CompareOp":
        """The operator with operands swapped (5 < x  ==  x > 5)."""
        return {
            CompareOp.EQ: CompareOp.EQ,
            CompareOp.LT: CompareOp.GT,
            CompareOp.LE: CompareOp.GE,
            CompareOp.GT: CompareOp.LT,
            CompareOp.GE: CompareOp.LE,
        }[self]


@dataclass(frozen=True)
class ColumnRef:
    """A column of some table, e.g. ``lineorder.revenue``."""

    table: str
    column: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Comparison:
    """``column <op> literal``."""

    ref: ColumnRef
    op: CompareOp
    value: Value

    @property
    def table(self) -> str:
        return self.ref.table

    @property
    def column(self) -> str:
        return self.ref.column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.ref} {self.op.value} {self.value!r}"


@dataclass(frozen=True)
class RangePredicate:
    """``column BETWEEN low AND high`` (inclusive both ends)."""

    ref: ColumnRef
    low: Value
    high: Value

    @property
    def table(self) -> str:
        return self.ref.table

    @property
    def column(self) -> str:
        return self.ref.column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.ref} BETWEEN {self.low!r} AND {self.high!r}"


@dataclass(frozen=True)
class InSet:
    """``column IN (v1, v2, ...)``."""

    ref: ColumnRef
    values: Tuple[Value, ...]

    @property
    def table(self) -> str:
        return self.ref.table

    @property
    def column(self) -> str:
        return self.ref.column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.ref} IN ({inner})"


Predicate = Union[Comparison, RangePredicate, InSet]


@dataclass(frozen=True)
class Literal:
    """A constant inside an aggregate expression."""

    value: int


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic inside an aggregate expression."""

    op: str  # '+', '-', '*'
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*"):
            raise PlanError(f"unsupported arithmetic operator {self.op!r}")


Expr = Union[ColumnRef, Literal, BinOp]


def expr_columns(expr: Expr) -> List[ColumnRef]:
    """All column references inside an expression tree."""
    if isinstance(expr, ColumnRef):
        return [expr]
    if isinstance(expr, Literal):
        return []
    return expr_columns(expr.left) + expr_columns(expr.right)


@dataclass(frozen=True)
class AggExpr:
    """An aggregate output: ``func(expr) AS alias``.

    SUM covers the whole SSBM; COUNT, MIN, MAX, and AVG are supported
    throughout every engine (engine semantics in
    :mod:`repro.plan.aggregates`; the oracle keeps its own).
    """

    func: str
    expr: Expr
    alias: str

    def __post_init__(self) -> None:
        validate_func(self.func)


@dataclass(frozen=True)
class OrderKey:
    """One ORDER BY key: a group-by column or an aggregate alias."""

    key: str
    ascending: bool = True


@dataclass(frozen=True)
class StarQuery:
    """A star-schema aggregate query.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"Q3.1"``.
    fact_table:
        Name of the fact table (``lineorder``, or the denormalized
        variant in Figure 8 experiments).
    joins:
        Maps a fact foreign-key column to the dimension it references,
        e.g. ``{"custkey": "customer"}``.  Only dimensions actually used
        (filtered or grouped on) appear.
    dim_keys:
        Maps a dimension to its key column when that differs from the
        fact FK column's name (SSB: ``{"date": "datekey"}``); other
        dimensions default to the FK column name.
    predicates:
        Conjunctive single-column predicates; each names its table via
        its :class:`ColumnRef` (the fact table or a joined dimension).
    group_by:
        Group-by keys as column references (dimension or fact columns).
    aggregates:
        Aggregate outputs, at least one.
    order_by:
        Result ordering over group-by column names and aggregate aliases.
    """

    name: str
    fact_table: str
    joins: Dict[str, str]
    predicates: Tuple[Predicate, ...]
    group_by: Tuple[ColumnRef, ...]
    aggregates: Tuple[AggExpr, ...]
    order_by: Tuple[OrderKey, ...] = ()
    dim_keys: Dict[str, str] = field(default_factory=dict)
    #: optional LIMIT applied after ORDER BY
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError(f"query {self.name!r} has no aggregates")
        if self.limit is not None and self.limit < 0:
            raise PlanError(f"negative LIMIT {self.limit}")
        referenced = {p.table for p in self.predicates}
        referenced |= {g.table for g in self.group_by}
        known = set(self.joins.values()) | {self.fact_table}
        unknown = referenced - known
        if unknown:
            raise PlanError(
                f"query {self.name!r} references tables {sorted(unknown)} "
                f"that are neither the fact table nor joined dimensions"
            )

    # ------------------------------------------------------------------ #
    # convenience accessors used by the planners
    # ------------------------------------------------------------------ #
    def dimension_predicates(self, dim: str) -> List[Predicate]:
        """Predicates applying to dimension ``dim``."""
        return [p for p in self.predicates if p.table == dim]

    def fact_predicates(self) -> List[Predicate]:
        """Predicates applying directly to the fact table."""
        return [p for p in self.predicates if p.table == self.fact_table]

    def dimensions_used(self) -> List[str]:
        """Dimensions that are filtered or grouped on, in join order."""
        used = {p.table for p in self.predicates if p.table != self.fact_table}
        used |= {g.table for g in self.group_by if g.table != self.fact_table}
        return [d for _fk, d in sorted(self.joins.items()) if d in used]

    def fk_of(self, dim: str) -> str:
        """The fact foreign-key column referencing dimension ``dim``."""
        for fk, d in self.joins.items():
            if d == dim:
                return fk
        raise PlanError(f"query {self.name!r} does not join dimension {dim!r}")

    def key_of(self, dim: str) -> str:
        """The key column of dimension ``dim`` (defaults to the FK name)."""
        return self.dim_keys.get(dim, self.fk_of(dim))

    def group_by_of(self, table: str) -> List[str]:
        """Group-by column names drawn from ``table``."""
        return [g.column for g in self.group_by if g.table == table]

    def fact_columns_needed(self) -> List[str]:
        """Fact columns this query touches (predicates, FKs, aggregates,
        fact-side group-bys), in first-use order."""
        seen: List[str] = []

        def add(name: str) -> None:
            if name not in seen:
                seen.append(name)

        for p in self.fact_predicates():
            add(p.column)
        for dim in self.dimensions_used():
            add(self.fk_of(dim))
        for agg in self.aggregates:
            for ref in expr_columns(agg.expr):
                if ref.table == self.fact_table:
                    add(ref.column)
        for g in self.group_by:
            if g.table == self.fact_table:
                add(g.column)
        return seen

    def has_group_by(self) -> bool:
        return bool(self.group_by)


__all__ = [
    "CompareOp",
    "ColumnRef",
    "Comparison",
    "RangePredicate",
    "InSet",
    "Predicate",
    "Literal",
    "BinOp",
    "Expr",
    "expr_columns",
    "AggExpr",
    "OrderKey",
    "StarQuery",
    "Value",
    "SUPPORTED_FUNCS",
    "validate_func",
]
