"""Binding: parsed SQL -> StarQuery against the SSB catalog.

The binder resolves aliases, classifies WHERE conjuncts into join
equalities versus predicates, checks every column against the schemas,
and emits the same IR the hand-built queries use.  Star-shape rules are
enforced: exactly one fact table, joins only between a fact FK and a
dimension key, aggregates only over fact columns, plain select items
must appear in GROUP BY.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import SqlBindError, TypeMismatchError
from ..plan.logical import (
    AggExpr,
    BinOp,
    ColumnRef,
    CompareOp,
    Comparison,
    Expr,
    InSet,
    Literal,
    OrderKey,
    Predicate,
    StarQuery,
    RangePredicate,
)
from ..plan.predicates import check_aggregate, check_literal
from ..ssb.schema import SCHEMAS
from ..types import Schema
from . import ast
from .parser import parse

_OP_MAP = {
    "=": CompareOp.EQ,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}


class _Scope:
    """Alias resolution against a catalog of schemas."""

    def __init__(self, tables: Sequence[ast.TableRef],
                 schemas: Dict[str, Schema]) -> None:
        self.schemas = schemas
        self.alias_to_table: Dict[str, str] = {}
        self.tables: List[str] = []
        for ref in tables:
            if ref.name not in schemas:
                raise SqlBindError(f"unknown table {ref.name!r}")
            if ref.name in self.tables:
                raise SqlBindError(f"table {ref.name!r} listed twice")
            self.tables.append(ref.name)
            self.alias_to_table[ref.name] = ref.name
            if ref.alias:
                if ref.alias in self.alias_to_table:
                    raise SqlBindError(f"duplicate alias {ref.alias!r}")
                self.alias_to_table[ref.alias] = ref.name

    def resolve(self, ident: ast.Ident) -> ColumnRef:
        if ident.qualifier is not None:
            table = self.alias_to_table.get(ident.qualifier)
            if table is None:
                raise SqlBindError(
                    f"unknown table alias {ident.qualifier!r} in {ident}"
                )
            if ident.name not in self.schemas[table]:
                raise SqlBindError(
                    f"table {table!r} has no column {ident.name!r}"
                )
            return ColumnRef(table, ident.name)
        owners = [t for t in self.tables if ident.name in self.schemas[t]]
        if not owners:
            raise SqlBindError(f"unknown column {ident.name!r}")
        if len(owners) > 1:
            raise SqlBindError(
                f"ambiguous column {ident.name!r}: in tables {owners}"
            )
        return ColumnRef(owners[0], ident.name)

    def is_string(self, ref: ColumnRef) -> bool:
        return self.schemas[ref.table].field(ref.column).ctype.is_string


def _literal_value(expr: ast.SqlExpr, ref: ColumnRef,
                   scope: _Scope) -> Union[int, str]:
    """The literal compared with ``ref``, type-checked against it."""
    if not isinstance(expr, (ast.NumberLit, ast.StringLit)):
        raise SqlBindError(f"expected a literal, got {expr!r}")
    try:
        check_literal(expr.value, scope.is_string(ref), str(ref))
    except TypeMismatchError as exc:
        raise SqlBindError(str(exc)) from None
    return expr.value


def _bind_expr(expr: ast.SqlExpr, scope: _Scope, fact: str) -> Expr:
    """Bind an aggregate input (its types are checked once it is whole,
    by :func:`check_aggregate`)."""
    if isinstance(expr, ast.Ident):
        ref = scope.resolve(expr)
        if ref.table != fact:
            raise SqlBindError(
                f"aggregate expressions may only use fact columns; "
                f"{ref} is from {ref.table!r}"
            )
        return ref
    if isinstance(expr, ast.NumberLit):
        return Literal(expr.value)
    if isinstance(expr, ast.StringLit):
        raise SqlBindError("string literals are not allowed in arithmetic")
    if isinstance(expr, ast.Arith):
        return BinOp(expr.op, _bind_expr(expr.left, scope, fact),
                     _bind_expr(expr.right, scope, fact))
    raise SqlBindError(f"unsupported expression {expr!r}")


def _pick_fact_table(scope: _Scope) -> str:
    if len(scope.tables) == 1:
        return scope.tables[0]
    candidates = [t for t in scope.tables if t == "lineorder"
                  or t.startswith("lineorder")]
    if len(candidates) != 1:
        raise SqlBindError(
            f"cannot identify the fact table among {scope.tables}"
        )
    return candidates[0]


def bind(statement: ast.SelectStatement,
         schemas: Optional[Dict[str, Schema]] = None,
         name: str = "query") -> StarQuery:
    """Bind a parsed statement into a :class:`StarQuery`."""
    catalog = dict(SCHEMAS) if schemas is None else schemas
    scope = _Scope(statement.tables, catalog)
    fact = _pick_fact_table(scope)

    joins: Dict[str, str] = {}
    dim_keys: Dict[str, str] = {}
    predicates: List[Predicate] = []
    for cond in statement.conditions:
        bound = _bind_condition(cond, scope, fact, joins, dim_keys)
        if bound is not None:
            predicates.append(bound)

    group_by = tuple(scope.resolve(g) for g in statement.group_by)
    group_names = {g.column for g in group_by}

    aggregates: List[AggExpr] = []
    for i, item in enumerate(statement.items):
        if item.aggregate is not None:
            alias = item.alias or f"{item.aggregate}_{i}"
            agg = AggExpr(item.aggregate,
                          _bind_expr(item.expr, scope, fact), alias)
            try:
                check_aggregate(agg, scope.is_string)
            except TypeMismatchError as exc:
                raise SqlBindError(str(exc)) from None
            aggregates.append(agg)
        else:
            if not isinstance(item.expr, ast.Ident):
                raise SqlBindError(
                    "non-aggregate select items must be plain columns"
                )
            ref = scope.resolve(item.expr)
            if ref.column not in group_names:
                raise SqlBindError(
                    f"select column {ref} must appear in GROUP BY"
                )
    if not aggregates:
        raise SqlBindError("at least one aggregate output is required")

    agg_aliases = {a.alias for a in aggregates}
    order_by: List[OrderKey] = []
    for item in statement.order_by:
        key = item.key.name
        if key not in group_names and key not in agg_aliases:
            raise SqlBindError(
                f"ORDER BY key {key!r} is neither a group column nor an "
                f"aggregate alias"
            )
        order_by.append(OrderKey(key, item.ascending))

    return StarQuery(
        name=name,
        fact_table=fact,
        joins=joins,
        predicates=tuple(predicates),
        group_by=group_by,
        aggregates=tuple(aggregates),
        order_by=tuple(order_by),
        dim_keys=dim_keys,
        limit=statement.limit,
    )


def _bind_condition(
    cond: ast.Condition,
    scope: _Scope,
    fact: str,
    joins: Dict[str, str],
    dim_keys: Dict[str, str],
) -> Optional[Predicate]:
    """Classify one conjunct: join equality (returns None, fills joins)
    or predicate (returned)."""
    if isinstance(cond, ast.BetweenCond):
        ref = scope.resolve(cond.column)
        return RangePredicate(ref, _literal_value(cond.low, ref, scope),
                              _literal_value(cond.high, ref, scope))
    if isinstance(cond, ast.InCond):
        ref = scope.resolve(cond.column)
        return InSet(ref, tuple(_literal_value(v, ref, scope)
                                for v in cond.values))
    if not isinstance(cond, ast.ComparisonCond):  # pragma: no cover
        raise SqlBindError(f"unsupported condition {cond!r}")

    if isinstance(cond.left, ast.Arith) or isinstance(cond.right, ast.Arith):
        raise SqlBindError(
            "a predicate must compare a plain column to a literal, not an "
            "arithmetic expression"
        )
    left_is_col = isinstance(cond.left, ast.Ident)
    right_is_col = isinstance(cond.right, ast.Ident)
    if left_is_col and right_is_col:
        if cond.op != "=":
            raise SqlBindError(
                f"column-to-column conditions must be equijoins, got "
                f"{cond.op!r}"
            )
        a = scope.resolve(cond.left)
        b = scope.resolve(cond.right)
        if a.table == fact and b.table != fact:
            fk, dim_ref = a, b
        elif b.table == fact and a.table != fact:
            fk, dim_ref = b, a
        else:
            raise SqlBindError(
                f"join {a} = {b} does not connect the fact table to a "
                f"dimension"
            )
        existing = joins.get(fk.column)
        if existing is not None and existing != dim_ref.table:
            raise SqlBindError(
                f"foreign key {fk.column!r} joined to two dimensions"
            )
        joins[fk.column] = dim_ref.table
        if dim_ref.column != fk.column:
            dim_keys[dim_ref.table] = dim_ref.column
        return None
    if left_is_col:
        ref = scope.resolve(cond.left)
        return Comparison(ref, _OP_MAP[cond.op],
                          _literal_value(cond.right, ref, scope))
    if right_is_col:
        ref = scope.resolve(cond.right)
        return Comparison(ref, _OP_MAP[cond.op].flip(),
                          _literal_value(cond.left, ref, scope))
    raise SqlBindError("conditions between two literals are not supported")


def parse_query(sql: str, name: str = "query",
                schemas: Optional[Dict[str, Schema]] = None) -> StarQuery:
    """Parse + bind in one call."""
    return bind(parse(sql), schemas=schemas, name=name)


# --------------------------------------------------------------------- #
# DML
# --------------------------------------------------------------------- #
def bind_insert(statement: ast.InsertStatement,
                schemas: Optional[Dict[str, Schema]] = None):
    """Bind an INSERT into ``(table, rows)`` where each row is the
    column->value dict :meth:`repro.write.WriteStore.insert` accepts.

    ``statement.values`` is column-major (one tuple of literals per
    named column).  Every named column is checked against the schema,
    and each column's literals against its type once (ints for integer
    columns, strings for string columns); the error names the first
    mismatching cell in row order.  Missing/extra columns are left to
    the write store's own row validation, which has the authoritative
    error messages.
    """
    catalog = dict(SCHEMAS) if schemas is None else schemas
    schema = catalog.get(statement.table)
    if schema is None:
        raise SqlBindError(f"unknown table {statement.table!r}")
    types = {f.name: f.ctype for f in schema}
    seen = set()
    for column in statement.columns:
        if column not in types:
            raise SqlBindError(
                f"table {statement.table!r} has no column {column!r}"
            )
        if column in seen:
            raise SqlBindError(f"column {column!r} listed twice")
        seen.add(column)
    mismatches = []
    for index, (column, cells) in enumerate(zip(statement.columns,
                                                 statement.values)):
        want = str if types[column].is_string else int
        if set(map(type, cells)) - {want}:
            row = next((row for row, value in enumerate(cells)
                        if isinstance(value, str) != (want is str)), None)
            if row is not None:
                mismatches.append((row, index))
    if mismatches:
        row, index = min(mismatches)
        column = statement.columns[index]
        want = "a string" if types[column].is_string else "an integer"
        raise SqlBindError(
            f"column {statement.table}.{column} needs {want}, got "
            f"{statement.values[index][row]!r}"
        )
    rows = [dict(zip(statement.columns, cells))
            for cells in zip(*statement.values)]
    return statement.table, rows


def bind_delete(statement: ast.DeleteStatement,
                schemas: Optional[Dict[str, Schema]] = None):
    """Bind a DELETE into ``(table, predicates)`` for
    :meth:`repro.write.WriteStore.delete` (single-table conjunctive
    WHERE; column-to-column conditions are rejected)."""
    catalog = dict(SCHEMAS) if schemas is None else schemas
    if statement.table not in catalog:
        raise SqlBindError(f"unknown table {statement.table!r}")
    scope = _Scope((ast.TableRef(statement.table, None),), catalog)
    predicates: List[Predicate] = []
    for cond in statement.conditions:
        bound = _bind_condition(cond, scope, statement.table, {}, {})
        if bound is None:
            raise SqlBindError(
                "DELETE predicates must compare a column to a literal"
            )
        predicates.append(bound)
    return statement.table, predicates


__all__ = ["bind", "parse_query", "bind_insert", "bind_delete"]
