"""Recursive-descent parser for the SSB SQL subset.

Grammar (conjunctive WHERE only — the whole benchmark needs nothing
more; OR/NOT are lexed so they produce a clear error rather than a
confusing one):

    statement  := select | insert | delete
    select     := SELECT item (',' item)*
                  FROM table_ref (',' table_ref)*
                  [WHERE condition (AND condition)*]
                  [GROUP BY ident (',' ident)*]
                  [ORDER BY order_key (',' order_key)*]
                  [LIMIT number] [';']
    insert     := INSERT INTO ident '(' ident (',' ident)* ')'
                  VALUES row (',' row)* [';']
    row        := '(' literal (',' literal)* ')'
    literal    := ['-'] NUMBER | STRING
    delete     := DELETE FROM ident
                  [WHERE condition (AND condition)*] [';']
    item       := (SUM|COUNT|MIN|MAX|AVG) '(' (expr|'*') ')' [AS ident]
                | expr [AS ident]
    expr       := term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := literal | qualified_ident | '(' expr ')'
    condition  := operand BETWEEN literal AND literal
                | operand IN '(' literal (',' literal)* ')'
                | operand ('='|'<'|'<='|'>'|'>=') operand
    order_key  := ident [ASC|DESC]

An INSERT is read column-major: its ``VALUES`` block becomes one tuple
of values per named column.  A block of plain literals (``-?[0-9]+`` or
a quoted string, every row as wide as the column list) is read without
tokens; any other text takes the token path, which yields the same
statement or the typed error.
"""

from __future__ import annotations

import functools
import re
from typing import List, Optional, Sequence

from ..errors import SqlParseError
from . import ast
from .lexer import KEYWORDS, Token, TokenKind, tokenize

# ASCII names and whitespace only, no comments: the token path takes the rest
_INSERT_HEAD = re.compile(
    r"\s*INSERT\s+INTO\s+([A-Za-z_]\w*)\s*"
    r"\(\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*\)\s*VALUES\s*",
    re.ASCII | re.IGNORECASE)
_CELL = r"-?[0-9]+|'[^']*(?:''[^']*)*'"
_NAME_SEPARATOR = re.compile(r"\s*,\s*", re.ASCII)


@functools.lru_cache(maxsize=64)
def _values_patterns(width: int):
    """For rows of ``width`` literals: the whole block, ending in an
    optional ``;``, and one row with a group per cell."""
    def row(cell: str) -> str:
        return r"\(\s*" + r"\s*,\s*".join([cell] * width) + r"\s*\)"
    plain = row(f"(?:{_CELL})")
    return (re.compile(rf"{plain}(?:\s*,\s*{plain})*\s*;?\s*", re.ASCII),
            re.compile(row(f"({_CELL})"), re.ASCII))


def _int_literal(digits: str, position: int) -> int:
    """``int(digits)``, or a typed error for a literal too long for
    ``int()`` (Python caps the digits it converts)."""
    try:
        return int(digits)
    except ValueError:
        raise SqlParseError(
            f"integer literal of {len(digits)} digits is too long at offset "
            f"{position}"
        ) from None


def _cell_values(cells: Sequence[str]) -> tuple:
    """One column's literal texts as values: ints, unquoted strings."""
    try:
        return tuple(map(int, cells))
    except ValueError:
        return tuple(cell[1:-1].replace("''", "'") if cell[0] == "'"
                     else int(cell) for cell in cells)


def _scan_insert(sql: str) -> Optional[ast.InsertStatement]:
    """The INSERT in ``sql`` read column by column, or None when the
    text is not a plain-literal INSERT (the token path decides it)."""
    head = _INSERT_HEAD.match(sql)
    if head is None:
        return None
    table = head[1]
    columns = tuple(_NAME_SEPARATOR.split(head[2]))
    if any(name.upper() in KEYWORDS for name in (table,) + columns):
        return None
    block, row = _values_patterns(len(columns))
    if block.fullmatch(sql, head.end()) is None:
        return None
    rows = row.findall(sql, head.end())
    # with one group, findall yields each row's cell, not a 1-tuple
    cells = zip(*rows) if len(columns) > 1 else (rows,)
    try:
        values = tuple(map(_cell_values, cells))
    except ValueError:  # a literal too long for int(): typed by the tokens
        return None
    return ast.InsertStatement(table, columns, values)


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.advance()
        if not token.is_keyword(word):
            raise SqlParseError(
                f"expected {word}, got {token.text!r} at offset "
                f"{token.position}"
            )
        return token

    def expect_symbol(self, symbol: str) -> Token:
        token = self.advance()
        if not token.is_symbol(symbol):
            raise SqlParseError(
                f"expected {symbol!r}, got {token.text!r} at offset "
                f"{token.position}"
            )
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def accept_symbol(self, symbol: str) -> bool:
        if self.peek().is_symbol(symbol):
            self.advance()
            return True
        return False

    # ------------------------------------------------------------------ #
    # grammar
    # ------------------------------------------------------------------ #
    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.is_keyword("INSERT"):
            return self.parse_insert()
        if token.is_keyword("DELETE"):
            return self.parse_delete()
        return self.parse_select()

    def _finish(self) -> None:
        self.accept_symbol(";")
        tail = self.peek()
        if tail.kind is not TokenKind.EOF:
            raise SqlParseError(
                f"unexpected trailing input {tail.text!r} at offset "
                f"{tail.position}"
            )

    def parse_insert(self) -> ast.InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.advance()
        if table.kind is not TokenKind.IDENT:
            raise SqlParseError(f"expected table name, got {table.text!r}")
        self.expect_symbol("(")
        columns = [self._plain_ident()]
        while self.accept_symbol(","):
            columns.append(self._plain_ident())
        self.expect_symbol(")")
        self.expect_keyword("VALUES")
        rows = [self._parse_value_row(len(columns))]
        while self.accept_symbol(","):
            rows.append(self._parse_value_row(len(columns)))
        self._finish()
        return ast.InsertStatement(table.text, tuple(columns),
                                   tuple(zip(*rows)))

    def _plain_ident(self) -> str:
        token = self.advance()
        if token.kind is not TokenKind.IDENT:
            raise SqlParseError(
                f"expected column name, got {token.text!r} at offset "
                f"{token.position}"
            )
        return token.text

    def _parse_value_row(self, width: int) -> tuple:
        """One ``(literal, ...)`` row as its values, read in one local
        loop over the token list."""
        self.expect_symbol("(")
        tokens, pos = self.tokens, self.pos
        number, string, symbol = (TokenKind.NUMBER, TokenKind.STRING,
                                  TokenKind.SYMBOL)
        values = []
        while True:
            kind, text, position = tokens[pos]
            negative = kind is symbol and text == "-"
            if negative:
                pos += 1
                kind, text, position = tokens[pos]
            pos += 1
            if kind is number:
                value = _int_literal(text, position)
                values.append(-value if negative else value)
            elif kind is string and not negative:
                values.append(text)
            else:
                raise SqlParseError(
                    f"expected a literal, got {text!r} at offset {position}"
                )
            kind, text, _position = tokens[pos]
            if kind is not symbol or text != ",":
                break
            pos += 1
        self.pos = pos
        self.expect_symbol(")")
        if len(values) != width:
            raise SqlParseError(
                f"VALUES row has {len(values)} value(s) for {width} "
                f"column(s)"
            )
        return tuple(values)

    def parse_delete(self) -> ast.DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.advance()
        if table.kind is not TokenKind.IDENT:
            raise SqlParseError(f"expected table name, got {table.text!r}")
        conditions: List[ast.Condition] = []
        if self.accept_keyword("WHERE"):
            conditions.append(self.parse_condition())
            while True:
                if self.accept_keyword("AND"):
                    conditions.append(self.parse_condition())
                    continue
                if self.peek().is_keyword("OR") or self.peek().is_keyword(
                        "NOT"):
                    raise SqlParseError(
                        "only conjunctive (AND) predicates are supported"
                    )
                break
        self._finish()
        return ast.DeleteStatement(table.text, tuple(conditions))

    def parse_select(self) -> ast.SelectStatement:
        self.expect_keyword("SELECT")
        items = [self.parse_item()]
        while self.accept_symbol(","):
            items.append(self.parse_item())
        self.expect_keyword("FROM")
        tables = [self.parse_table_ref()]
        while self.accept_symbol(","):
            tables.append(self.parse_table_ref())
        conditions: List[ast.Condition] = []
        if self.accept_keyword("WHERE"):
            conditions.append(self.parse_condition())
            while True:
                if self.accept_keyword("AND"):
                    conditions.append(self.parse_condition())
                    continue
                if self.peek().is_keyword("OR") or self.peek().is_keyword(
                        "NOT"):
                    raise SqlParseError(
                        "only conjunctive (AND) predicates are supported"
                    )
                break
        group_by: List[ast.Ident] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_qualified_ident())
            while self.accept_symbol(","):
                group_by.append(self.parse_qualified_ident())
        order_by: List[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_key())
            while self.accept_symbol(","):
                order_by.append(self.parse_order_key())
        limit: Optional[int] = None
        if self.accept_keyword("LIMIT"):
            negative = self.accept_symbol("-")
            number = self.advance()
            if number.kind is not TokenKind.NUMBER:
                raise SqlParseError(
                    f"expected a number after LIMIT, got {number.text!r}"
                )
            limit = _int_literal(number.text, number.position)
            limit = -limit if negative else limit
            if limit <= 0:
                raise SqlParseError(
                    f"LIMIT must be a positive integer, got {limit}"
                )
        self.accept_symbol(";")
        tail = self.peek()
        if tail.kind is not TokenKind.EOF:
            raise SqlParseError(
                f"unexpected trailing input {tail.text!r} at offset "
                f"{tail.position}"
            )
        return ast.SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            conditions=tuple(conditions),
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            limit=limit,
        )

    def parse_item(self) -> ast.SelectItem:
        token = self.peek()
        aggregate: Optional[str] = None
        if token.kind is TokenKind.KEYWORD and token.text in (
                "SUM", "COUNT", "MIN", "MAX", "AVG"):
            aggregate = self.advance().text.lower()
            self.expect_symbol("(")
            if aggregate == "count" and self.accept_symbol("*"):
                expr = ast.NumberLit(1)  # COUNT(*) counts rows
            else:
                expr = self.parse_expr()
            self.expect_symbol(")")
        else:
            expr = self.parse_expr()
        alias: Optional[str] = None
        if self.accept_keyword("AS"):
            alias_token = self.advance()
            if alias_token.kind is not TokenKind.IDENT:
                raise SqlParseError(
                    f"expected alias after AS, got {alias_token.text!r}"
                )
            alias = alias_token.text
        return ast.SelectItem(expr, aggregate, alias)

    def parse_table_ref(self) -> ast.TableRef:
        name = self.advance()
        if name.kind is not TokenKind.IDENT:
            raise SqlParseError(f"expected table name, got {name.text!r}")
        alias: Optional[str] = None
        if self.accept_keyword("AS"):
            alias_token = self.advance()
            if alias_token.kind is not TokenKind.IDENT:
                raise SqlParseError(
                    f"expected alias after AS, got {alias_token.text!r}"
                )
            alias = alias_token.text
        elif self.peek().kind is TokenKind.IDENT:
            alias = self.advance().text
        return ast.TableRef(name.text, alias)

    def parse_expr(self) -> ast.SqlExpr:
        left = self.parse_term()
        while self.peek().is_symbol("+") or self.peek().is_symbol("-"):
            op = self.advance().text
            right = self.parse_term()
            left = ast.Arith(op, left, right)
        return left

    def parse_term(self) -> ast.SqlExpr:
        left = self.parse_factor()
        while self.peek().is_symbol("*"):
            self.advance()
            right = self.parse_factor()
            left = ast.Arith("*", left, right)
        return left

    def parse_factor(self) -> ast.SqlExpr:
        token = self.peek()
        if token.is_symbol("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return ast.NumberLit(_int_literal(token.text, token.position))
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.StringLit(token.text)
        if token.kind is TokenKind.IDENT:
            return self.parse_qualified_ident()
        raise SqlParseError(
            f"expected expression, got {token.text!r} at offset "
            f"{token.position}"
        )

    def parse_qualified_ident(self) -> ast.Ident:
        first = self.advance()
        if first.kind is not TokenKind.IDENT:
            raise SqlParseError(
                f"expected identifier, got {first.text!r} at offset "
                f"{first.position}"
            )
        if self.accept_symbol("."):
            second = self.advance()
            if second.kind is not TokenKind.IDENT:
                raise SqlParseError(
                    f"expected identifier after '.', got {second.text!r}"
                )
            return ast.Ident(first.text, second.text)
        return ast.Ident(None, first.text)

    def parse_condition(self) -> ast.Condition:
        left = self.parse_expr()
        token = self.peek()
        if token.is_keyword("BETWEEN"):
            if not isinstance(left, ast.Ident):
                raise SqlParseError("BETWEEN requires a column on the left")
            self.advance()
            low = self.parse_expr()
            self.expect_keyword("AND")
            high = self.parse_expr()
            return ast.BetweenCond(left, low, high)
        if token.is_keyword("IN"):
            if not isinstance(left, ast.Ident):
                raise SqlParseError("IN requires a column on the left")
            self.advance()
            self.expect_symbol("(")
            values = [self.parse_expr()]
            while self.accept_symbol(","):
                values.append(self.parse_expr())
            self.expect_symbol(")")
            return ast.InCond(left, tuple(values))
        if token.kind is TokenKind.SYMBOL and token.text in (
                "=", "<", "<=", ">", ">="):
            op = self.advance().text
            right = self.parse_expr()
            return ast.ComparisonCond(op, left, right)
        raise SqlParseError(
            f"expected predicate operator, got {token.text!r} at offset "
            f"{token.position}"
        )

    def parse_order_key(self) -> ast.OrderItem:
        key = self.parse_qualified_ident()
        ascending = True
        if self.accept_keyword("ASC"):
            ascending = True
        elif self.accept_keyword("DESC"):
            ascending = False
        return ast.OrderItem(key, ascending)


def parse(sql: str) -> ast.SelectStatement:
    """Parse one SELECT statement."""
    return _Parser(tokenize(sql)).parse_select()


def parse_statement(sql: str) -> ast.Statement:
    """Parse one statement: SELECT, INSERT, or DELETE."""
    statement = _scan_insert(sql)
    if statement is not None:
        return statement
    return _Parser(tokenize(sql)).parse_statement()


__all__ = ["parse", "parse_statement"]
