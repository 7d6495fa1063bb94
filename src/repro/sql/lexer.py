"""Tokenizer for the SSB SQL subset.

One compiled scanner: a single regular expression whose named
alternatives are tried in order, one match per token, driven by
``finditer``.  Keywords are case-insensitive and reported upper-case; identifiers
preserve case; string literals use single quotes with ``''`` as the
escape; numbers are ASCII-digit integers (the SSB dialect needs nothing
else, and a non-ASCII digit such as ``'²'`` is an unexpected character).
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from ..errors import SqlLexError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "AS", "AND",
    "BETWEEN", "IN", "SUM", "COUNT", "MIN", "MAX", "AVG", "ASC", "DESC",
    "OR", "NOT", "LIMIT", "INSERT", "INTO", "VALUES", "DELETE",
}


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_symbol(self, symbol: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text == symbol


# One match per token: the alternatives in priority order, each one
# group (so ``lastindex`` tells which matched), then any run of
# whitespace and ``--`` comments after it.  A string's closing quote
# must not be followed by another quote, so a quote run that never
# closes fails as a whole and reaches the catch-all, which reports the
# opening quote, instead of ending at an earlier ``''``.  ``\w`` is
# exactly ``str.isalnum()`` or ``_``; a word whose first character is
# not a letter or ``_`` (a non-ASCII digit such as ``'²'``) is refused
# where it starts.
_SKIP = r"(?:\s+|--[^\n]*\n?)*"
_SCANNER = re.compile(
    r"(?:(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r"|(?P<number>[0-9]+)"
    r"|(?P<word>\w+)"
    r"|(?P<symbol><=|>=|<>|!=|[=<>(),.*+\-;])"
    r"|(?P<bad>.))" + _SKIP,
    re.DOTALL,
)
_LEADING_SKIP = re.compile(_SKIP)
_STRING, _NUMBER, _WORD, _SYMBOL = (
    _SCANNER.groupindex[name] for name in ("string", "number", "word",
                                           "symbol"))


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`SqlLexError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    make = Token._make
    number, symbol = TokenKind.NUMBER, TokenKind.SYMBOL
    start = _LEADING_SKIP.match(text).end()
    for match in _SCANNER.finditer(text, start):
        group = match.lastindex
        if group == _NUMBER:
            append(make((number, match[_NUMBER], match.start())))
        elif group == _SYMBOL:
            append(make((symbol, match[_SYMBOL], match.start())))
        elif group == _STRING:
            append(Token(TokenKind.STRING,
                         match[_STRING][1:-1].replace("''", "'"),
                         match.start()))
        elif group == _WORD:
            word = match[_WORD]
            if not (word[0].isalpha() or word[0] == "_"):
                raise SqlLexError(f"unexpected character {word[0]!r}",
                                  match.start())
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(TokenKind.KEYWORD, upper, match.start()))
            else:
                append(Token(TokenKind.IDENT, word, match.start()))
        else:
            ch = match[group]
            if ch == "'":
                raise SqlLexError("unterminated string literal",
                                  match.start())
            raise SqlLexError(f"unexpected character {ch!r}", match.start())
    tokens.append(Token(TokenKind.EOF, "", len(text)))
    return tokens


__all__ = ["tokenize", "Token", "TokenKind", "KEYWORDS"]
