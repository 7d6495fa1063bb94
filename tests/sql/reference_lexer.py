"""The per-character scanner ``repro.sql.lexer`` replaced.

Before the compiled scanner existed, ``tokenize`` walked the text one
character at a time and tried every symbol with ``str.startswith``.  It
stays here as the test-only reference of the lexer's differential
property.  Its one known difference: it lexes any ``str.isdigit()``
character as part of a number (so ``'²'`` reached ``int()`` and raised a
bare ``ValueError``), where the compiled scanner takes only ASCII digits.
"""

from typing import List

from repro.errors import SqlLexError
from repro.sql.lexer import KEYWORDS, Token, TokenKind

_SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".",
            "*", "+", "-", ";")


def reference_tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` as the per-character scanner did."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i:i + 2] == "--":
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            j = i + 1
            parts: List[str] = []
            while True:
                if j >= n:
                    raise SqlLexError("unterminated string literal", i)
                if text[j] == "'":
                    if text[j:j + 2] == "''":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token(TokenKind.STRING, "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token(TokenKind.NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenKind.IDENT, word, i))
            i = j
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token(TokenKind.SYMBOL, symbol, i))
                i += len(symbol)
                break
        else:
            raise SqlLexError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens
