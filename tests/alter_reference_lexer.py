"""The original character-at-a-time Alter lexer, kept as a test oracle.

``repro.core.alter.tokenize`` scans with one compiled regex; this is the
straightforward loop it replaced, unchanged.  ``tests/test_alter_lang.py``
checks that both produce the same tokens, and the same errors at the same
positions, on random text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.core.alter.errors import AlterSyntaxError

__all__ = ["Token", "tokenize"]

_DELIMS = set("()'\";")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    kind: str  # 'lparen' | 'rparen' | 'quote' | 'string' | 'number' | 'bool' | 'symbol'
    value: Union[str, int, float, bool]
    line: int
    col: int


def tokenize(source: str) -> List[Token]:
    """Tokenise Alter source, raising :class:`AlterSyntaxError` on bad input."""
    tokens: List[Token] = []
    i = 0
    line, col = 1, 1
    n = len(source)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == ";":
            while i < n and source[i] != "\n":
                advance()
            continue
        if ch == "(":
            tokens.append(Token("lparen", "(", line, col))
            advance()
            continue
        if ch == ")":
            tokens.append(Token("rparen", ")", line, col))
            advance()
            continue
        if ch == "'":
            tokens.append(Token("quote", "'", line, col))
            advance()
            continue
        if ch == '"':
            start_line, start_col = line, col
            advance()
            chars: List[str] = []
            while True:
                if i >= n:
                    raise AlterSyntaxError("unterminated string", start_line, start_col)
                c = source[i]
                if c == '"':
                    advance()
                    break
                if c == "\\":
                    advance()
                    if i >= n:
                        raise AlterSyntaxError("unterminated escape", line, col)
                    esc = source[i]
                    mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}
                    if esc not in mapping:
                        raise AlterSyntaxError(f"bad escape \\{esc}", line, col)
                    chars.append(mapping[esc])
                    advance()
                else:
                    chars.append(c)
                    advance()
            tokens.append(Token("string", "".join(chars), start_line, start_col))
            continue
        if ch == "#":
            start_line, start_col = line, col
            if i + 1 < n and source[i + 1] in "tf":
                tokens.append(Token("bool", source[i + 1] == "t", start_line, start_col))
                advance(2)
                if i < n and source[i] not in " \t\r\n()'\";":
                    raise AlterSyntaxError("bad boolean literal", start_line, start_col)
                continue
            raise AlterSyntaxError("bad # literal", start_line, start_col)
        # number or symbol
        start_line, start_col = line, col
        j = i
        while j < n and source[j] not in " \t\r\n" and source[j] not in _DELIMS:
            j += 1
        word = source[i:j]
        advance(j - i)
        tok = _classify(word, start_line, start_col)
        tokens.append(tok)
    return tokens


def _classify(word: str, line: int, col: int) -> Token:
    try:
        return Token("number", int(word), line, col)
    except ValueError:
        pass
    try:
        return Token("number", float(word), line, col)
    except ValueError:
        pass
    return Token("symbol", word, line, col)
