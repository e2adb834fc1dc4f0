"""Alter lexer.

§2: *"The SAGE glue-code generator is implemented in Alter, a programming
language similar to Lisp in its syntax and style."*  Tokens are the usual
s-expression fare: parentheses, quote, strings, numbers, booleans, symbols;
``;`` starts a comment to end of line.

One compiled regex reads a token, with the whitespace and comments before it,
per ``match``; line and column follow from newline counts.  Its last
alternative takes a lone ``"`` or ``#``, so it never fails (and never
backtracks into a comment): a malformed string or ``#`` literal lands there
and is diagnosed from that position.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, NoReturn, Union

from .errors import AlterSyntaxError

__all__ = ["Token", "tokenize"]


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    kind: str  # 'lparen' | 'rparen' | 'quote' | 'string' | 'number' | 'bool' | 'symbol'
    value: Union[str, int, float, bool]
    line: int
    col: int


_WORD_CHAR = r"""[^ \t\r\n()'";]"""
_STRING_BODY = r'"[^"\\]*(?:\\[ntr"\\][^"\\]*)*'
_TOKEN = re.compile(rf"""
    [ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*
    (?: (?P<lparen>\() | (?P<rparen>\)) | (?P<quote>')
      | (?P<string>{_STRING_BODY}")
      | (?P<bool>\#[tf])(?!{_WORD_CHAR})
      | (?P<symbol>(?!\#){_WORD_CHAR}+)
      | (?P<bad>["\#])
      | (?P<end>\Z) )""", re.VERBOSE)
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}
#: ASCII first characters of a word that int()/float() may accept: digits,
#: signs, a dot, and the two whitespace characters they strip that do not
#: end a word.  Any other ASCII-led word is a symbol unless it is
#: nan/inf/infinity (in any case, maybe space-padded).
_NUMBER_START = frozenset("0123456789+-.\x0b\x0c")
_NAN_INF = frozenset(("nan", "inf", "infinity"))


def tokenize(source: str) -> List[Token]:
    """Tokenise Alter source, raising :class:`AlterSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos, line, bol = 0, 1, 0  # bol: offset where the current line begins
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        start, end = m.span(kind)
        newlines = source.count("\n", pos, start)
        if newlines:
            line += newlines
            bol = source.rfind("\n", pos, start) + 1
        col = start - bol + 1
        pos = end
        text = source[start:end]
        if kind == "symbol":
            append(_classify(text, line, col))
        elif kind == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
            append(Token("string", body, line, col))
            if "\n" in text:
                line += text.count("\n")
                bol = start + text.rfind("\n") + 1
        elif kind == "bool":
            append(Token("bool", text == "#t", line, col))
        elif kind == "end":
            return tokens
        elif kind == "bad":
            _fail(source, start, line, col)
        else:
            append(Token(kind, text, line, col))


def _classify(word: str, line: int, col: int) -> Token:
    first = word[0]
    if (first in _NUMBER_START or first > "\x7f"
            or (first in "nNiI" and word.strip().lower() in _NAN_INF)):
        for convert in (int, float):
            try:
                return Token("number", convert(word), line, col)
            except ValueError:
                pass
    return Token("symbol", word, line, col)


def _fail(source: str, start: int, line: int, col: int) -> NoReturn:
    """Raise the error for the bad ``"`` or ``#`` token at ``start``."""
    if source[start] == "#":
        if source.startswith(("#t", "#f"), start):
            raise AlterSyntaxError("bad boolean literal", line, col)
        raise AlterSyntaxError("bad # literal", line, col)
    stop = _STRING_PREFIX.match(source, start).end()
    if stop == len(source):
        raise AlterSyntaxError("unterminated string", line, col)
    esc = stop + 1  # source[stop] is the backslash of an invalid escape
    where = (source.count("\n", 0, esc) + 1, esc - source.rfind("\n", 0, esc))
    if esc == len(source):
        raise AlterSyntaxError("unterminated escape", *where)
    raise AlterSyntaxError(f"bad escape \\{source[esc]}", *where)
