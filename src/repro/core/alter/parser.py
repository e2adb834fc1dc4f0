"""Alter reader: tokens -> s-expression trees.

Expressions are represented with plain Python values: lists for compound
forms, :class:`Symbol` for identifiers, and str/int/float/bool for literals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .errors import AlterSyntaxError
from .lexer import tokenize

__all__ = [
    "Symbol", "parse", "parse_cached", "parse_one", "parse_with_locations",
    "to_source",
]

#: Deepest nesting of lists and quotes the reader accepts.  The evaluator and
#: the linter recurse once or more per level, so deeper input is refused here
#: as a syntax error rather than overflowing the Python stack later.
MAX_DEPTH = 256


class Symbol(str):
    """An Alter identifier (a distinct type so strings stay literal)."""

    __slots__ = ()

    def __repr__(self):
        return str(self)


def parse(source: str) -> List[Any]:
    """Parse a whole program: a list of top-level expressions."""
    return _read_all(source)


def parse_cached(source: str) -> List[Any]:
    """Memoized :func:`parse` for call sites that only read the tree.

    The glue scripts are module constants re-run for every generated model,
    so their ASTs are cached by source text.  The interpreter and the
    analysis gate's ``script_defines`` treat parsed nodes as read-only (they
    never rewrite them), which is what makes sharing safe; callers that
    mutate ASTs must use :func:`parse`.
    """
    from ...perf.cache import named_cache

    return named_cache("alter.parse", maxsize=256).get(
        source, lambda: parse(source)
    )


def parse_with_locations(source: str) -> Tuple[List[Any], Dict[int, Tuple[int, int]]]:
    """Parse a program, also returning source positions for analysis tools.

    The second return value maps ``id(node)`` (for list and :class:`Symbol`
    nodes, which are freshly allocated per parse) to their 1-based
    ``(line, col)``.  Literals (ints, strings, booleans) are not tracked:
    Python interns them, so their ``id`` is not a reliable key.
    """
    locs: Dict[int, Tuple[int, int]] = {}
    return _read_all(source, locs), locs


def parse_one(source: str) -> Any:
    """Parse exactly one expression."""
    exprs = parse(source)
    if len(exprs) != 1:
        raise AlterSyntaxError(f"expected one expression, got {len(exprs)}")
    return exprs[0]


def _read_all(source: str, locs: Optional[Dict[int, Tuple[int, int]]] = None) -> List[Any]:
    """Read every top-level expression.  Open lists and quotes sit on an
    explicit stack, not the Python stack, and at most MAX_DEPTH deep."""
    out: List[Any] = []
    items = out  # the list the next finished expression joins
    stack: List[Tuple[List[Any], str, int, int]] = []  # (enclosing items, opener)
    for kind, value, line, col in tokenize(source):
        if kind == "lparen" or kind == "quote":
            if len(stack) == MAX_DEPTH:
                raise AlterSyntaxError(f"nesting deeper than {MAX_DEPTH}", line, col)
            stack.append((items, kind, line, col))
            items = [] if kind == "lparen" else [Symbol("quote")]
            if locs is not None:
                locs[id(items)] = (line, col)
            continue
        if kind == "rparen":
            if not stack or stack[-1][1] == "quote":
                raise AlterSyntaxError("unexpected ')'", line, col)
            expr, items = items, stack.pop()[0]
        elif kind == "symbol":
            expr = Symbol(value)
            if locs is not None:
                locs[id(expr)] = (line, col)
        else:  # string / number / bool literals pass through
            expr = value
        while stack and stack[-1][1] == "quote":  # 'x is (quote x)
            items.append(expr)
            expr, items = items, stack.pop()[0]
        items.append(expr)
    if stack:
        _, kind, line, col = stack[-1]
        if kind == "quote":
            raise AlterSyntaxError("unexpected end of input")
        raise AlterSyntaxError("unclosed '('", line, col)
    return out


def to_source(expr: Any) -> str:
    """Render an expression back to Alter source (for messages and tests)."""
    if isinstance(expr, bool):
        return "#t" if expr else "#f"
    if isinstance(expr, Symbol):
        return str(expr)
    if isinstance(expr, str):
        escaped = expr.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(expr, list):
        return "(" + " ".join(to_source(e) for e in expr) + ")"
    return repr(expr)
