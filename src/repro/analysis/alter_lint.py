"""Static linter for Alter glue scripts (the SAGE Verifier's first pass).

Runs over the parsed AST — before any script executes — and catches the
codegen-script bug classes that otherwise surface mid-traversal deep inside
glue generation:

* **ALT000** — syntax errors (unclosed parens, bad literals),
* **ALT001** — unbound symbols (typos, missing defines),
* **ALT002** — arity mismatches against the :mod:`~repro.core.alter.builtins`
  standard library and against user-defined procedures,
* **ALT003** — ``define``\\ s that are never referenced,
* **ALT004** — bindings that shadow a builtin or an outer binding,
* **ALT005** — unreachable branches (literal-constant tests),
* **ALT006** — malformed special forms (wrong shape for ``define``/``let``/...).

Scoping mirrors the interpreter exactly: lexical scope chains, ``define``
hoisting within a body sequence, named ``let``, rest parameters, and the
special forms of :class:`~repro.core.alter.interpreter.Interpreter`.
"""

from __future__ import annotations

import difflib
import inspect
from functools import lru_cache
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..core.alter.errors import AlterSyntaxError
from ..core.alter.interpreter import Interpreter
from ..core.alter.parser import Symbol, parse_cached, parse_with_locations, to_source
from .report import Finding

__all__ = ["lint_script", "script_defines", "builtin_signatures"]

#: Names the glue-code generator injects into the global environment.
GLUE_GLOBALS = ("model", "mapping", "nprocs", "options")

_SPECIAL_FORMS = frozenset(
    ["quote", "if", "cond", "define", "set!", "lambda", "let", "let*",
     "begin", "while", "and", "or", "when", "unless", "else"]
)

#: (min_args, max_args or None) per callable builtin; None entry = constant.
Arity = Optional[Tuple[int, Optional[int]]]


@lru_cache(maxsize=1)
def builtin_signatures() -> Dict[str, Arity]:
    """Arity table of the standard library, introspected from the builtins."""
    interp = Interpreter()
    table: Dict[str, Arity] = {}
    for name, value in interp.globals.vars.items():
        if not callable(value):
            table[name] = None  # constant (nil/true/false)
            continue
        try:
            sig = inspect.signature(value)
        except (TypeError, ValueError):  # pragma: no cover - all are python fns
            table[name] = (0, None)
            continue
        lo = 0
        hi: Optional[int] = 0
        for param in sig.parameters.values():
            if param.kind == inspect.Parameter.VAR_POSITIONAL:
                hi = None
            elif param.kind in (inspect.Parameter.POSITIONAL_ONLY,
                                inspect.Parameter.POSITIONAL_OR_KEYWORD):
                if param.default is inspect.Parameter.empty:
                    lo += 1
                if hi is not None:
                    hi += 1
        table[name] = (lo, hi)
    return table


class _Binding:
    __slots__ = ("name", "kind", "where", "arity", "used", "assigned")

    def __init__(self, name: str, kind: str, where: str, arity: Arity = None):
        self.name = name
        self.kind = kind  # "builtin" | "const" | "global" | "define" | "param" | "let"
        self.where = where
        self.arity = arity
        self.used = False
        self.assigned = False


class _Scope:
    __slots__ = ("vars", "parent", "hoisted")

    def __init__(self, parent: Optional["_Scope"] = None):
        self.vars: Dict[str, _Binding] = {}
        self.parent = parent
        self.hoisted: set = set()  # id() of define forms pre-registered here

    def lookup(self, name: str) -> Optional[_Binding]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def visible_names(self) -> List[str]:
        names: set = set()
        scope: Optional[_Scope] = self
        while scope is not None:
            names.update(scope.vars)
            scope = scope.parent
        return sorted(names)


def script_defines(source: str) -> FrozenSet[str]:
    """Names a script ``define``\\ s at top level (visible to later scripts)."""
    try:
        exprs = parse_cached(source)  # the interpreter's lookup then hits
    except AlterSyntaxError:
        return frozenset()
    names = set()
    for expr in exprs:
        name = _define_name(expr)
        if name:
            names.add(name)
    return frozenset(names)


def _define_name(expr: Any) -> Optional[str]:
    if (isinstance(expr, list) and len(expr) >= 3
            and isinstance(expr[0], Symbol) and str(expr[0]) == "define"):
        target = expr[1]
        if isinstance(target, Symbol):
            return str(target)
        if isinstance(target, list) and target and isinstance(target[0], Symbol):
            return str(target[0])
    return None


@lru_cache(maxsize=256)
def _lint_cached(source: str, name: str, extra_globals: FrozenSet[str]) -> Tuple[Finding, ...]:
    return tuple(_Linter(source, name, extra_globals).run())


def lint_script(source: str, name: str = "<script>",
                extra_globals: Tuple[str, ...] = GLUE_GLOBALS) -> List[Finding]:
    """Lint one Alter script; returns findings (never raises on bad scripts).

    ``extra_globals`` are names assumed bound in the interpreter's global
    environment before the script runs (the generator injects
    :data:`GLUE_GLOBALS`; pass the accumulated top-level defines of earlier
    scripts when linting a sequenced script set).
    """
    return list(_lint_cached(source, name, frozenset(extra_globals)))


class _Linter:
    def __init__(self, source: str, name: str, extra_globals: FrozenSet[str]):
        self.source = source
        self.name = name
        self.extra_globals = extra_globals
        self.findings: List[Finding] = []
        self.locs: Dict[int, Tuple[int, int]] = {}

    # -- plumbing -----------------------------------------------------------
    def _where(self, node: Any) -> str:
        loc = self.locs.get(id(node))
        if loc is None:
            return self.name
        return f"{self.name}:{loc[0]}:{loc[1]}"

    def _report(self, severity: str, rule: str, node: Any, message: str,
                hint: str = "") -> None:
        self.findings.append(
            Finding(severity, rule, self._where(node), message, hint, "alter-lint")
        )

    # -- entry --------------------------------------------------------------
    def run(self) -> List[Finding]:
        try:
            exprs, self.locs = parse_with_locations(self.source)
        except AlterSyntaxError as exc:
            self.findings.append(
                Finding("error", "ALT000", f"{self.name}:{exc.line}:{exc.col}",
                        str(exc), "fix the script syntax", "alter-lint")
            )
            return self.findings

        root = _Scope()
        for bname, arity in builtin_signatures().items():
            kind = "const" if arity is None else "builtin"
            root.vars[bname] = _Binding(bname, kind, "<builtin>", arity)
        globals_scope = _Scope(root)
        for gname in sorted(self.extra_globals):
            globals_scope.vars[gname] = _Binding(gname, "global", "<injected>")

        top = _Scope(globals_scope)
        self._walk_body(exprs, top)
        self._close_scope(top)
        return self.findings

    # -- scope management ---------------------------------------------------
    def _bind(self, scope: _Scope, name: str, kind: str, node: Any,
              arity: Arity = None) -> _Binding:
        outer = scope.parent.lookup(name) if scope.parent else None
        if outer is not None and outer.kind in ("builtin", "const"):
            self._report(
                "warning", "ALT004", node,
                f"'{name}' shadows the builtin of the same name",
                "rename the binding",
            )
        elif outer is not None and kind in ("param", "let") or (
            outer is not None and outer.kind in ("define", "param", "let")
            and kind == "define" and scope.parent is not None
            and scope.parent.parent is not None  # inner scopes only
        ):
            self._report(
                "warning", "ALT004", node,
                f"'{name}' shadows an outer binding",
                "rename the binding to avoid confusion",
            )
        binding = _Binding(name, kind, self._where(node), arity)
        scope.vars[name] = binding
        return binding

    def _close_scope(self, scope: _Scope) -> None:
        for binding in scope.vars.values():
            if binding.kind == "define" and not binding.used:
                self.findings.append(
                    Finding("warning", "ALT003", binding.where,
                            f"'{binding.name}' is defined but never used",
                            "remove the define or reference it", "alter-lint")
                )

    # -- body walking (define hoisting) ------------------------------------
    def _walk_body(self, exprs: List[Any], scope: _Scope) -> None:
        for expr in exprs:
            name = _define_name(expr)
            if name and name not in scope.vars:
                arity = self._define_arity(expr)
                self._bind(scope, name, "define", expr, arity)
                scope.hoisted.add(id(expr))
        for expr in exprs:
            self._walk(expr, scope)

    @staticmethod
    def _define_arity(expr: List[Any]) -> Arity:
        target = expr[1]
        if isinstance(target, list):
            params, rest, err = _parse_params(target[1:])
            if err is None:
                return (len(params), None if rest else len(params))
        return None

    # -- the walker ---------------------------------------------------------
    def _walk(self, expr: Any, scope: _Scope) -> None:
        if isinstance(expr, Symbol):
            self._use(expr, scope)
            return
        if not isinstance(expr, list) or not expr:
            return
        head = expr[0]
        if isinstance(head, Symbol) and str(head) in _SPECIAL_FORMS:
            handler = getattr(self, "_form_" + _FORM_METHODS[str(head)])
            handler(expr, scope)
            return
        self._walk_application(expr, scope)

    def _use(self, sym: Symbol, scope: _Scope) -> Optional[_Binding]:
        binding = scope.lookup(str(sym))
        if binding is None:
            close = difflib.get_close_matches(str(sym), scope.visible_names(), n=1)
            hint = f"did you mean '{close[0]}'?" if close else "define it first"
            self._report("error", "ALT001", sym,
                         f"unbound symbol '{sym}'", hint)
            return None
        binding.used = True
        return binding

    def _walk_application(self, expr: List[Any], scope: _Scope) -> None:
        head = expr[0]
        nargs = len(expr) - 1
        if isinstance(head, Symbol):
            binding = self._use(head, scope)
            if binding is not None:
                if binding.kind == "const":
                    self._report("error", "ALT002", head,
                                 f"'{head}' is a constant, not a procedure",
                                 "remove the parentheses")
                elif binding.arity is not None and not binding.assigned:
                    self._check_arity(head, str(head), binding.arity, nargs)
        elif (isinstance(head, list) and head
              and isinstance(head[0], Symbol) and str(head[0]) == "lambda"):
            # ((lambda (a b) ...) x): check the immediate application too.
            if len(head) >= 3 and isinstance(head[1], list):
                params, rest, err = _parse_params(head[1])
                if err is None:
                    arity = (len(params), None if rest else len(params))
                    self._check_arity(expr, "<lambda>", arity, nargs)
            self._walk(head, scope)
        else:
            self._walk(head, scope)
        for arg in expr[1:]:
            self._walk(arg, scope)

    def _check_arity(self, node: Any, name: str, arity: Tuple[int, Optional[int]],
                     nargs: int) -> None:
        lo, hi = arity
        if nargs < lo or (hi is not None and nargs > hi):
            if hi is None:
                want = f"at least {lo}"
            elif lo == hi:
                want = str(lo)
            else:
                want = f"{lo}..{hi}"
            self._report("error", "ALT002", node,
                         f"'{name}' expects {want} argument(s), got {nargs}",
                         "check the call site against the signature")

    # -- special forms -------------------------------------------------------
    def _form_quote(self, expr, scope):
        if len(expr) != 2:
            self._report("error", "ALT006", expr, "quote takes exactly 1 argument")
        # quoted data is literal: no name resolution inside

    def _form_if(self, expr, scope):
        if len(expr) not in (3, 4):
            self._report("error", "ALT006", expr, "if needs 2 or 3 forms")
            for sub in expr[1:]:
                self._walk(sub, scope)
            return
        test = expr[1]
        if _is_literal(test):
            if _literal_truthy(test) and len(expr) == 4:
                self._report("warning", "ALT005", expr[3],
                             "else branch is unreachable (test is always true)",
                             "remove the dead branch")
            elif not _literal_truthy(test):
                self._report("warning", "ALT005", expr[2],
                             "then branch is unreachable (test is always false)",
                             "remove the dead branch")
        for sub in expr[1:]:
            self._walk(sub, scope)

    def _form_cond(self, expr, scope):
        terminal = False
        for clause in expr[1:]:
            if not isinstance(clause, list) or not clause:
                self._report("error", "ALT006", clause if clause else expr,
                             "cond clause must be a non-empty list")
                continue
            test = clause[0]
            if terminal:
                self._report("warning", "ALT005", clause,
                             "cond clause is unreachable (an earlier clause "
                             "always matches)", "remove the dead clause")
            is_else = isinstance(test, Symbol) and str(test) == "else"
            if is_else or (_is_literal(test) and _literal_truthy(test)):
                terminal = True
            if not is_else:
                self._walk(test, scope)
            for sub in clause[1:]:
                self._walk(sub, scope)

    def _form_define(self, expr, scope):
        if len(expr) < 3:
            self._report("error", "ALT006", expr, "define needs a name and a value")
            return
        target = expr[1]
        if isinstance(target, Symbol):
            if len(expr) != 3:
                self._report("error", "ALT006", expr,
                             "define of a name takes exactly one value")
            if id(expr) not in scope.hoisted and str(target) not in scope.vars:
                self._bind(scope, str(target), "define", expr)
            for sub in expr[2:]:
                self._walk(sub, scope)
            return
        if isinstance(target, list) and target and isinstance(target[0], Symbol):
            params, rest, err = _parse_params(target[1:])
            if err is not None:
                self._report("error", "ALT006", expr, err)
                return
            fname = str(target[0])
            if id(expr) not in scope.hoisted and fname not in scope.vars:
                self._bind(scope, fname, "define", expr, self._define_arity(expr))
            inner = _Scope(scope)
            for p in params:
                self._bind(inner, p, "param", target)
            if rest:
                self._bind(inner, rest, "param", target)
            self._walk_body(expr[2:], inner)
            self._close_scope(inner)
            return
        self._report("error", "ALT006", expr, "bad define target")

    def _form_set(self, expr, scope):
        if len(expr) != 3 or not isinstance(expr[1], Symbol):
            self._report("error", "ALT006", expr, "set! needs a symbol and a value")
            for sub in expr[1:]:
                if not isinstance(sub, Symbol):
                    self._walk(sub, scope)
            return
        binding = scope.lookup(str(expr[1]))
        if binding is None:
            self._report("error", "ALT001", expr[1],
                         f"set! of unbound symbol '{expr[1]}'",
                         "define it before assigning")
        else:
            binding.assigned = True
        self._walk(expr[2], scope)

    def _form_lambda(self, expr, scope):
        if len(expr) < 3:
            self._report("error", "ALT006", expr, "lambda needs params and body")
            return
        if not isinstance(expr[1], list):
            self._report("error", "ALT006", expr, "lambda parameter list must be a list")
            return
        params, rest, err = _parse_params(expr[1])
        if err is not None:
            self._report("error", "ALT006", expr, err)
            return
        inner = _Scope(scope)
        for p in params:
            self._bind(inner, p, "param", expr)
        if rest:
            self._bind(inner, rest, "param", expr)
        self._walk_body(expr[2:], inner)
        self._close_scope(inner)

    def _form_let(self, expr, scope):
        form = str(expr[0])
        # Named let: (let loop ((v init) ...) body...)
        if form == "let" and len(expr) >= 4 and isinstance(expr[1], Symbol):
            bindings = expr[2]
            if not isinstance(bindings, list):
                self._report("error", "ALT006", expr, "named let needs a binding list")
                return
            names = []
            for b in bindings:
                bname = self._binding_name(b, expr)
                if bname is None:
                    return
                names.append(bname)
                self._walk(b[1], scope)
            loop_scope = _Scope(scope)
            loop = self._bind(loop_scope, str(expr[1]), "define", expr,
                              (len(names), len(names)))
            loop.used = True  # the initial application counts as a use
            inner = _Scope(loop_scope)
            for bname, b in zip(names, bindings):
                self._bind(inner, bname, "let", b)
            self._walk_body(expr[3:], inner)
            self._close_scope(inner)
            return
        if len(expr) < 3 or not isinstance(expr[1], list):
            self._report("error", "ALT006", expr, f"{form} needs bindings and body")
            return
        inner = _Scope(scope)
        for b in expr[1]:
            bname = self._binding_name(b, expr)
            if bname is None:
                return
            # let evaluates inits in the outer scope, let* sequentially.
            self._walk(b[1], scope if form == "let" else inner)
            self._bind(inner, bname, "let", b)
        self._walk_body(expr[2:], inner)
        self._close_scope(inner)

    def _binding_name(self, b: Any, ctx: Any) -> Optional[str]:
        if (not isinstance(b, list) or len(b) != 2
                or not isinstance(b[0], Symbol)):
            self._report("error", "ALT006", b if isinstance(b, list) else ctx,
                         "let binding must be (name value)")
            return None
        return str(b[0])

    def _form_begin(self, expr, scope):
        self._walk_body(expr[1:], scope)

    def _form_while(self, expr, scope):
        if len(expr) < 2:
            self._report("error", "ALT006", expr, "while needs a test")
            return
        if _is_literal(expr[1]) and not _literal_truthy(expr[1]):
            for sub in expr[2:]:
                self._report("warning", "ALT005", sub,
                             "while body is unreachable (test is always false)",
                             "remove the dead loop")
        self._walk(expr[1], scope)
        self._walk_body(expr[2:], scope)

    def _form_and_or(self, expr, scope):
        for sub in expr[1:]:
            self._walk(sub, scope)

    def _form_when(self, expr, scope):
        self._one_armed(expr, scope, negate=False)

    def _form_unless(self, expr, scope):
        self._one_armed(expr, scope, negate=True)

    def _one_armed(self, expr, scope, negate: bool):
        form = str(expr[0])
        if len(expr) < 2:
            self._report("error", "ALT006", expr, f"{form} needs a test")
            return
        test = expr[1]
        if _is_literal(test) and (_literal_truthy(test) == negate):
            for sub in expr[2:]:
                self._report("warning", "ALT005", sub,
                             f"{form} body is unreachable (test is constant)",
                             "remove the dead branch")
        self._walk(test, scope)
        self._walk_body(expr[2:], scope)

    def _form_else(self, expr, scope):
        # 'else' outside cond: treat like an unbound symbol application.
        self._report("error", "ALT006", expr, "'else' is only valid inside cond")


_FORM_METHODS = {
    "quote": "quote",
    "if": "if",
    "cond": "cond",
    "define": "define",
    "set!": "set",
    "lambda": "lambda",
    "let": "let",
    "let*": "let",
    "begin": "begin",
    "while": "while",
    "and": "and_or",
    "or": "and_or",
    "when": "when",
    "unless": "unless",
    "else": "else",
}


def _parse_params(param_expr: Any) -> Tuple[List[str], Optional[str], Optional[str]]:
    """Mirror of the interpreter's parameter parsing, returning an error string."""
    if not isinstance(param_expr, list):
        return [], None, "parameter list must be a list"
    params: List[str] = []
    rest: Optional[str] = None
    it = iter(param_expr)
    for p in it:
        if isinstance(p, Symbol) and str(p) == ".":
            rest_sym = next(it, None)
            if rest_sym is None:
                return params, None, "rest parameter missing after '.'"
            if not isinstance(rest_sym, Symbol):
                return params, None, "rest parameter must be a symbol"
            rest = str(rest_sym)
            break
        if not isinstance(p, Symbol):
            return params, None, f"parameters must be symbols, got {to_source(p)}"
        params.append(str(p))
    return params, rest, None


def _is_literal(expr: Any) -> bool:
    return not isinstance(expr, (Symbol, list))


def _literal_truthy(expr: Any) -> bool:
    return expr is not False and expr is not None
