"""Property-based tests for the Alter language (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.alter_lint import lint_script
from repro.core.alter import (
    AlterSyntaxError,
    Interpreter,
    Symbol,
    parse,
    parse_one,
    to_source,
)

# ---------------------------------------------------------------------------
# expression generators
# ---------------------------------------------------------------------------

_atoms = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32).filter(
        lambda f: abs(f) < 1e9
    ),
    st.booleans(),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" _-"
        ),
        max_size=12,
    ),
    st.sampled_from(
        [Symbol(s) for s in ("a", "foo", "x1", "list?", "+", "set!", "->name")]
    ),
)

_sexprs = st.recursive(
    _atoms, lambda children: st.lists(children, max_size=5), max_leaves=25
)


def _normalise(expr):
    """Integral floats print as ints; mirror that for comparison."""
    if isinstance(expr, float) and expr.is_integer() and abs(expr) < 2**53:
        return int(expr)
    if isinstance(expr, list):
        return [_normalise(e) for e in expr]
    return expr


class TestReaderRoundTrip:
    @given(_sexprs)
    @settings(max_examples=200, deadline=None)
    def test_to_source_parse_roundtrip(self, expr):
        rendered = to_source(expr)
        reparsed = parse_one(rendered)
        assert reparsed == _normalise(expr)

    @given(st.lists(_sexprs, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_program_roundtrip(self, exprs):
        source = "\n".join(to_source(e) for e in exprs)
        assert parse(source) == [_normalise(e) for e in exprs]


#: Token soup: special forms, delimiters, literals and malformed pieces.
_SOUP_PIECES = (
    "(", ")", "'", "quote", "if", "cond", "else", "define", "set!", "lambda",
    "let", "let*", "begin", "while", "and", "or", "when", "unless", ".",
    "x", "f", "+", "car", "1", "-2.5", "nan", '"s"', "#t", "#f", "#x", "#tx",
    '"\\q"', '"', ";c\n", "\n",
)
#: A run of openers, so some soups nest past the reader's depth limit.
_OPENER_RUN = st.tuples(st.sampled_from(["(", "'"]), st.integers(1, 400)).map(
    lambda run: run[0] * run[1])
_soups = st.lists(st.one_of(st.sampled_from(_SOUP_PIECES), _OPENER_RUN),
                  max_size=40).map(" ".join)


class TestFrontDoor:
    """Whatever the text, the reader and the linter fail only in their
    documented way."""

    @given(_soups)
    @settings(max_examples=300, deadline=None)
    def test_parse_raises_only_syntax_errors(self, source):
        try:
            parse(source)
        except AlterSyntaxError:
            pass

    @given(_soups)
    @settings(max_examples=300, deadline=None)
    def test_lint_never_raises(self, source):
        assert isinstance(lint_script(source), list)


class TestArithmeticProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sum_matches_python(self, xs):
        interp = Interpreter()
        src = "(+ " + " ".join(str(x) for x in xs) + ")"
        assert interp.run(src) == sum(xs)

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_python(self, xs):
        interp = Interpreter()
        src = "(* " + " ".join(str(x) for x in xs) + ")"
        assert interp.run(src) == math.prod(xs)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_comparison_trichotomy(self, a, b):
        interp = Interpreter()
        lt = interp.run(f"(< {a} {b})")
        gt = interp.run(f"(> {a} {b})")
        eq = interp.run(f"(= {a} {b})")
        assert [lt, gt, eq].count(True) == 1

    @given(st.lists(st.integers(-50, 50), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_map_filter_consistent_with_python(self, xs):
        interp = Interpreter()
        interp.globals.define("xs", list(xs))
        doubled = interp.run("(map (lambda (x) (* 2 x)) xs)")
        assert doubled == [2 * x for x in xs]
        positive = interp.run("(filter (lambda (x) (> x 0)) xs)")
        assert positive == [x for x in xs if x > 0]

    @given(st.lists(st.integers(-50, 50), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_reverse_involution(self, xs):
        interp = Interpreter()
        interp.globals.define("xs", list(xs))
        assert interp.run("(reverse (reverse xs))") == xs

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_sort_is_sorted_permutation(self, xs):
        interp = Interpreter()
        interp.globals.define("xs", list(xs))
        out = interp.run("(sort xs)")
        assert out == sorted(xs)


class TestEmitProperties:
    @given(st.lists(st.text(max_size=15).filter(lambda s: "\x00" not in s), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_emitted_strings_concatenate_exactly(self, parts):
        interp = Interpreter()
        for part in parts:
            interp.globals.define("s", part)
            interp.run("(emit s)")
        assert interp.output() == "".join(parts)

    @given(st.text(max_size=30).filter(lambda s: "\x00" not in s))
    @settings(max_examples=80, deadline=None)
    def test_py_repr_emits_evaluable_python_strings(self, s):
        interp = Interpreter()
        interp.globals.define("s", s)
        rendered = interp.run("(py-repr s)")
        assert eval(rendered) == s  # noqa: S307 - the point of py-repr
