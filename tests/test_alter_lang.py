"""Alter language tests: lexer, parser, evaluator, standard library."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests import alter_reference_lexer
from repro.analysis.alter_lint import lint_script
from repro.core.alter.parser import MAX_DEPTH
from repro.core.alter import (
    AlterRuntimeError,
    AlterSyntaxError,
    Interpreter,
    Symbol,
    parse,
    parse_one,
    to_source,
    tokenize,
)


@pytest.fixture
def interp():
    return Interpreter()


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("(+ 1 2.5 \"hi\" #t sym)")]
        assert kinds == ["lparen", "symbol", "number", "number", "string", "bool",
                         "symbol", "rparen"]

    def test_numbers(self):
        toks = tokenize("42 -7 3.14 -2.5e3")
        assert [t.value for t in toks] == [42, -7, 3.14, -2500.0]

    def test_string_escapes(self):
        (tok,) = tokenize(r'"a\nb\"c\\d"')
        assert tok.value == 'a\nb"c\\d'

    def test_comments_ignored(self):
        toks = tokenize("1 ; a comment\n2")
        assert [t.value for t in toks] == [1, 2]

    def test_positions_tracked(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_unterminated_string(self):
        with pytest.raises(AlterSyntaxError, match="unterminated"):
            tokenize('"abc')

    def test_bad_escape(self):
        with pytest.raises(AlterSyntaxError, match="bad escape"):
            tokenize(r'"\q"')

    def test_bad_hash(self):
        with pytest.raises(AlterSyntaxError):
            tokenize("#x")


#: Pieces of Alter text: every token class, every escape and every error
#: path of the lexer, plus the words Python's int()/float() read as numbers
#: (signs, exponents, underscores, nan/inf, non-ASCII digits and spaces).
_LEX_PIECES = (
    " ", "\t", "\r", "\n", "\x0b", "\x1c", "\xa0", ";", "(", ")", "'", '"', "\\",
    "\\n", "\\t", "\\r", '\\"', "\\\\", "\\q", "#", "#t", "#f", "#x", "#tx",
    "0", "7", "-", "+", ".", "e", "1e3", "1_0", "-2.5", "+.5", "nan", "Inf",
    "infinity", "i", "n", "f", "x", "a-b?", "١", "é",
)


def _lex(tokenizer, source):
    """Tokens as comparable tuples (NaN compares by repr), or the error."""
    try:
        return [(t.kind, repr(t.value), type(t.value), t.line, t.col)
                for t in tokenizer(source)]
    except AlterSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.col)


class TestLexerMatchesReference:
    """The regex scanner agrees with the original character loop."""

    @given(st.lists(st.sampled_from(_LEX_PIECES), max_size=30).map("".join))
    @example('"abc')              # unterminated string
    @example('(a\n  "x\\q y")')   # bad escape, reported past a newline
    @example('"line\n\\')         # escape at end of input
    @example("#tx")               # bad boolean literal
    @example("1 #x")              # bad # literal
    @example("#")
    @example("(f #t)#f;c\n#t")
    @example("nan -inf 1_000 ١٢ \x0b5 \x1c5 nan\x0b x1 1e3x")
    @settings(max_examples=2000, deadline=None)
    def test_same_tokens_and_errors(self, source):
        assert _lex(tokenize, source) == _lex(alter_reference_lexer.tokenize, source)


class TestParser:
    def test_nested(self):
        expr = parse_one("(a (b 1) 2)")
        assert expr == [Symbol("a"), [Symbol("b"), 1], 2]

    def test_quote_sugar(self):
        assert parse_one("'x") == [Symbol("quote"), Symbol("x")]
        assert parse_one("'(1 2)") == [Symbol("quote"), [1, 2]]

    def test_multiple_top_level(self):
        assert len(parse("(a) (b) (c)")) == 3

    def test_unclosed_paren(self):
        with pytest.raises(AlterSyntaxError, match="unclosed"):
            parse("(a (b)")

    def test_stray_rparen(self):
        with pytest.raises(AlterSyntaxError, match="unexpected"):
            parse(")")

    def test_to_source_roundtrip(self):
        src = '(define (f x) (if (> x 0) "pos" (list 1 2 #t)))'
        assert parse_one(to_source(parse_one(src))) == parse_one(src)

    def test_quote_at_end_of_input(self):
        with pytest.raises(AlterSyntaxError, match="unexpected end of input"):
            parse("(a '")

    def test_quote_before_rparen(self):
        with pytest.raises(AlterSyntaxError, match=r"unexpected '\)' \(line 1, col 3\)"):
            parse("(')")


def _nested_sum(depth):
    """``(+ 1 (+ 1 ... 0))``: ``depth`` nested lists that evaluate to ``depth``."""
    return "(+ 1 " * depth + "0" + ")" * depth


class TestNestingLimit:
    """Nesting beyond MAX_DEPTH is a syntax error, never a RecursionError."""

    @pytest.mark.parametrize("source, value", [
        (_nested_sum(MAX_DEPTH), MAX_DEPTH),
        ("'" * MAX_DEPTH + "x", None),
    ], ids=["lists", "quotes"])
    def test_deepest_allowed_parses_lints_and_evaluates(self, source, value):
        assert len(parse(source)) == 1
        assert lint_script(source) == []
        result = Interpreter().run(source)
        if value is not None:
            assert result == value

    @pytest.mark.parametrize("source, col", [
        (_nested_sum(MAX_DEPTH + 1), 5 * MAX_DEPTH + 1),
        ("'" * (MAX_DEPTH + 1) + "x", MAX_DEPTH + 1),
        ("(" * 3000, MAX_DEPTH + 1),
        ("(" * 3000 + ")" * 3000, MAX_DEPTH + 1),
        ("'" * 3000 + "x", MAX_DEPTH + 1),
    ], ids=["lists", "quotes", "unclosed", "closed", "quotes-3000"])
    def test_one_level_deeper_is_a_syntax_error(self, source, col):
        message = rf"nesting deeper than {MAX_DEPTH} \(line 1, col {col}\)"
        with pytest.raises(AlterSyntaxError, match=message):
            parse(source)
        with pytest.raises(AlterSyntaxError, match=message):
            Interpreter().run(source)
        (finding,) = lint_script(source)
        assert finding.rule == "ALT000" and finding.where == f"<script>:1:{col}"


class TestEvalCore:
    def test_arithmetic(self, interp):
        assert interp.run("(+ 1 2 3)") == 6
        assert interp.run("(- 10 3 2)") == 5
        assert interp.run("(- 4)") == -4
        assert interp.run("(* 2 3 4)") == 24
        assert interp.run("(/ 10 4)") == 2.5
        assert interp.run("(/ 10 5)") == 2
        assert interp.run("(mod 10 3)") == 1
        assert interp.run("(quotient 10 3)") == 3

    def test_division_by_zero(self, interp):
        with pytest.raises(AlterRuntimeError, match="division by zero"):
            interp.run("(/ 1 0)")

    def test_comparisons_chain(self, interp):
        assert interp.run("(< 1 2 3)") is True
        assert interp.run("(< 1 3 2)") is False
        assert interp.run("(= 2 2 2)") is True

    def test_define_and_lookup(self, interp):
        interp.run("(define x 5)")
        assert interp.run("(+ x 1)") == 6

    def test_unbound_symbol(self, interp):
        with pytest.raises(AlterRuntimeError, match="unbound"):
            interp.run("nope")

    def test_set_bang(self, interp):
        interp.run("(define x 1) (set! x 9)")
        assert interp.run("x") == 9

    def test_set_unbound_raises(self, interp):
        with pytest.raises(AlterRuntimeError, match="unbound"):
            interp.run("(set! ghost 1)")

    def test_if(self, interp):
        assert interp.run('(if (> 2 1) "yes" "no")') == "yes"
        assert interp.run('(if (> 1 2) "yes")') is None

    def test_cond_with_else(self, interp):
        src = """
        (define (sign x)
          (cond ((> x 0) 1)
                ((< x 0) -1)
                (else 0)))
        (list (sign 5) (sign -5) (sign 0))
        """
        assert Interpreter().run(src) == [1, -1, 0]

    def test_lambda_and_closure(self, interp):
        src = """
        (define (make-adder n) (lambda (x) (+ x n)))
        (define add3 (make-adder 3))
        (add3 10)
        """
        assert interp.run(src) == 13

    def test_define_function_sugar(self, interp):
        interp.run("(define (sq x) (* x x))")
        assert interp.run("(sq 7)") == 49

    def test_rest_args(self, interp):
        interp.run("(define (f a . rest) (list a rest))")
        assert interp.run("(f 1 2 3)") == [1, [2, 3]]
        assert interp.run("(f 1)") == [1, []]

    def test_arity_error(self, interp):
        interp.run("(define (f a b) a)")
        with pytest.raises(AlterRuntimeError, match="expected 2"):
            interp.run("(f 1)")

    def test_let_parallel_binding(self, interp):
        src = "(define x 1) (let ((x 2) (y x)) (list x y))"
        assert interp.run(src) == [2, 1]

    def test_let_star_sequential_binding(self, interp):
        assert interp.run("(let* ((x 2) (y (* x 3))) y)") == 6

    def test_begin(self, interp):
        assert interp.run("(begin 1 2 3)") == 3

    def test_while_loop(self, interp):
        src = """
        (define i 0) (define total 0)
        (while (< i 5)
          (set! total (+ total i))
          (set! i (+ i 1)))
        total
        """
        assert interp.run(src) == 10

    def test_and_or_short_circuit(self, interp):
        assert interp.run("(and 1 2 3)") == 3
        assert interp.run("(and 1 #f (error \"boom\"))") is False
        assert interp.run("(or #f 7)") == 7
        assert interp.run("(or 1 (error \"boom\"))") == 1

    def test_when_unless(self, interp):
        assert interp.run("(when (> 2 1) 5)") == 5
        assert interp.run("(when (< 2 1) 5)") is None
        assert interp.run("(unless (< 2 1) 6)") == 6

    def test_quote(self, interp):
        assert interp.run("'(1 2 3)") == [1, 2, 3]
        assert interp.run("'abc") == Symbol("abc")

    def test_recursion(self, interp):
        interp.run("(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1)))))")
        assert interp.run("(fact 10)") == 3628800

    def test_deep_tail_recursion_does_not_overflow(self, interp):
        interp.run("(define (count n acc) (if (= n 0) acc (count (- n 1) (+ acc 1))))")
        assert interp.run("(count 100000 0)") == 100000

    def test_calling_non_callable(self, interp):
        with pytest.raises(AlterRuntimeError, match="not callable"):
            interp.run("(5 1 2)")


class TestStdlib:
    def test_list_ops(self, interp):
        assert interp.run("(car '(1 2 3))") == 1
        assert interp.run("(cdr '(1 2 3))") == [2, 3]
        assert interp.run("(cons 0 '(1 2))") == [0, 1, 2]
        assert interp.run("(append '(1) '(2 3) '(4))") == [1, 2, 3, 4]
        assert interp.run("(length '(1 2 3))") == 3
        assert interp.run("(reverse '(1 2 3))") == [3, 2, 1]
        assert interp.run("(null? '())") is True
        assert interp.run("(list-ref '(a b c) 1)") == Symbol("b")
        assert interp.run("(member 2 '(1 2 3))") is True

    def test_car_of_empty(self, interp):
        with pytest.raises(AlterRuntimeError):
            interp.run("(car '())")

    def test_map_filter_fold(self, interp):
        assert interp.run("(map (lambda (x) (* x x)) '(1 2 3))") == [1, 4, 9]
        assert interp.run("(filter (lambda (x) (> x 1)) '(0 1 2 3))") == [2, 3]
        assert interp.run("(fold + 0 '(1 2 3 4))") == 10

    def test_map_two_lists(self, interp):
        assert interp.run("(map + '(1 2) '(10 20))") == [11, 22]

    def test_sort_with_key(self, interp):
        assert interp.run("(sort '(3 1 2))") == [1, 2, 3]
        assert interp.run("(sort '(3 1 2) (lambda (x) (- x)))") == [3, 2, 1]

    def test_range(self, interp):
        assert interp.run("(range 4)") == [0, 1, 2, 3]
        assert interp.run("(range 2 5)") == [2, 3, 4]

    def test_assoc(self, interp):
        assert interp.run("(assoc 'b '((a 1) (b 2)))") == [Symbol("b"), 2]
        assert interp.run("(assoc 'z '((a 1)))") is False

    def test_string_ops(self, interp):
        assert interp.run('(string-append "a" "b" 3)') == "ab3"
        assert interp.run('(string-upcase "abc")') == "ABC"
        assert interp.run('(substring "hello" 1 3)') == "el"
        assert interp.run('(string-join (list 1 2 3) ", ")') == "1, 2, 3"
        assert interp.run("(number->string 42)") == "42"

    def test_format_directives(self, interp):
        assert interp.run('(format "x=~a y=~s~%" 5 "hi")') == 'x=5 y="hi"\n'
        assert interp.run('(format "~~")') == "~"

    def test_format_arg_count_errors(self, interp):
        with pytest.raises(AlterRuntimeError, match="not enough"):
            interp.run('(format "~a")')
        with pytest.raises(AlterRuntimeError, match="unused"):
            interp.run('(format "x" 1)')

    def test_predicates(self, interp):
        assert interp.run('(string? "x")') is True
        assert interp.run("(string? 'x)") is False
        assert interp.run("(number? 4)") is True
        assert interp.run("(number? #t)") is False
        assert interp.run("(symbol? 'x)") is True
        assert interp.run("(boolean? #f)") is True

    def test_apply(self, interp):
        assert interp.run("(apply + '(1 2 3))") == 6

    def test_error_builtin(self, interp):
        with pytest.raises(AlterRuntimeError, match="custom failure 42"):
            interp.run('(error "custom failure" 42)')

    def test_emit_accumulates(self, interp):
        interp.run('(emit "a" 1)(emit-line "b")(emit "c")')
        assert interp.output() == "a1b\nc"
        interp.reset_output()
        assert interp.output() == ""

    def test_py_repr_for_python_literals(self, interp):
        assert interp.run('(py-repr "it\'s")') == repr("it's")
        assert interp.run("(py-repr 3)") == "3"


class TestModelAccess:
    def make_model(self):
        from repro.core.model import (
            ApplicationModel,
            DataType,
            FunctionBlock,
            round_robin_mapping,
            striped,
        )

        t = DataType("m", "complex64", (8, 8))
        app = ApplicationModel("app")
        src = app.add_block(FunctionBlock("src", kernel="matrix_source", params={"n": 8}))
        src.add_out("out", t, striped(0))
        snk = app.add_block(FunctionBlock("snk", kernel="matrix_sink", threads=2))
        snk.add_in("in", t, striped(1))
        app.connect(src.port("out"), snk.port("in"))
        return app, round_robin_mapping(app, 2)

    def test_traversal(self):
        app, mapping = self.make_model()
        interp = Interpreter()
        interp.globals.define("model", app)
        assert interp.run("(object-name model)") == "app"
        assert interp.run("(object-type model)") == "ApplicationModel"
        assert interp.run("(length (function-instances model))") == 2
        assert interp.run("(instance-path (car (function-instances model)))") == "src"
        assert interp.run("(instance-kernel (list-ref (function-instances model) 1))") == "matrix_sink"
        assert interp.run("(instance-threads (list-ref (function-instances model) 1))") == 2

    def test_ports_and_arcs(self):
        app, _ = self.make_model()
        interp = Interpreter()
        interp.globals.define("model", app)
        assert interp.run("(length (flattened-arcs model))") == 1
        src_port = "(car (car (flattened-arcs model)))"
        assert interp.run(f"(port-name {src_port})") == "out"
        assert interp.run(f"(port-direction {src_port})") == "out"
        assert interp.run(f"(port-striping-kind {src_port})") == "striped"
        assert interp.run(f"(port-stripe-axis {src_port})") == 0
        assert interp.run(f"(port-dtype {src_port})") == "complex64"
        assert interp.run(f"(port-shape {src_port})") == [8, 8]
        assert interp.run(f"(port-elem-bytes {src_port})") == 8
        assert interp.run(f"(port-total-bytes {src_port})") == 8 * 8 * 8

    def test_properties_roundtrip(self):
        app, _ = self.make_model()
        interp = Interpreter()
        interp.globals.define("model", app)
        interp.run('(set-property! model "version" 3)')
        assert interp.run('(get-property model "version")') == 3
        assert interp.run('(get-property model "missing" 99)') == 99
        with pytest.raises(AlterRuntimeError, match="no property"):
            interp.run('(get-property model "missing")')

    def test_instance_params_alist(self):
        app, _ = self.make_model()
        interp = Interpreter()
        interp.globals.define("model", app)
        params = interp.run("(instance-params (car (function-instances model)))")
        assert params == [["n", 8]]

    def test_mapping_access(self):
        app, mapping = self.make_model()
        interp = Interpreter()
        interp.globals.define("mapping", mapping)
        assert interp.run("(mapping-processor mapping 1 0)") == 0
        assert interp.run("(mapping-processor mapping 1 1)") == 1

    def test_get_property_on_non_model(self):
        interp = Interpreter()
        with pytest.raises(AlterRuntimeError, match="not a model object"):
            interp.run('(get-property 5 "x")')
