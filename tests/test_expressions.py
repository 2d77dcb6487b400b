import random
import warnings

import numpy as np
import pytest
from _reference_parser import compile_expression as reference_compile

from delaywave.errors import ExpressionError
from delaywave.expressions import compile_expression


def test_numbers_and_precedence():
    e = compile_expression("2 + 3*4^2")
    assert e() == 50.0
    assert compile_expression("2^3^2")() == 512.0  # right associative
    assert compile_expression("-2^2")() == -4.0
    assert compile_expression("(2+3)*4")() == 20.0
    assert compile_expression("1e-3 + 0.5")() == pytest.approx(0.5010)


def test_functions_and_constants():
    assert compile_expression("sin(pi/2)")() == pytest.approx(1.0)
    assert compile_expression("cos(0)")() == 1.0
    assert compile_expression("exp(1)")() == pytest.approx(np.e)
    assert compile_expression("abs(-3)")() == 3.0


def test_variables_vectorized():
    e = compile_expression("sin(pi*x)*cos(s)", ("x", "s"))
    x = np.linspace(0, 1, 5)
    out = e(x=x, s=0.5)
    assert np.allclose(out, np.sin(np.pi * x) * np.cos(0.5))


def test_tau_alias():
    e = compile_expression("exp(-τ)", ("tau",))
    assert e(tau=1.0) == pytest.approx(np.exp(-1.0))
    assert compile_expression("exp(-tau)", ("tau",))(tau=1.0) == pytest.approx(np.exp(-1.0))


@pytest.mark.parametrize("text,names", [
    ("0", set()),
    ("0.7*sin(pi*x)", {"x"}),
    ("x*s + tau", {"x", "s", "tau"}),
    ("e*pi", set()),  # constants are not names
    ("τ", {"tau"}),
    ("sin(s)^2", {"s"}),
])
def test_names_are_the_variables_the_tree_reads(text, names):
    # allowed but unread variables are not names, so f0 = 0 does not read s
    assert compile_expression(text, ("x", "s", "tau")).names == names


def test_unknown_name_lists_allowed_variables():
    with pytest.raises(ExpressionError, match="allowed variables"):
        compile_expression("sin(pi*y)", ("x",))


def test_malformed_expressions():
    # the grammar's own errors, then Python syntax outside the grammar
    for bad in ("", "2 +", "sin 3", "2 ** 3", "(1", "1 2",
                "1 # 2", "x_1", "_", "0x1", "0X1", "0b1", "0o7", "00x1", "1j", "1_0",
                "[1]", "x[0]", "1, 2", "x = 1", "x < 1", "5 % 2", "5 // 2", "x @ x", "~1",
                "lambda: 1", "lambda x: x", "1 if x else 2", "1if x else 2", "2or x",
                "True", "None", "...", "'a'", '"a"', "x.real", "1 .real", "not x",
                "sin(x, x)", "sin()", "sin(x=1)", "sin(*x)", "sin", "sin(x)(x)", "x(1)",
                "ｐｉ", "é", "x\\\n+1", "1\x00", "(" * 300 + "1" + ")" * 300,
                "-" * 5000 + "1"):
        with pytest.raises(ExpressionError):
            compile_expression(bad, ("x",))


def test_errors_quote_the_users_text():
    # the text is rewritten for Python's parser (^ to **, 07 to 07.), but an
    # error quotes what the user wrote
    for text, name in (("2^07 + τ*q", "'q'"), ("τx^2", "'τx'")):
        with pytest.raises(ExpressionError, match="unknown name") as caught:
            compile_expression(text, ("tau",))
        assert f"{name} in expression {text!r}" in str(caught.value)
    for text in ("2^07 +", "2^ ^3", "1 2^3", "0x1^2", "2^07 # c"):
        with pytest.raises(ExpressionError) as caught:
            compile_expression(text, ("x",))
        assert repr(text) in str(caught.value) and "**" not in str(caught.value)


def test_integer_literals_read_as_the_grammar_reads_them():
    assert compile_expression("07")() == 7.0  # a leading zero, which Python rejects
    assert compile_expression("2^010")() == 1024.0
    assert compile_expression("1" * 400)() == np.inf  # float("1" * 400), not OverflowError
    assert compile_expression("1" * 5000 + " - 1")() == np.inf  # beyond Python's int limit
    assert compile_expression("123456789012345678901")() == 123456789012345678901.0
    assert compile_expression("e+5")() == np.e + 5.0
    assert compile_expression("2e+5")() == 2e5


def test_unicode_spaces_separate_and_unicode_digits_are_rejected():
    # whitespace is Unicode whitespace, as the tokenizer's \s read it; digits
    # are ASCII only (that tokenizer's \d also took other scripts' digits)
    assert compile_expression("1\xa0+\u2003x\t*\n2", ("x",))(x=3.0) == 7.0
    with pytest.raises(ExpressionError):
        compile_expression("\u0663")


def test_missing_variable_at_call():
    e = compile_expression("x + 1", ("x",))
    with pytest.raises(ExpressionError):
        e()


# --- the grammar against Python evaluation ---------------------------------------

_CALLS = ("sin", "cos", "exp", "abs")
_ATOM, _UNARY, _POWER = 5, 3, 4
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _wrap(text, needed):
    return f"({text})" if needed else text


def _minimal(node):
    """(text, precedence) with only the parentheses the documented grammar
    needs: + - below * / below unary minus below ^, which binds right and
    takes an atom as its base."""
    kind = node[0]
    if kind == "num":
        return repr(node[1]), _ATOM
    if kind in ("x", "pi", "e"):
        return kind, _ATOM
    if kind in _CALLS:
        return f"{kind}({_minimal(node[1])[0]})", _ATOM
    if kind == "neg":
        text, prec = _minimal(node[1])
        return "-" + _wrap(text, prec < _UNARY), _UNARY
    (left, left_prec), (right, right_prec) = _minimal(node[1]), _minimal(node[2])
    if kind == "^":
        return f"{_wrap(left, left_prec < _ATOM)}^{_wrap(right, right_prec < _UNARY)}", _POWER
    prec = _PRECEDENCE[kind]
    return f"{_wrap(left, left_prec < prec)} {kind} {_wrap(right, right_prec <= prec)}", prec


def _python(node):
    """Fully parenthesized Python source of the same tree."""
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind in ("x", "pi", "e"):
        return kind
    if kind in _CALLS:
        return f"np.{kind}({_python(node[1])})"
    if kind == "neg":
        return f"(-{_python(node[1])})"
    op = "**" if kind == "^" else kind
    return f"({_python(node[1])} {op} {_python(node[2])})"


def _outcome(evaluate):
    """The value as an array, or the type of the exception it raised: on
    constant subtrees both sides do Python float arithmetic, which raises."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            return np.asarray(evaluate())
        except ArithmeticError as error:
            return type(error)


def _same_bits(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    nan = np.isnan(got)
    return np.array_equal(nan, np.isnan(want)) and got[~nan].tobytes() == want[~nan].tobytes()


def test_grammar_equals_python_evaluation_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.one_of(
        st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False).map(lambda v: ("num", v)),
        st.sampled_from([("x",), ("pi",), ("e",)]),
    )
    trees = st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(sorted(_PRECEDENCE) + ["^"]), kids, kids),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.sampled_from(_CALLS), kids),
    ), max_leaves=12)
    x = np.linspace(-2.0, 2.0, 41)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(trees)
    def check(tree):
        text = _minimal(tree)[0]
        got = _outcome(lambda: compile_expression(text, ("x",))(x=x))
        want = _outcome(lambda: eval(_python(tree), {"np": np, "x": x, "pi": np.pi, "e": np.e}))
        assert _same_bits(got, want), (text, _python(tree))

    check()


def test_minimal_rendering_follows_the_documented_precedence():
    # the renderer the property test trusts: right-associative ^, unary minus
    num = lambda v: ("num", v)  # noqa: E731
    assert _minimal(("^", num(2.0), ("^", num(3.0), num(2.0))))[0] == "2.0^3.0^2.0"
    assert _minimal(("^", ("^", num(2.0), num(3.0)), num(2.0)))[0] == "(2.0^3.0)^2.0"
    assert _minimal(("neg", ("^", num(2.0), num(2.0))))[0] == "-2.0^2.0"
    assert _minimal(("^", ("neg", num(2.0)), num(2.0)))[0] == "(-2.0)^2.0"
    assert _minimal(("-", ("x",), ("-", ("x",), num(1.0))))[0] == "x - (x - 1.0)"
    assert _minimal(("*", ("+", ("x",), num(1.0)), ("x",)))[0] == "(x + 1.0) * x"


# --- Python's parser against the hand-written one it replaced ------------------

_GRAMMAR_TOKENS = ("0", "1", "2", "7", "10", "0.5", ".5", "1.", "1e3", "2.5e-3", "1E+2", "e", "E",
                   ".", "+", "-", "*", "/", "^", "(", ")", "x", "tau", "τ", "pi", "sin", "cos",
                   "exp", "abs", " ", "y")
_PYTHON_TOKENS = ("**", "#", "_", "0x", "0b", "0o", "1j", "1_0", "07", "00x1", "[", "]", ",",
                  "=", "<", "%", "//", "@", "~", "lambda", "if", "True", "None", "'a'", "ｐｉ",
                  "é", "not", ":", "\\", "\t", "\n", "\xa0", "1" * 400)


def _evaluation(expression, env):
    """The value as an array, or the type of the exception evaluation raised."""
    try:
        return np.asarray(expression(**env))
    except Exception as error:  # noqa: BLE001 - the type is the outcome compared
        return type(error)


def test_parser_matches_the_reference_parser_on_random_text():
    rng = random.Random(20241115)
    variables = ("x", "tau")
    env = {"x": np.linspace(-2.0, 2.0, 5), "tau": np.linspace(0.5, 1.0, 5)}
    accepted = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(200_000):
            text = "".join(
                rng.choice(_GRAMMAR_TOKENS) if rng.random() < 0.85 else rng.choice(_PYTHON_TOKENS)
                for _ in range(rng.randint(1, 8))
            )
            try:
                want = reference_compile(text, variables)
            except ExpressionError:
                want = None
            try:
                got = compile_expression(text, variables)
            except ExpressionError:
                got = None
            assert (got is None) == (want is None), (text, "accepted by one parser only")
            if got is not None:
                accepted += 1
                assert _same_bits(_evaluation(got, env), _evaluation(want, env)), text
    assert accepted > 10_000  # the grammar's side of the sample is exercised
    assert not caught, [str(w.message) for w in caught[:5]]  # ast.parse never warned
