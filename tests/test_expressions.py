import numpy as np
import pytest

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


def test_unknown_name_lists_allowed_variables():
    with pytest.raises(ExpressionError, match="allowed variables"):
        compile_expression("sin(pi*y)", ("x",))


def test_malformed_expressions():
    for bad in ("", "2 +", "sin 3", "2 ** 3", "(1", "1 2"):
        with pytest.raises(ExpressionError):
            compile_expression(bad, ("x",))


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
