"""Expression parser used by the config-file interface."""

import operator
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac1d import Expression, ExpressionError


class TestParsing:
    @pytest.mark.parametrize("text,value", [
        ("1+2*3", 7.0),
        ("(1+2)*3", 9.0),
        ("2^3^2", 512.0),          # right-associative power
        ("2**3", 8.0),             # ** accepted as alias
        ("-2^2", -4.0),            # unary minus binds looser than power
        ("2^-2", 0.25),
        ("6/4/2", 0.75),           # left-associative division
        ("1e2 + 5E-1", 100.5),
        (".5*4", 2.0),
        ("pi", np.pi),
        ("+3", 3.0),
    ])
    def test_constant_expressions(self, text, value):
        assert Expression(text)(0.0, 0.0) == pytest.approx(value, rel=1e-15)

    def test_variables_vectorize_over_x(self):
        e = Expression("sin(2*x) + t*cos(x)")
        x = np.linspace(0, 2 * np.pi, 33)
        np.testing.assert_allclose(e(0.5, x), np.sin(2 * x) + 0.5 * np.cos(x), atol=1e-15)

    def test_benchmark_potential_expression(self):
        e = Expression("1/(1+sin(x)^2)")
        x = np.linspace(0, 2 * np.pi, 17)
        np.testing.assert_allclose(e(0.0, x), 1 / (1 + np.sin(x) ** 2), atol=1e-15)

    def test_nested_functions(self):
        e = Expression("exp(-(x-1)^2/2)*cos(sin(x))")
        x = np.array([0.0, 1.0, 2.5])
        np.testing.assert_allclose(e(0.0, x), np.exp(-(x - 1) ** 2 / 2) * np.cos(np.sin(x)),
                                   atol=1e-15)

    @pytest.mark.parametrize("bad", [
        "1 +", "sin x", "foo(3)", "y + 1", "(1+2", "1..2", "2 3", "sin(1,2)", "",
        # valid Python outside the grammar
        "0x10", "1_0", "1j", "True", "x if t else 1", "x.real", "[x]", "x<1",
        "lambda: 1", '__import__("os")', "sin(x=1)", "x // 2", "x % 2", "x @ t",
        "~x", "not x", "sin(*x)", "'1'", "(1, 2)", "01",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ExpressionError):
            Expression(bad)

    def test_division_by_zero_at_eval(self):
        e = Expression("1/(x-1)")
        with pytest.raises(ExpressionError):
            e(0.0, np.array([0.0, 1.0]))

    def test_pickle_roundtrip(self):
        e = Expression("cos(x)+sin(2*x)")
        e2 = pickle.loads(pickle.dumps(e))
        x = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(e(0.0, x), e2(0.0, x))


# -- generated expressions -----------------------------------------------------
# A tree is ("num", v), ("t",), ("x",), ("pi",), ("neg", a), (fn, a) for
# fn in sin/cos/exp, or (op, a, b) for op in + - * / ^.  It is rendered with
# the parentheses its precedence needs plus random extra ones, ^ or **, and
# random unary +, then parsed and compared with a direct numpy evaluation.

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow}
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
# precedence of the rendered form; an operand is parenthesized below `need`
ATOM, POWER, UNARY, PRODUCT, SUM = 5, 4, 3, 2, 1
BINARY_PREC = {"+": SUM, "-": SUM, "*": PRODUCT, "/": PRODUCT, "^": POWER}

leaves = st.one_of(
    st.floats(0.0, 100.0).map(lambda v: ("num", v)),
    st.integers(0, 1000).map(lambda v: ("num", float(v))),
    st.sampled_from([("t",), ("x",), ("pi",)]),
)
trees = st.recursive(leaves, lambda sub: st.one_of(
    st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
    st.tuples(st.sampled_from(["neg", "sin", "cos", "exp"]), sub),
), max_leaves=10)


def direct(tree, t, x):
    tag = tree[0]
    if tag == "num":
        return tree[1]
    if tag in ("t", "x", "pi"):
        return {"t": t, "x": x, "pi": np.pi}[tag]
    if tag == "neg":
        return -direct(tree[1], t, x)
    if tag in FUNCTIONS:
        return FUNCTIONS[tag](direct(tree[1], t, x))
    return BINARY[tag](direct(tree[1], t, x), direct(tree[2], t, x))


def render(tree, rnd):
    """(text, precedence) of one random spelling of tree."""
    tag = tree[0]
    if tag == "num":
        v = tree[1]
        text, prec = str(int(v)) if v.is_integer() and rnd.random() < 0.5 else repr(v), ATOM
        if text.startswith("0.") and rnd.random() < 0.5:
            text = text[1:]  # ".5"
    elif tag in ("t", "x", "pi"):
        text, prec = tag, ATOM
    elif tag == "neg":
        text, prec = "-" + operand(tree[1], UNARY, rnd), UNARY
    elif tag in FUNCTIONS:
        text, prec = f"{tag}({operand(tree[1], SUM, rnd)})", ATOM
    else:
        p = BINARY_PREC[tag]
        left_need, right_need = (ATOM, UNARY) if tag == "^" else (p, p + 1)
        op = rnd.choice(["^", "**"]) if tag == "^" else tag
        gap = rnd.choice(["", " "])
        text = (operand(tree[1], left_need, rnd) + gap + op + gap
                + operand(tree[2], right_need, rnd))
        prec = p
    if rnd.random() < 0.1:
        text, prec = "+" + (text if prec >= UNARY else f"({text})"), UNARY
    return text, prec


def operand(tree, need, rnd):
    text, prec = render(tree, rnd)
    return f"({text})" if prec < need or rnd.random() < 0.15 else text


def outcome(fn):
    """("value", array) or ("raises", exception type) of fn()."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return "value", fn()
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            return "raises", type(exc)


@settings(max_examples=300, deadline=None)
@given(tree=trees, rnd=st.randoms(use_true_random=False), t=st.floats(-3.0, 3.0))
def test_generated_expressions_match_numpy(tree, rnd, t):
    text, _ = render(tree, rnd)
    x = np.linspace(-3.0, 3.0, 7)

    def expected():
        with np.errstate(divide="raise", invalid="raise"):
            return np.broadcast_to(direct(tree, t, x), x.shape).astype(float)

    kind, want = outcome(expected)
    got_kind, got = outcome(lambda: Expression(text)(t, x))
    if kind == "raises" and want is FloatingPointError:
        want = ExpressionError
    assert got_kind == kind, text
    if kind == "value":
        assert np.array_equal(got, want, equal_nan=True), text
    else:
        assert got is want, text
