import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porodrift.expressions import ExpressionError, compile_expression


def _value(text):
    """The value of a constant expression, evaluated at one point."""
    return compile_expression(text, 1)(np.zeros((1, 1)))[0]


def test_arithmetic_and_precedence():
    assert _value("1 + 2*3 - 4/2") == pytest.approx(5.0)


def test_power_right_associative():
    assert _value("2^3^2") == pytest.approx(512.0)


def test_unary_minus_and_parentheses():
    assert _value("-(1 + 2) * -2") == pytest.approx(6.0)
    assert _value("-2^2") == -4.0 and _value("2^-1") == 0.5


def test_functions_and_constants():
    assert _value("sin(pi/2) + cos(0) + exp(0)") == pytest.approx(3.0)


def test_vectorized_variables():
    expr = compile_expression("x1^2 + 0.5*x2", 2)
    points = np.column_stack([[0.0, 1.0, 2.0], [2.0, 4.0, 6.0]])
    np.testing.assert_allclose(expr(points), [1.0, 3.0, 7.0])


def test_interface_variables_take_a_second_point_array():
    expr = compile_expression("x1 - 10*y2", 2, "xy")
    x = np.array([[1.0, 0.0], [2.0, 0.0]])
    y = np.array([[0.0, 0.5], [0.0, 0.25]])
    np.testing.assert_array_equal(expr(x, y), [-4.0, -0.5])


def test_constant_broadcasts_to_input_shape():
    out = compile_expression("0.25", 1)(np.zeros((7, 1)))
    assert out.shape == (7,)
    np.testing.assert_allclose(out, 0.25)


def test_scientific_notation():
    assert _value("1e-3 + 2.5E2") == pytest.approx(250.001)


@pytest.mark.parametrize("text,expected", [
    ("1/0", np.inf), ("0^-1", np.inf), ("(-1)^0.5", np.nan), ("(0-1)^0.5 + x1", np.nan),
    ("exp(1000)", np.inf),
])
def test_constant_arithmetic_follows_numpy(text, expected):
    np.testing.assert_array_equal(_value(text), expected)


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError, match="unknown name 'q'"):
        compile_expression("x1 + q", 1)


def test_disallowed_variable_rejected():
    with pytest.raises(ExpressionError, match="unknown name"):
        compile_expression("y1", 2)


@pytest.mark.parametrize("bad", [
    "", "1 +", "sin 2", "(1", "1 2", "$x", "cos()",
    pytest.param("-" * 2000 + "1", id="deep-unary"),
    pytest.param("(" * 300 + "x1" + ")" * 300, id="deep-parentheses"),
    "x1**2", "0x10", "1_0", "1j", "True",
    "x1 % 2", "sin(x1, x2)", "sin(x=1)", "x1.real", "__import__('os')",
])
def test_syntax_errors(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, 1)


# -- property: the compiled grammar equals a direct numpy evaluation -------------

_POINTS = np.array([[0.1, 0.7], [0.35, -1.2], [2.5, 0.0], [-0.6, 3.0], [1.0, 1e-3]])
_NAMED = {"pi": np.float64(np.pi), "e": np.float64(np.e),
          "x1": _POINTS[:, 0], "x2": _POINTS[:, 1]}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pos": 3, "^": 4}
_ATOM = 5

_leaves = st.one_of(
    st.integers(0, 99).map(str),
    st.floats(0, 1e3, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(sorted(_NAMED)),
).map(lambda text: ("leaf", text))
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.tuples(st.sampled_from(sorted(_BINARY)), kids, kids),
    st.tuples(st.sampled_from(["neg", "pos", "sin", "cos", "exp"]), kids),
), max_leaves=12)


def _render(tree, minimal):
    """``(text, precedence)``; with ``minimal`` only the parentheses the grammar needs."""
    kind = tree[0]

    def wrap(child, needed):
        text, precedence = _render(child, minimal)
        return text if minimal and precedence >= needed else f"({text})"

    if kind == "leaf":
        return tree[1], _ATOM
    if kind in ("sin", "cos", "exp"):
        return f"{kind}({_render(tree[1], minimal)[0]})", _ATOM
    if kind in ("neg", "pos"):
        return ("-" if kind == "neg" else "+") + wrap(tree[1], _PRECEDENCE[kind]), 3
    precedence = _PRECEDENCE[kind]
    # ^ takes an atom base and a signed exponent; + - * / are left-associative
    left, right = (_ATOM, 3) if kind == "^" else (precedence, precedence + 1)
    return f"{wrap(tree[1], left)} {kind} {wrap(tree[2], right)}", precedence


def _direct(tree):
    kind = tree[0]
    if kind == "leaf":
        return _NAMED[tree[1]] if tree[1] in _NAMED else np.float64(float(tree[1]))
    if kind in _BINARY:
        return _BINARY[kind](_direct(tree[1]), _direct(tree[2]))
    if kind == "neg":
        return -_direct(tree[1])
    if kind == "pos":
        return +_direct(tree[1])
    return getattr(np, kind)(_direct(tree[1]))


@settings(max_examples=300, deadline=None, database=None)
@given(_trees)
def test_compiled_matches_direct_evaluation(tree):
    with np.errstate(all="ignore"):
        expected = np.broadcast_to(_direct(tree), (len(_POINTS),))
        for minimal in (False, True):
            text = _render(tree, minimal)[0]
            got = compile_expression(text, 2)(_POINTS)
            assert got.tobytes() == expected.tobytes(), text
