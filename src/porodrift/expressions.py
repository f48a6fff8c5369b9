"""Closed-form input data: arithmetic expressions compiled to point functions.

Initial profiles and surface charge densities enter run configs as strings
over a deliberately small grammar: decimal numbers, ``+ - * /``, the power
``^`` (right-associative and binding tighter than a unary sign on its left,
so ``-2^2`` is -4 and ``2^-1`` is 0.5), unary ``+ -``, parentheses, the
functions sin, cos and exp of one argument, the constants pi and e, and the
variables ``x1..xn`` (plus ``y1..yn`` where the caller allows them).

``^`` is rewritten to ``**`` and the text is parsed with ``ast`` in eval
mode; one walk checks the tree against a node whitelist and lowers it to
closures over numpy, so nothing is passed to ``eval``, ``exec`` or
``compile``.  A literal ``**``, a non-decimal literal (``0x10``, ``1_0``,
``1j``, ``True``) and a tree nested deeper than ``MAX_DEPTH`` are rejected.
Literals and constants are ``np.float64``, so constant arithmetic follows
numpy: ``1/0`` is inf and ``(-1)^0.5`` is nan, never a Python exception.

The compiled expression is the callable the model calls: one (k, n) array
of points per variable letter (``f(x)``, or ``f(x, y)`` for interface
charges), returning shape (k,).
"""

from __future__ import annotations

import ast
import operator

import numpy as np

MAX_DEPTH = 200  # the nesting depth Python's parser allows for parentheses

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.float64(np.pi), "e": np.float64(np.e)}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_DECIMAL = set("0123456789.eE+-")


class ExpressionError(ValueError):
    """Raised for syntax errors or references to names outside the grammar."""


def _lower(node, source, variables, depth):
    """A closure ``f(points) -> value`` for a whitelisted ``node``; raises ExpressionError."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels")

    def lower(child):
        return _lower(child, source, variables, depth + 1)

    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op, left, right = _BINARY[type(node.op)], lower(node.left), lower(node.right)
        return lambda points: op(left(points), right(points))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op, operand = _UNARY[type(node.op)], lower(node.operand)
        return lambda points: op(operand(points))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        func, arg = _FUNCTIONS[node.func.id], lower(node.args[0])
        return lambda points: func(arg(points))
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        value = _CONSTANTS[node.id]
        return lambda points: value
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise ExpressionError(f"unknown name {node.id!r}; "
                                  f"allowed variables: {', '.join(variables)}")
        arg, axis = variables[node.id]
        return lambda points: points[arg][:, axis]
    segment = ast.get_source_segment(source, node)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float) \
            and set(segment) <= _DECIMAL:
        value = np.float64(segment)
        return lambda points: value
    raise ExpressionError(f"unsupported syntax {segment!r}")


def compile_expression(text, dim, letters="x"):
    """Compile ``text`` into ``f(*points)``, one (k, dim) array per variable letter.

    The variables are ``<letter><axis>`` for each of ``letters`` and axes
    1..dim.  Raises ExpressionError for anything outside the grammar.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    if not text.isascii():
        raise ExpressionError(f"non-ASCII character in expression {text!r}")
    if "**" in text:
        raise ExpressionError(f"'**' in expression {text!r}; write powers with '^'")
    # eval mode rejects leading indentation and line breaks; any whitespace separates tokens
    source = " ".join(text.split()).replace("^", "**")
    variables = {f"{letter}{axis + 1}": (arg, axis)
                 for arg, letter in enumerate(letters) for axis in range(dim)}
    try:
        body = _lower(ast.parse(source, mode="eval").body, source, variables, 0)
    except (SyntaxError, RecursionError) as exc:
        detail = getattr(exc, "msg", "nested too deeply")
        raise ExpressionError(f"invalid expression {text!r}: {detail}") from None
    except ExpressionError as exc:
        raise ExpressionError(f"{exc} in expression {text!r}") from None

    def evaluate(*points):
        with np.errstate(all="ignore"):  # non-finite data is the caller's to reject
            value = body(points)
        if np.shape(value) != (len(points[0]),):  # constant: broadcast to the points
            value = np.full(len(points[0]), value)
        return value

    return evaluate
