"""Arithmetic expressions for config files.

Grammar: decimal numbers, the variables t and x, the constant pi,
parentheses, unary + and -, binary + - * / and right-associative ^ (alias
**), and the one-argument functions sin, cos, exp.  `ast.parse` reads the
text after ^ -> ** (same precedence and associativity); nodes outside the
grammar are refused.  Expressions are picklable and vectorize over x.
"""

from __future__ import annotations

import ast
import re

import numpy as np

from .errors import ConfigurationError


class ExpressionError(ConfigurationError):
    """Malformed expression, or one whose evaluation fails."""


_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _parse(text: str):
    source = text.replace("^", "**").strip()
    try:
        body = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    names = set()

    def walk(node):
        if isinstance(node, ast.Constant):
            literal = ast.get_source_segment(source, node)
            if not _NUMBER.fullmatch(literal or ""):
                raise ExpressionError(f"{literal!r} is not a decimal number in {text!r}")
            return ("num", float(node.value))
        if isinstance(node, ast.Name):
            if node.id in ("t", "x"):
                names.add(node.id)
                return ("var", node.id)
            if node.id in _CONSTANTS:
                return ("num", _CONSTANTS[node.id])
            raise ExpressionError(
                f"unknown name {node.id!r} (variables: t, x; functions: sin, cos, exp)")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = walk(node.operand)
            return ("neg", operand) if isinstance(node.op, ast.USub) else operand
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], walk(node.left), walk(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
            return ("call", node.func.id, walk(node.args[0]))
        raise ExpressionError(
            f"{ast.get_source_segment(source, node)!r} is outside the expression "
            f"grammar in {text!r}")

    return walk(body), names  # the tree and the variables it names


def _evaluate(node, t, x):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return t if node[1] == "t" else x
    if tag == "neg":
        return -_evaluate(node[1], t, x)
    if tag == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], t, x))
    a = _evaluate(node[1], t, x)
    b = _evaluate(node[2], t, x)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    if tag == "/":
        return a / b
    if tag == "^":
        return a ** b
    raise ExpressionError(f"corrupt expression node {tag!r}")


class Expression:
    """A compiled expression in the variables t and x."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ExpressionError(f"an expression must be a string, got {text!r}")
        self.text = text
        self.ast, names = _parse(text)
        self.names_t = "t" in names  # False: the value does not depend on t

    def __call__(self, t, x):
        with np.errstate(divide="raise", invalid="raise"):
            try:
                out = _evaluate(self.ast, t, x)
            except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
                raise ExpressionError(f"expression {self.text!r} failed: {exc}") from exc
        return np.broadcast_to(out, np.shape(x)).astype(float) if np.shape(x) else out

    def __repr__(self):
        return f"Expression({self.text!r})"

    # pickling ships the source; the tree is rebuilt on load
    def __reduce__(self):
        return (Expression, (self.text,))
