"""Arithmetic expressions for config files.

Grammar: decimal numbers, the variables t and x, the constant pi,
parentheses, unary + and -, binary + - * / and right-associative ^ (alias
**), and the one-argument functions sin, cos, exp.  `ast.parse` reads the
text after ^ -> ** (same precedence and associativity); nodes outside the
grammar are refused and the checked tree is compiled, to be evaluated with
only t, x, pi, sin, cos and exp in scope.  A failing or complex value raises
`ExpressionError`.  Expressions are picklable and vectorize over x.
"""

from __future__ import annotations

import ast
import re

import numpy as np

from .errors import ConfigurationError


class ExpressionError(ConfigurationError):
    """Malformed expression, or one whose evaluation fails."""


_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")

_SCOPE = {"__builtins__": {}, "pi": np.pi, "sin": np.sin, "cos": np.cos, "exp": np.exp}
_FUNCTIONS = ("sin", "cos", "exp")
_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check(node, source: str, text: str) -> None:
    """Refuse node unless it is in the grammar, and make its numbers floats."""
    if isinstance(node, ast.Constant):
        literal = ast.get_source_segment(source, node)
        if not _NUMBER.fullmatch(literal or ""):
            raise ExpressionError(f"{literal!r} is not a decimal number in {text!r}")
        node.value = float(node.value)  # so 9^9^9 overflows, never a big-integer power
    elif isinstance(node, ast.Name) and node.id in ("t", "x", "pi"):
        pass
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check(node.operand, source, text)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY):
        _check(node.left, source, text)
        _check(node.right, source, text)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        _check(node.args[0], source, text)
    else:
        raise ExpressionError(
            f"{ast.get_source_segment(source, node)!r} is outside the expression grammar "
            f"(numbers, t, x, pi, + - * / ^, sin, cos, exp) in {text!r}")


class Expression:
    """A compiled expression in the variables t and x."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ExpressionError(f"an expression must be a string, got {text!r}")
        self.text = text
        source = text.replace("^", "**").strip()
        try:
            tree = ast.parse(source, mode="eval")
            _check(tree.body, source, text)
        except (SyntaxError, ValueError, OverflowError) as exc:  # or a literal beyond floats
            raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
        self.code = compile(tree, "<expression>", "eval")
        self.names_t = "t" in self.code.co_names  # False: the value does not depend on t

    def __call__(self, t, x):
        with np.errstate(divide="raise", invalid="raise"):
            try:
                out = eval(self.code, dict(_SCOPE, t=t, x=x))
            except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
                raise ExpressionError(f"expression {self.text!r} failed: {exc}") from exc
        if np.iscomplexobj(out):  # a negative number to a fractional power
            raise ExpressionError(f"expression {self.text!r} has a complex value")
        return np.broadcast_to(out, np.shape(x)).astype(float) if np.shape(x) else out

    def __repr__(self):
        return f"Expression({self.text!r})"

    # pickling ships the source; the code is compiled again on load
    def __reduce__(self):
        return (Expression, (self.text,))
