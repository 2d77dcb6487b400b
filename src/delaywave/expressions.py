"""Tiny arithmetic expression grammar for config files.

Supported: + - * / ^ (power, right associative), unary minus and plus,
parentheses, sin cos exp abs, constants pi and e, and caller-defined
variables. Python's parser reads the text (^ as **), one walk keeps only
those nodes, and nothing reaches ``eval``. Evaluation is numpy-vectorized.
An ``Expression`` knows the variables its tree reads (``names``), so a
caller can tell that a value does not depend on one, such as the history
f0 that does not read s.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# Any other character; Python's power; a letter after a number, not of an
# exponent (0x1, 1j, and 2if, which makes Python warn).
_REJECT = re.compile(r"[^0-9A-Za-zτ.+\-*/^() ]|\*\*|[\d.](?![eE][+-]?\d)[A-Za-zτ]")
# An integer literal, made a float literal: Python then reads 07 as 7.0 and a
# long one as inf, as the grammar does; it rejects 07 and ints of 4301 digits.
_INTEGER = re.compile(r"(?<![\w.])(?<![\d.][eE][+-])\d+(?![\w.])")


def _tree(node, text, variables):
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _BINARY:
        return (_BINARY[type(node.op)], _tree(node.left, text, variables),
                _tree(node.right, text, variables))
    if kind is ast.Constant and type(node.value) is float:
        return ("const", node.value)
    if kind is ast.Name and node.id not in _FUNCTIONS:
        name = "tau" if node.id == "τ" else node.id
        if name in _CONSTANTS:
            return ("const", _CONSTANTS[name])
        if name not in variables:
            raise ExpressionError(f"unknown name {node.id!r} in expression {text!r} (allowed "
                                  f"variables: {', '.join(sorted(variables)) or 'none'})")
        return ("var", name)
    if kind is ast.UnaryOp and type(node.op) in (ast.USub, ast.UAdd):
        operand = _tree(node.operand, text, variables)
        return ("neg", operand) if type(node.op) is ast.USub else operand
    if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _FUNCTIONS
            and len(node.args) == 1 and not node.keywords):
        return ("call", node.func.id, _tree(node.args[0], text, variables))
    raise ExpressionError(f"malformed expression {text!r}")


def _evaluate(node, env):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_evaluate(node[1], env)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        return a**b
    raise ExpressionError(f"unhandled node {op!r}")


def _names(node):
    if node[0] == "var":
        return {node[1]}
    return set().union(*(_names(child) for child in node[1:] if type(child) is tuple))


@dataclass(frozen=True)
class Expression:
    """Compiled expression; call with keyword arguments for its variables."""

    source: str
    variables: tuple
    _ast: tuple

    @property
    def names(self) -> frozenset:
        """The variables the tree reads; constants are not names, and τ reads tau."""
        return frozenset(_names(self._ast))

    def __call__(self, **env):
        missing = set(self.variables) - set(env)
        if missing:
            raise ExpressionError(
                f"expression {self.source!r} needs variables {sorted(missing)}"
            )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _evaluate(self._ast, env)


def compile_expression(text, variables=()) -> Expression:
    """Parse ``text`` against an allowed variable set; 'tau' aliases 'τ'."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError(f"empty expression {text!r}")
    source = " ".join(text.split())
    if rejected := _REJECT.search(source):
        raise ExpressionError(f"unexpected {rejected[0]!r} in expression {text!r}")
    source = _INTEGER.sub(lambda integer: integer[0] + ".", source).replace("^", "**")
    variables = tuple(variables)
    try:
        body = ast.parse(source, mode="eval").body
        return Expression(text, variables, _tree(body, text, variables))
    except (SyntaxError, RecursionError):  # RecursionError: nested too deeply
        raise ExpressionError(f"malformed expression {text!r}") from None
