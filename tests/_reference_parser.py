"""The hand-written tokenizer and recursive-descent parser that read config
expressions before ``ast.parse`` did, kept verbatim as the reference the
parity test compares ``compile_expression`` against. It builds the same
tuple tree, evaluated by the same ``_evaluate``.
"""

import re

from delaywave.errors import ExpressionError
from delaywave.expressions import _CONSTANTS, _FUNCTIONS, Expression


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-zτ_][A-Za-z0-9τ_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unexpected character {rest[0]!r} in expression {text!r}")
        if match.group("num") is not None:
            out.append(("num", float(match.group("num"))))
        elif match.group("name") is not None:
            out.append(("name", match.group("name")))
        else:
            out.append(("op", match.group("op")))
        pos = match.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, text, variables):
        self.tokens = tokens
        self.text = text
        self.variables = variables
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in expression {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input in expression {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return ("^", base, self.unary())
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("const", val)
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            if val in _CONSTANTS:
                return ("const", _CONSTANTS[val])
            if val in self.variables:
                return ("var", val)
            raise ExpressionError(
                f"unknown name {val!r} in expression {self.text!r} "
                f"(allowed variables: {', '.join(sorted(self.variables)) or 'none'})"
            )
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"malformed expression {self.text!r}")


def compile_expression(text, variables=()) -> Expression:
    """Parse ``text`` against an allowed variable set; 'tau' aliases 'τ'."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError(f"empty expression {text!r}")
    variables = tuple(variables)
    tokens = _tokenize(text)
    tokens = [("name", "tau") if t == ("name", "τ") else t for t in tokens]
    ast = _Parser(tokens, text, set(variables)).parse()
    return Expression(text, variables, ast)
