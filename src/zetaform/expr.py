"""Tiny recursive-descent parser for numerator polynomials.

Grammar: integers, rationals written with ``/``, variables ``x1`` ... ``x9``,
``+ - * / ^`` and parentheses.  ``^`` takes a nonnegative integer literal;
``/`` is only allowed by a nonzero constant.  Errors carry the 0-based column
of the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .qsym import Polynomial


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(\d+)|(x[0-9]+)|([()+\-*/^])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group(4):
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            index = int(m.group(2)[1:])
            if index < 1 or index > 9:
                raise ParseError("variables are x1 through x9", m.start(2))
            tokens.append(("var", index, m.start(2)))
        else:
            tokens.append((m.group(3), None, m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        value = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[0]!r}", tok[2])
        return value

    def expression(self) -> Polynomial:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.terms and set(rhs.terms) != {()}:
                    raise ParseError("division only by a rational constant", pos)
                divisor = rhs.terms.get((), Fraction(0))
                if not divisor:
                    raise ParseError("division by zero", pos)
                value = (Fraction(1) / divisor) * value
        return value

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.next()
            value = self.factor()
            return value if tok[0] == "+" else -value
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            return base ** tok[1]
        return base

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok[0] == "int":
            return Polynomial.constant(tok[1])
        if tok[0] == "var":
            return Polynomial.variable(tok[1])
        if tok[0] == "(":
            value = self.expression()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {tok[0]!r}", tok[2])


def parse_polynomial(text: str) -> Polynomial:
    """Parse an expression like ``x1^2 - x2`` or ``(x1 - 1/2)*x2`` exactly."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # nested past the interpreter's recursion limit
        raise ParseError("expression nested too deeply", parser.tokens[parser.i - 1][2]) from None
