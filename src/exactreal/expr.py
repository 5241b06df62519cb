"""Expression ASTs, parsing and evaluation for the command line.

Grammar: usual precedence (* / over + -), parentheses, unary minus,
decimal literals, the variable ``x``, the constant ``pi`` and the
functions max, abs, sqrt, csqrt.  Decimal literals are kept as exact
rationals and realized by ``CReal.from_fraction``, one integer floor
division per precision, so "0.1" stays exactly one tenth.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .algorithms import (
    Complex,
    csqrt,
    real_abs,
    real_max,
    real_pi,
    real_sqrt,
)
from .creal import CReal
from .errors import ParseError


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int = field(default=0, compare=False)


Expr = Union[Num, Var, Const, BinOp, Neg, Call]

_FUNCTIONS = {"max": 2, "abs": 1, "sqrt": 1, "csqrt": 2}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_CONSTANTS = {"pi"}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip():
                raise ParseError(f"unexpected character {src[pos]!r}", pos)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.next()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def expr(self, level: int = 1) -> Expr:
        """Precedence climbing: operators binding at ``level`` or tighter
        associate to the left."""
        left = self.atom()
        while True:
            kind, text, pos = self.peek()
            prec = _PRECEDENCE.get(text, 0) if kind == "op" else 0
            if prec < level:
                return left
            self.next()
            left = BinOp(text, left, self.expr(prec + 1), pos)

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "op" and text == "-":
            return Neg(self.atom())
        if kind == "num":
            try:
                return Num(Fraction(text))
            except ValueError:
                # past the interpreter's 4,300-digit limit on str-to-int
                raise ParseError("numeric literal has too many digits", pos) from None
        if kind == "ident":
            if text in _CONSTANTS:
                return Const(text)
            if text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, t, p = self.peek()
                    if k == "op" and t == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != _FUNCTIONS[text]:
                    raise ParseError(
                        f"{text} takes {_FUNCTIONS[text]} argument(s)", pos
                    )
                return Call(text, tuple(args), pos)
            if text == "x":
                return Var("x", pos)
            raise ParseError(f"unknown name {text!r}", pos)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse(src: str) -> Expr:
    return _Parser(src).parse()


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def evaluate(e: Expr, env=None):
    """Evaluate to a CReal (or Complex for csqrt results)."""
    env = env or {}

    def go(node):
        if isinstance(node, Num):
            return CReal.from_fraction(node.value)
        if isinstance(node, Var):
            if node.name not in env:
                raise ParseError(f"unbound variable {node.name!r}", node.pos)
            return env[node.name]
        if isinstance(node, Const):
            return real_pi()
        if isinstance(node, Neg):
            return -go(node.operand)
        if isinstance(node, BinOp):
            left = go(node.left)
            right = go(node.right)
            if isinstance(left, Complex) or isinstance(right, Complex):
                if node.op == "/":
                    raise ParseError("complex division is not supported", node.pos)
                left = left if isinstance(left, Complex) else Complex(left, 0)
                right = right if isinstance(right, Complex) else Complex(right, 0)
            return _ARITHMETIC[node.op](left, right)
        if isinstance(node, Call):
            args = [go(a) for a in node.args]
            if any(isinstance(a, Complex) for a in args):
                raise ParseError(
                    f"{node.name} does not accept complex arguments", node.pos
                )
            if node.name == "max":
                return real_max(args[0], args[1])
            if node.name == "abs":
                return real_abs(args[0])
            if node.name == "sqrt":
                return real_sqrt(args[0])
            if node.name == "csqrt":
                return csqrt(Complex(args[0], args[1]))
        raise TypeError(f"not an expression: {node!r}")

    return go(e)
