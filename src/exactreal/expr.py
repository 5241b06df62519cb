"""Expressions as one shared DAG: parsing and evaluation for the command line.

Grammar: usual precedence (* / over + -), parentheses, unary minus,
decimal literals, the variable ``x``, the constant ``pi`` and the
functions max, abs, sqrt, csqrt.  Decimal literals are kept as exact
rationals and realized by ``CReal.from_fraction``, one integer floor
division per precision, so "0.1" stays exactly one tenth.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algorithms import Complex, csqrt, real_abs, real_max, real_pi, real_sqrt
from .creal import CReal
from .errors import ParseError


class Call:
    """An operation, the constant pi or the variable x on its argument
    nodes, each a ``Call`` or an exact ``Fraction`` literal.  Nodes
    compare by identity: the parser builds one node per distinct
    subtree, so a shared node's ``pos``, its column in the source, is
    that of its first occurrence."""

    __slots__ = ("name", "args", "pos")

    def __init__(self, name: str, args: tuple, pos: int = 0):
        self.name, self.args, self.pos = name, args, pos

    def __repr__(self):
        return f"Call(name={self.name!r}, args={self.args!r}, pos={self.pos!r})"


# name -> (arity, operation) of every Call, "-x" too: Call("neg", (Call("x", ()),)).
# Each operation is a lambda that looks its function up in this module's
# globals when it runs, so a wrapper bound to the name later (a profiler's)
# sees every call.  ``x`` is bound by ``evaluate``'s ``env``, not here.
_OPERATIONS = {
    "+": (2, lambda a, b: a + b),
    "-": (2, lambda a, b: a - b),
    "*": (2, lambda a, b: a * b),
    "/": (2, lambda a, b: a / b),
    "neg": (1, lambda a: -a),
    "max": (2, lambda a, b: real_max(a, b)),
    "abs": (1, lambda a: real_abs(a)),
    "sqrt": (1, lambda a: real_sqrt(a)),
    "csqrt": (2, lambda re, im: csqrt(Complex(re, im))),
    "pi": (0, lambda: real_pi()),
    "x": (0, None),
}
# the operations that take Complex operands; a real operand is promoted
_COMPLEX = {"+", "-", "*", "neg"}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

_DECIMAL = r"\d+(?:\.\d+)?"
_LITERAL = re.compile(rf"-?{_DECIMAL}")
_TOKEN = re.compile(
    rf"\s*(?:(?P<num>{_DECIMAL})|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/(),])|(?P<bad>\S))?"
)


def decimal(text: str, pos: int = 0) -> Fraction:
    """The exact value of a signed literal of the grammar, -?digits[.digits]."""
    if not _LITERAL.fullmatch(text):
        raise ParseError(f"not a decimal literal: {text!r}", pos)
    whole, _, frac = text.partition(".")
    try:
        return Fraction(int(whole + frac), 10 ** len(frac))
    except ValueError:
        # past the interpreter's 4,300-digit limit on str-to-int
        raise ParseError("numeric literal has too many digits", pos) from None


def _tokenize(src: str):
    tokens = []
    pos = 0
    while kind := (m := _TOKEN.match(src, pos)).lastgroup:
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        # one node per distinct subtree: a literal keyed by its value, a
        # call by its name and the ids of its arguments, which are shared
        # already and kept alive here
        self.nodes = {}

    def call(self, name: str, args: tuple, pos: int) -> Call:
        return self.nodes.setdefault((name, *map(id, args)), Call(name, args, pos))

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.next()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)

    def expr(self, level: int = 1) -> Fraction | Call:
        """Precedence climbing: operators binding at ``level`` or tighter
        associate to the left."""
        left = self.atom()
        while True:
            _, text, pos = self.tokens[self.i]
            prec = _PRECEDENCE.get(text, 0)
            if prec < level:
                return left
            self.i += 1
            left = self.call(text, (left, self.expr(prec + 1)), pos)

    def atom(self) -> Fraction | Call:
        kind, text, pos = self.next()
        if kind == "op" and text == "-":
            return self.call("neg", (self.atom(),), pos)
        if kind == "num":
            value = decimal(text, pos)
            # by its lowest terms: a Fraction's own hash takes a modular inverse
            return self.nodes.setdefault((value.numerator, value.denominator), value)
        if kind == "ident":
            if text not in _OPERATIONS or text == "neg":
                raise ParseError(f"unknown name {text!r}", pos)
            arity = _OPERATIONS[text][0]
            args = []
            if arity:  # pi and x take no parentheses
                self.expect_op("(")
                args.append(self.expr())
                while self.tokens[self.i][1] == ",":
                    self.i += 1
                    args.append(self.expr())
                self.expect_op(")")
            if len(args) != arity:
                raise ParseError(f"{text} takes {arity} argument(s)", pos)
            return self.call(text, tuple(args), pos)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse(src: str) -> Fraction | Call:
    parser = _Parser(src)
    e = parser.expr()
    kind, text, pos = parser.next()
    if kind != "end":
        raise ParseError(f"unexpected {text!r}", pos)
    return e


def evaluate(e: Fraction | Call, env=None):
    """Evaluate to a CReal (or Complex for csqrt results).  Each node is
    evaluated once, so a shared subtree is one value."""
    return _value(e, env or {}, {})


def _value(node, env: dict, memo: dict):
    """The value of one node, memoized by ``id``: the tree keeps every
    node alive while ``evaluate`` runs.  A module function, not a
    closure, so no reference cycle keeps ``memo`` past the call."""
    key = id(node)
    value = memo.get(key)
    if value is not None:
        return value
    if not isinstance(node, Call):
        value = CReal.from_fraction(node)
    elif (name := node.name) == "x":
        if name not in env:
            raise ParseError(f"unbound variable {name!r}", node.pos)
        value = env[name]
    else:
        args = []  # a loop, not a comprehension: no frame per level
        for arg in node.args:
            args.append(_value(arg, env, memo))
        if any(isinstance(a, Complex) for a in args):
            if name not in _COMPLEX:
                raise ParseError(f"{name} does not accept complex arguments", node.pos)
            args = [a if isinstance(a, Complex) else Complex(a, 0) for a in args]
        value = _OPERATIONS[name][1](*args)
    memo[key] = value
    return value
