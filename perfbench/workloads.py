"""The benchmark workloads: seeded query streams and an oracle that
checks each answer without using exactreal.  This module runs in the
parent process and never imports exactreal; ``worker.py`` makes the
library calls on the encoded queries and sends back encoded answers.

A stream is a sequence of rounds.  Every round holds one query from each
stratum of the workload (kind of problem x size band), so any number of
whole rounds has nearly the same mix whatever the seed; the seed only
moves values and sizes inside each stratum.  Sizes inside a stratum follow
a golden-ratio sequence from a seeded offset, so they cover the band
evenly after a few rounds.
"""

from __future__ import annotations

import random
from math import isqrt
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

_PHI = 0.6180339887498949


def _sizes(rng: random.Random, lo: int, hi: int):
    """Endless sizes spread log-evenly over [lo, hi]."""
    u = rng.random()
    while True:
        yield round(lo * (hi / lo) ** u)
        u = (u + _PHI) % 1.0


def _fraction(mantissa_hex: str, exponent: int) -> Fraction:
    """Exact value of a dyadic endpoint sent as (hex mantissa, exponent)."""
    m = int(mantissa_hex, 16)
    return Fraction(m << exponent) if exponent >= 0 else Fraction(m, 1 << -exponent)


def _endpoints(out) -> tuple[Fraction, Fraction]:
    """An interval answer ``[lo_m, lo_e, hi_m, hi_e]`` as exact endpoints."""
    return _fraction(*out[:2]), _fraction(*out[2:])


def _shifted(iv):
    """A wrong answer: the interval moved right by twice its width plus one."""
    lo, hi = iv
    step = 2 * (hi - lo) + 1
    return lo + step, hi + step


@dataclass(frozen=True)
class Query:
    kind: str
    bits: int
    arg: object  # the generated input the library sees
    text: str  # human-readable form, used in failure reports

    def describe(self) -> str:
        return f"{self.kind}@{self.bits}: {self.text}"


class Workload:
    name = ""

    def rounds(self, seed: int):
        raise NotImplementedError

    def warmup(self, seed: int) -> list[Query]:
        raise NotImplementedError

    def encode(self, q: Query) -> dict:
        """The query as ``worker.py`` reads it: kind, bits and a JSON ``arg``."""
        return {"workload": self.name, "kind": q.kind, "bits": q.bits,
                "arg": str(q.arg)}

    def decode(self, q: Query, out):
        """The worker's JSON answer as the value ``check`` takes."""
        return _endpoints(out)

    def check(self, q: Query, out) -> bool:
        raise NotImplementedError

    def corrupt(self, q: Query, out):
        """A deliberately wrong version of a correct ``out``."""
        raise NotImplementedError


# -- deep-sqrt ----------------------------------------------------------


class DeepSqrt(Workload):
    """real_sqrt and real_sqrt(real_sqrt(.)) at 2,000-10,000 bits."""

    name = "deep-sqrt"
    # Per round: the two fixed 10,000-bit rows, then seeded strata.  The
    # three 10,000-bit sqrt(sqrt) queries are the slowest fifth of a round,
    # so the 90th percentile is the median of that block of near-equal
    # queries: neither the steep top of a size band nor a tail of the
    # block, which would follow the fastest or slowest spell of the machine.
    _STRATA = ([("sqrtsqrt", 10000, 10000)] * 2 + [("sqrt", 2000, 10000)] * 8
               + [("sqrtsqrt", 2000, 8000)] * 3)

    def _value(self, rng):
        if rng.random() < 0.5:
            n = rng.randint(2, 99)
            return Fraction(n), str(n)
        v = Fraction(rng.randint(1, 60), rng.randint(2, 60))
        return v, f"{v.numerator}/{v.denominator}"

    def rounds(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        sizes = [_sizes(rng, lo, hi) for _, lo, hi in self._STRATA]
        while True:
            rnd = [
                Query("sqrt", 10000, Fraction(2), "2"),
                Query("sqrtsqrt", 10000, Fraction(2), "2"),
            ]
            for (kind, _, _), size in zip(self._STRATA, sizes):
                v, text = self._value(rng)
                rnd.append(Query(kind, next(size), v, text))
            yield rnd

    def warmup(self, seed):
        return [Query("sqrt", 2000, Fraction(3), "3"),
                Query("sqrtsqrt", 2000, Fraction(5, 7), "5/7")]

    def check(self, q, out):
        lo, hi = out
        power = 2 if q.kind == "sqrt" else 4
        x = q.arg
        # lo <= x**(1/power) <= hi, decided by exact integer powers
        lo_ok = lo <= 0 or lo**power <= x
        hi_ok = hi >= 0 and hi**power >= x
        return lo_ok and hi_ok and hi - lo <= Fraction(1, 1 << q.bits)

    def corrupt(self, q, out):
        return _shifted(out)


# -- trisect ------------------------------------------------------------


def _poly_eval(coeffs, x):
    """Horner evaluation; coeffs from the highest degree down."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _decimal(v: Fraction) -> str:
    """The exact decimal text of a non-negative dyadic rational."""
    k = v.denominator.bit_length() - 1
    assert v >= 0 and v.denominator == 1 << k
    digits = str(v.numerator * 5**k).rjust(k + 1, "0")
    whole, frac = digits[:len(digits) - k], digits[len(digits) - k:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


def _horner_text(coeffs) -> str:
    """An increasing polynomial with a negative constant term, in Horner
    form in the command-line grammar, e.g. ``(x*x + 0.5)*x - 0.3125``."""
    head, *middle, last = coeffs
    text = "x" if head == 1 else f"{_decimal(head)}*x"
    for c in middle:
        text = f"({text} + {_decimal(c)})*x" if c else f"{text}*x"
    return f"{text} - {_decimal(-last)}"


class Trisect(Workload):
    """ivt_trisect on increasing functions with one root in (0, 1), each
    given as an expression in x the way ``exactreal ivt`` takes it."""

    name = "trisect"
    # The three sqrt(x + 0.5) - 1 problems are the slowest fifth of a
    # round, so the 90th percentile is the median of that block (see
    # DeepSqrt).
    _STRATA = (
        [("linear", 64, 256)] * 3
        + [("quadratic", 64, 256)] * 3
        + [("cubic", 64, 256)] * 3
        + [("cubic2", 64, 256)] * 3
        + [("sqrt", 64, 72)] * 3
    )
    _SQRT = "sqrt(x + 0.5) - 1"

    @staticmethod
    def _rat(rng, lo, hi, den=64):
        return Fraction(rng.randint(round(lo * den), round(hi * den)), den)

    def _coeffs(self, kind, rng):
        """Dyadic coefficients (highest degree first) of an f that increases
        on [0, 1] with f(0) < 0 < f(1); the root lies near [1/16, 15/16].
        Dyadic values print as exact decimals, and the parser realizes them
        without a division."""
        if kind == "linear":
            a = self._rat(rng, 0.5, 4)
            return [a, -a * Fraction(rng.randint(1, 15), 16)]
        if kind == "quadratic":
            head = [Fraction(1), self._rat(rng, 0, 2)]
        elif kind == "cubic":
            head = [Fraction(1), Fraction(0), self._rat(rng, 0.5, 3)]
        else:
            head = [Fraction(1), self._rat(rng, 0, 2), self._rat(rng, 0, 2)]
        # -d between the values of the head polynomial at 1/16 and 15/16,
        # rounded to 1/4096; head(1/16) > 1/8192, so still 0 < d < head(1)
        lo = _poly_eval(head + [0], Fraction(1, 16))
        hi = _poly_eval(head + [0], Fraction(15, 16))
        d = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
        return head + [-Fraction(round(d * 4096), 4096)]

    def _query(self, kind, bits, coeffs):
        if coeffs is None:
            return Query(kind, bits, None, self._SQRT)
        return Query(kind, bits, tuple(coeffs), _horner_text(coeffs))

    def rounds(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        sizes = [_sizes(rng, lo, hi) for _, lo, hi in self._STRATA]
        while True:
            yield [self._query(kind, next(size),
                               None if kind == "sqrt" else self._coeffs(kind, rng))
                   for (kind, _, _), size in zip(self._STRATA, sizes)]

    def warmup(self, seed):
        return [self._query("linear", 64, (Fraction(3), Fraction(-1))),
                self._query("quadratic", 64, (Fraction(1), Fraction(0), Fraction(-1, 2)))]

    def encode(self, q):
        return {"workload": self.name, "kind": q.kind, "bits": q.bits, "arg": q.text}

    def check(self, q, out):
        lo, hi = out
        if hi - lo > Fraction(1, 1 << q.bits):
            return False
        if q.arg is None:
            return lo <= Fraction(1, 2) <= hi
        # f increases on the bracket, so the root lies in [lo, hi] iff
        # f(lo) <= 0 <= f(hi), evaluated exactly
        return _poly_eval(q.arg, lo) <= 0 <= _poly_eval(q.arg, hi)

    def corrupt(self, q, out):
        return _shifted(out)


# -- expr-digits --------------------------------------------------------

# Expression trees are tuples: ("num", Fraction, text) or (op, child, ...)
# for op in add sub mul div max abs sqrt.

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _render(t) -> str:
    op = t[0]
    if op == "num":
        return t[2]
    if op in _INFIX:
        return f"({_render(t[1])} {_INFIX[op]} {_render(t[2])})"
    return f"{op}({', '.join(_render(c) for c in t[1:])})"


def _decimal_value(t) -> Decimal:
    """The tree's value in the current decimal context."""
    op = t[0]
    if op == "num":
        return Decimal(t[1].numerator) / t[1].denominator
    a, *rest = [_decimal_value(c) for c in t[1:]]
    if op == "sqrt":
        return a.sqrt()
    if op == "abs":
        return abs(a)
    (b,) = rest
    return {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b,
            "max": max(a, b)}[op]


class ExprDigits(Workload):
    """parse + evaluate + to_decimal of command-line expressions at
    600-2,400 digits, as ``exactreal eval`` prints them."""

    name = "expr-digits"
    # Each kind is one expression shape with seeded values.  The three
    # "heavy" queries are the slowest fifth of a round, so the 90th
    # percentile is the median of that block (see DeepSqrt).
    _STRATA = (
        [("sqrt", 1000, 2400)] * 3
        + [("max", 1000, 2400)] * 3
        + [("abs", 1000, 2400)] * 3
        + [("nested", 600, 1500)] * 3
        + [("heavy", 2400, 2400)] * 3
    )
    _NON_SQUARES = [n for n in range(2, 100) if isqrt(n) ** 2 != n]

    def _tree(self, kind, rng):
        a, b = (("num", Fraction(n), str(n))
                for n in rng.sample(self._NON_SQUARES, 2))
        c = rng.randint(3, 19)
        c = ("num", Fraction(c), str(c))
        k = rng.randint(101, 999)
        d = ("num", Fraction(k, 100), f"{k // 100}.{k % 100:02d}")
        if kind == "sqrt":
            return ("div", ("mul", ("sqrt", a), d), c)
        if kind == "max":
            # a 4-digit decimal next to sqrt(a), so max must compare two
            # values that agree to about four digits
            m = isqrt(a[1].numerator * 10**8) + rng.choice((-1, 1))
            near = ("num", Fraction(m, 10**4), f"{m // 10**4}.{m % 10**4:04d}")
            return ("sub", ("max", ("sqrt", a), near), ("div", ("sqrt", b), c))
        if kind == "abs":
            return ("mul", ("abs", ("sub", ("sqrt", a), ("sqrt", b))), d)
        if kind == "nested":
            return ("div", ("sqrt", ("add", ("sqrt", a), d)), c)
        return ("div", ("sqrt", ("add", ("sqrt", a), ("sqrt", b))), c)

    def rounds(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        sizes = [_sizes(rng, lo, hi) for _, lo, hi in self._STRATA]
        while True:
            rnd = []
            for (kind, _, _), size in zip(self._STRATA, sizes):
                tree = self._tree(kind, rng)
                rnd.append(Query(kind, next(size), tree, _render(tree)))
            yield rnd

    def warmup(self, seed):
        # the same for every seed, so that set-up time does not depend on it
        rng = random.Random(f"{self.name}-warmup")
        return [Query(kind, 300, tree, _render(tree))
                for kind in ("sqrt", "max", "abs", "nested", "heavy")
                for tree in [self._tree(kind, rng)]]

    def encode(self, q):
        return {"workload": "expr", "kind": q.kind, "bits": q.bits, "arg": q.text}

    def decode(self, q, out):
        return tuple(out)

    def check(self, q, out):
        if len(out) != 1:
            return False
        with localcontext() as ctx:
            ctx.prec = q.bits + 40
            error = abs(Decimal(out[0]) - _decimal_value(q.arg))
            return error <= Decimal(10) ** -q.bits * (1 + Decimal(10) ** -30)

    def corrupt(self, q, out):
        with localcontext() as ctx:
            ctx.prec = q.bits + 40
            return (str(Decimal(out[0]) + 3 * Decimal(10) ** -q.bits),)


WORKLOADS = {w.name: w for w in (DeepSqrt(), Trisect(), ExprDigits())}

# -- hidden-zero probe --------------------------------------------------

HIDDEN_ZERO_DIGITS = (5, 10, 20)
# csqrt(sqrt(sqrt(Z) - sqrt(Z)), pi - pi) with Z an exact zero hidden
# behind shared subterms.  Its value is 0, but at this library version
# its cost grows about sevenfold per doubling of the digits (31 s at 40
# digits on a 2-vCPU x86-64 virtual machine), so the probe times it where
# a query still ends in seconds.
_Z = "(6 + (pi - pi)) - (6 + (pi - pi))"
HIDDEN_ZERO = f"csqrt(sqrt(sqrt({_Z}) - sqrt({_Z})), pi - pi)"


def hidden_zero_ok(printed: list[str], digits: int) -> bool:
    """Both printed parts of the hidden zero lie within 10^-digits of 0."""
    return len(printed) == 2 and all(
        abs(Decimal(p)) <= Decimal(10) ** -digits for p in printed)
