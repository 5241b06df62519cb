"""Lazy exact real numbers as accuracy-queried interval oracles.

A ``CReal`` maps a requested accuracy ``p`` to a dyadic interval of
width at most ``2**-p`` containing the represented value.  Arithmetic
is precision iteration: operands are evaluated at geometrically
increasing internal accuracy until the combined interval meets the
requested width.  Exact values enter by ``from_fraction``, the one type
rule, and keep their ``Fraction``, so exact negations, sums and
differences fold into one leaf.  Every node is an exact leaf, a
``_scaled`` node (a product, quotient or negation with an exact factor,
exact when the factor is dyadic), ``_refined``, ``limit`` or pi's
interval primitive.  Comparison is semi-decidable and returns a lazy
Kleenean; equality on the diagonal stays bottom forever.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import inf
from typing import Callable

from .dyadic import _EXP_LIMIT, Dyadic, decimal_string, scaled_quotient
from .errors import (
    DivisorStraddlesZero,
    EffortExhausted,
    ExponentOverflow,
    OutsideDomain,
)
from .interval import Interval, from_ints
from .kleenean import (
    BOTTOM,
    FALSE,
    TRUE,
    Branch,
    LazyKleenean,
    _efforts,
    current_budget,
    select,
)


def _operator(combine, what: str, scalar=None, fold=False):
    """CReal's ``x op y`` and its reflected form ``y op x``: each
    coerces both operands and builds one node: with ``fold``, two exact
    leaves make the exact leaf of ``combine`` on their values; else
    ``scalar(x, y, what)``'s node when it returns one, else a
    ``_binary`` node."""

    def method(x, y):
        try:
            x, y = CReal._coerce(x), CReal._coerce(y)
        except TypeError:
            return NotImplemented
        if fold and type(x) is _Exact and type(y) is _Exact:
            return CReal.from_fraction(combine(x.value, y.value, None))
        if scalar is not None and (node := scalar(x, y, what)) is not None:
            return node
        return _binary(x, y, combine, what)

    return method, lambda x, y: method(y, x)


def _by_factor(x: CReal, y: CReal, what: str) -> CReal | None:
    """``x * y`` as one ``_scaled`` node when one operand is exact and
    the other is not; None otherwise."""
    if type(x) is _Exact:
        x, y = y, x
    if type(y) is _Exact and type(x) is not _Exact:
        return _scaled(x, y.value, what)
    return None


def _by_divisor(x: CReal, y: CReal, what: str) -> CReal | None:
    """``x / y`` as one ``_scaled`` node by 1/y when only y is exact and
    it is not zero; None otherwise, so that a zero divisor is refined
    until the budget as before."""
    if type(y) is _Exact and type(x) is not _Exact and y.value:
        return _scaled(x, 1 / y.value, what)
    return None


def _scaled(x: CReal, factor: int | Fraction, what: str) -> CReal:
    """``x * factor`` as a node that asks x once and multiplies both
    ends by the numerator.  With factor = num/den * 2**-twos and den
    odd, a dyadic factor (den = 1) is exact: |num| <= 2**len(|num| - 1),
    so x at p + len(|num| - 1) - twos bits scales to a width of at most
    2**-p by a shift.  Any other factor rounds each end outward onto the
    2**-(p+2) grid by one ``scaled_quotient`` by den: |factor| < 2**g for
    g = len(num) - len(den) + 1 - twos, so x at p + 2 + max(0, g) bits
    scales to a width below 2**-(p+2), and the roundings add < 2**-(p+1)."""
    num, den = factor.numerator, factor.denominator
    twos = (den & -den).bit_length() - 1
    den >>= twos
    extra = (abs(num) - 1).bit_length() - twos
    if den > 1:
        extra = 2 + max(0, num.bit_length() - den.bit_length() + 1 - twos)

    def fn(p: int) -> Interval:
        q = p + extra
        if q > current_budget():
            raise EffortExhausted(current_budget(), what)
        iv = x.approx(q)
        a, b = iv.a * num, iv.b * num
        if num < 0:
            a, b = b, a
        if den == 1:
            return from_ints(a, b, iv.e - twos)
        s = iv.e - twos + p + 2
        lo = scaled_quotient(a, den, s, up=False)
        return from_ints(lo, scaled_quotient(b, den, s, up=True), -(p + 2))

    return CReal(fn)


class CReal:
    """An exact real: ``approx(p)`` yields an interval of width <= 2**-p.

    Queries are idempotent; each value caches its best interval so far
    and answers coarser queries from the cache.  Answers at different
    accuracies each contain the value but need not nest.  A query that misses
    the cache above the effort budget raises ``EffortExhausted``; exact
    values are cached at every accuracy and never do.
    """

    __slots__ = ("_fn", "_best_p", "_best")

    def __init__(self, fn: Callable[[int], Interval]):
        self._fn = fn
        self._best_p = -1
        self._best: Interval | None = None

    def approx(self, p: int) -> Interval:
        p = max(p, 0)
        if self._best_p >= p:
            return self._best
        if p > current_budget():
            raise EffortExhausted(current_budget(), f"refining to {p} bits")
        iv = self._fn(p)
        self._best_p, self._best = p, iv
        return iv

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(fr: int | Fraction | Dyadic) -> "CReal":
        """The exact leaf of an int, a ``Fraction`` or a ``Dyadic``, and the
        one type rule for exact values: any other type raises TypeError.
        Cached at every accuracy when the denominator is a power of two,
        else one floor division per precision."""
        if not isinstance(fr, (int, Fraction)):
            if not isinstance(fr, Dyadic):
                raise TypeError(f"{type(fr).__name__} is not an exact real")
            fr = fr.to_fraction()
        num, den = fr.numerator, fr.denominator

        def fn(p: int) -> Interval:
            k = p + 2
            lo = scaled_quotient(num, den, k, up=False)
            return from_ints(lo, lo + 1, -k)

        node = _Exact(fn)
        node.value = Fraction(fr)
        if not den & (den - 1):
            node._best_p, node._best = inf, from_ints(num, num, 1 - den.bit_length())
        return node

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CReal":
        """A real as itself, anything else through ``from_fraction``."""
        return value if isinstance(value, CReal) else CReal.from_fraction(value)

    __add__, __radd__ = _operator(lambda a, b, q: a + b, "refining a sum", fold=True)
    __sub__, __rsub__ = _operator(lambda a, b, q: a - b, "refining a difference", fold=True)
    __mul__, __rmul__ = _operator(lambda a, b, q: a * b, "refining a product", _by_factor)
    __truediv__, __rtruediv__ = _operator(
        lambda a, b, q: a.div(b, q + 2), "refining a quotient", _by_divisor
    )

    def __neg__(self):
        if type(self) is _Exact:
            return CReal.from_fraction(-self.value)
        return _scaled(self, -1, "refining a negation")


class _Exact(CReal):
    """An exact leaf, as ``from_fraction`` builds it, holding its
    ``Fraction`` as ``value``, so that a product or quotient with it can
    scale the other operand's interval instead of multiplying or
    dividing two intervals."""

    __slots__ = ("value",)


def _refined(x: CReal, y: CReal | None, combine, what: str, p: int) -> Interval:
    """The refinement node of every binary operation and of the unary
    interval primitives (``y`` None): square root and absolute value.
    Precision iteration asks the operands at doubling working precision
    q and combines their intervals until the result is tight enough,
    then rounds onto the 2**-(p+2) grid to keep mantissas bounded.  A
    divisor that straddles zero is retried at the next q, and when an
    operand runs out of budget right after such a retry the quotient is
    named as the cause;
    an operand certified outside the domain (a negative radicand) is
    refused at once, since no higher q can bring it back."""
    straddled = False
    for q in _efforts(p + 4, p + 4, what):
        try:
            # Right operand first: in a Heron step (h + x/h)/2 the quotient
            # asks h at a higher precision than the sum does, so asking it
            # first leaves the sum's request to h to hit h's cache.
            b = None if y is None else y.approx(q)
            iv = combine(x.approx(q), b, q)
            straddled = False
            if iv.width_at_most(p + 1):
                return iv.round_out_grid(p + 2)
        except DivisorStraddlesZero:
            straddled = True
        except OutsideDomain:
            raise EffortExhausted(current_budget(), what) from None
        except EffortExhausted:
            if not straddled:
                raise
            raise EffortExhausted(current_budget(), what) from None


def _binary(x: CReal, y: CReal | None, combine, what: str) -> CReal:
    return CReal(partial(_refined, x, y, combine, what))


# -- comparison and splitting -----------------------------------------


def less_than(x, y) -> LazyKleenean:
    """Semi-decidable order: true iff x < y, false iff y < x, bottom
    forever when x = y."""
    x, y = CReal._coerce(x), CReal._coerce(y)

    def fn(n: int):
        xi, yi = x.approx(n), y.approx(n)
        if xi.precedes(yi):
            return TRUE
        if yi.precedes(xi):
            return FALSE
        return BOTTOM

    return LazyKleenean(fn)


def split(x, y, eps) -> Branch:
    """Approximate splitting: Left certifies x < y + eps, Right
    certifies y < x + eps.  Requires eps > 0."""
    x, y, eps = map(CReal._coerce, (x, y, eps))
    return select(less_than(x, y + eps), less_than(y, x + eps))


# -- limits ------------------------------------------------------------


def limit(f: Callable[[int], CReal]) -> CReal:
    """Limit of a fast Cauchy sequence: |f(n) - lim| <= 2**-n.

    Accuracy p asks for the single term f(p + 2); the node's cache
    answers every coarser query, so no term is asked for twice.
    """

    def fn(p: int) -> Interval:
        iv = f(p + 2).approx(p + 2).widen(Dyadic(1, -(p + 2)))
        return iv.round_out_grid(p + 3)

    return CReal(fn)


def refinement_terms(hint, step) -> Callable[[int], object]:
    """Memoized terms of a self-refining nondeterministic sequence.

    ``step(n, hint) -> (x_n, hint_n)`` runs once for each index n asked
    for, and for no other, with the latest hint: the whole state, which
    records the choices made, so later steps stay on one candidate.
    Each x_n lies within 2**-n of the limit, in any order of requests.
    """
    memo: dict[int, object] = {}

    def term(n: int):
        nonlocal hint
        if n not in memo:
            memo[n], hint = step(n, hint)
        return memo[n]

    return term


def limit_refine(hint, step) -> CReal:
    """Limit of a self-refining nondeterministic sequence of reals; see
    ``refinement_terms`` for the contract of ``step``."""
    return limit(refinement_terms(hint, step))


# -- rounding to integers and decimals ---------------------------------


def round_nd(x) -> int:
    """Nondeterministic rounding: some integer z with z-1 < x < z+1."""
    x = CReal._coerce(x)
    for q in _efforts(2, 2, "rounding to an integer"):
        iv = x.approx(q)
        # nearest integer to the midpoint
        z = (iv.midpoint() + Dyadic(1, -1)).floor_to_grid(0)
        z_int = z.mantissa << max(z.exponent, 0)
        if Dyadic(z_int - 1) < iv.lo and iv.hi < Dyadic(z_int + 1):
            return z_int


def dyadic_approx(x, n: int) -> int:
    """Some integer z with |x - z * 2**-n| <= 2**-n."""
    return round_nd(CReal._coerce(x) * Fraction(2) ** n)


def bits_for_digits(digits: int) -> int:
    """The accuracy in bits that ``digits`` decimal digits need: 3.322
    is above log2(10), and the 3 extra bits leave room to round."""
    return 3322 * digits // 1000 + 3


def to_decimal(x, digits: int) -> str:
    """Decimal rendering with |x - printed| <= 10**-digits."""
    if not isinstance(digits, int):
        raise TypeError(f"digits must be an int, not {type(digits).__name__}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    bits = bits_for_digits(digits)
    # exact values answer at any accuracy, so this is the one bound on
    # the 5**digits below
    if bits >= _EXP_LIMIT:
        raise ExponentOverflow(f"{digits} digits need {bits} bits, past the exponent range")
    iv = CReal._coerce(x).approx(bits)
    # n = midpoint * 10**digits = X * 5**digits / 2**s for X = a + b
    # and s = 1 - e - digits, rounded half up to an integer
    total, s = iv.a + iv.b, 1 - iv.e - digits
    if s < 1:  # X * 2**(1 - s) is even, so the half added below shifts out
        total, s = total << 1 - s, 1
    # |n| = top * 10**h + low with 0 <= low < 10**h, from P = |X| *
    # 5**(digits - h): P = T 2**(s+h) + R gives |X| 5**digits = T 10**h
    # 2**s + R 5**h, so top = T and low = (R 5**h + half) >> s, which
    # may reach 10**h once; half rounds ties up, toward zero for X < 0
    h = digits // 2
    five_h = 5**h
    scaled = abs(total) * (five_h if 2 * h == digits else 5 * five_h)
    top = scaled >> (s + h)
    half = (1 << (s - 1)) - (total < 0)
    low = ((scaled & ((1 << (s + h)) - 1)) * five_h + half) >> s
    if low >> h >= five_h:
        top, low = top + 1, low - (five_h << h)
    text = decimal_string(top, digits - h)
    if h:
        text += decimal_string(low).rjust(h, "0")
    return "-" + text if total < 0 and (top or low) else text


ZERO_REAL = CReal.from_fraction(0)
