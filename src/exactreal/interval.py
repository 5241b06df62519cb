"""Outward-rounded intervals: two integers on one exponent.

An ``Interval`` is the finite approximation of a real number: every
operation returns an interval containing all pointwise results.  It
holds three plain ints ``(a, b, e)``, the ends lo = a * 2**e and
hi = b * 2**e, and computes every operation on those integers, so no
``Dyadic`` object is built on the way: the shape of an ``MPBall``
approximation in AERN, with two ends instead of a centre and a radius.
Sums, differences and products are exact; only division, square root
and grid rounding widen.  ``lo`` and ``hi`` are views: each access
builds the canonical ``Dyadic`` of that end.

The ends share one exponent, so ends whose exponents are far apart
align into one large integer: [2**-100000, 2**100000] holds a
200,000-bit ``b``, and operations on it work on that integer.  A zero
end forces no shift.  The library's own intervals are leaves and
results rounded onto the 2**-k grid of a working precision, whose two
ends share an exponent anyway.
"""

from __future__ import annotations

from .dyadic import Dyadic, isqrt_floor, scaled_quotient
from .errors import DivisorStraddlesZero, OutsideDomain


class Interval:
    """A closed interval [lo, hi] = [a * 2**e, b * 2**e], a <= b."""

    __slots__ = ("a", "b", "e")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        a, e, b, f = lo.mantissa, lo.exponent, hi.mantissa, hi.exponent
        # the smaller exponent of the nonzero ends
        if not a:
            e = f
        elif b and f != e:
            if f > e:
                b <<= f - e
            else:
                a <<= e - f
                e = f
        _set_a(self, a)
        _set_b(self, b)
        _set_e(self, e)

    def __setattr__(self, name, value):
        raise AttributeError("Interval values are immutable")

    @classmethod
    def point(cls, d: Dyadic) -> "Interval":
        return cls(d, d)

    @property
    def lo(self) -> Dyadic:
        return Dyadic(self.a, self.e)

    @property
    def hi(self) -> Dyadic:
        return Dyadic(self.b, self.e)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    def __eq__(self, other):
        # canonical views compare values without aligning the exponents
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    # -- queries ------------------------------------------------------

    def width(self) -> Dyadic:
        return Dyadic(self.b - self.a, self.e)

    def width_at_most(self, n: int) -> bool:
        """hi - lo <= 2**-n, that is b - a <= 2**(-n - e)."""
        w = self.b - self.a
        return not w or (w - 1).bit_length() <= -n - self.e

    def contains(self, d: Dyadic) -> bool:
        return self.contains_interval(Interval.point(d))

    def contains_interval(self, other: "Interval") -> bool:
        a, b, c, d, _ = _align(self, other)
        return a <= c and d <= b

    def precedes(self, other: "Interval") -> bool:
        """Every point is below every point of ``other``: hi < other.lo."""
        _, b, c, _, _ = _align(self, other)
        return b < c

    def midpoint(self) -> Dyadic:
        return Dyadic(self.a + self.b, self.e - 1)

    def straddles_zero(self) -> bool:
        return self.a <= 0 <= self.b

    # -- exact arithmetic ---------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        a, b, c, d, e = _align(self, other)
        return from_ints(a + c, b + d, e)

    def __sub__(self, other: "Interval") -> "Interval":
        a, b, c, d, e = _align(self, other)
        return from_ints(a - d, b - c, e)

    def __neg__(self) -> "Interval":
        return from_ints(-self.b, -self.a, self.e)

    def __mul__(self, other: "Interval") -> "Interval":
        """Exact product.  Operands of one sign each multiply as
        magnitudes ``[x0, x1]`` and ``[y0, y1]``: the lower end is
        ``x0*y0``, and the upper end ``x0*y0 + x0*(y1 - y0) +
        (x1 - x0)*y1`` adds products with the widths to that one full
        product, so narrow operands make one full product.  The signs
        pick which end is which.  An operand that straddles zero takes
        the hull of the four corner products."""
        a, b, e = self.a, self.b, self.e
        c, d, f = other.a, other.b, other.e
        x = _magnitudes(a, b)
        y = _magnitudes(c, d) if x else None
        if y is None:
            lo, hi = _corner_hull(a, b, c, d)
            return from_ints(lo, hi, e + f)
        sx, x0, x1 = x
        sy, y0, y1 = y
        lo = x0 * y0
        hi = lo + x0 * (y1 - y0) + (x1 - x0) * y1
        if sx != sy:
            lo, hi = -hi, -lo
        return from_ints(lo, hi, e + f)

    def scale2(self, k: int) -> "Interval":
        return from_ints(self.a, self.b, self.e + k)

    def __abs__(self) -> "Interval":
        if self.a >= 0:
            return self
        if self.b <= 0:
            return -self
        return from_ints(0, max(-self.a, self.b), self.e)

    def maximum(self, other: "Interval") -> "Interval":
        """The pointwise maximum: monotone and no wider than either."""
        a, b, c, d, e = _align(self, other)
        return from_ints(max(a, c), max(b, d), e)

    # -- division (rounds outward) ------------------------------------

    def div(self, other: "Interval", k: int) -> "Interval":
        """Containment-sound quotient, endpoints rounded outward onto
        the grid of multiples of 2**-k.

        With zero outside the divisor, x/y is monotone in each argument,
        so each endpoint is one corner quotient picked by the signs: two
        directed divisions in all.  Grid rounding is monotone, so this
        equals the rounded hull of all four corners, at most 2**-(k-1)
        wider than the exact hull.

        Raises ``DivisorStraddlesZero`` when the divisor interval
        contains zero; callers at the real layer retry at higher
        accuracy.
        """
        if other.straddles_zero():
            # a fixed message: formatting a huge interval costs O(n**2)
            raise DivisorStraddlesZero("divisor interval contains zero")
        a, b, c, d = self.a, self.b, other.a, other.b
        s = self.e - other.e + k
        if c > 0:
            lo = scaled_quotient(a, d if a >= 0 else c, s, up=False)
            hi = scaled_quotient(b, c if b >= 0 else d, s, up=True)
        else:
            lo = scaled_quotient(b, d if b >= 0 else c, s, up=False)
            hi = scaled_quotient(a, c if a >= 0 else d, s, up=True)
        return from_ints(lo, hi, -k)

    # -- square root (rounds outward) ---------------------------------

    def sqrt(self, k: int) -> "Interval":
        """Square roots of the points x >= 0 of the interval, rounded
        outward onto the grid of multiples of 2**-k.

        The lower end is the integer root r of n_lo = floor(lo * 4**k),
        with lo clipped at 0, from ``isqrt_floor``, which computes no
        remainder; n_hi = ceil(hi * 4**k).
        sqrt is concave, so its tangent at n_lo bounds it above:
        sqrt(n_hi) <= r + 1 + d with d = ceil((n_hi - n_lo)/(2r)) for
        r > 0, one small division instead of a second full root.  These
        three roundings are ``scaled_quotient``'s.  The tangent
        overshoots by about d**2/(2r) grid steps, so when r = 0 or
        d**2 > r the upper end is the ceiling root of n_hi instead,
        ceil(sqrt(n)) = floor(sqrt(n - 1)) + 1 for n >= 1, again from
        ``isqrt_floor``.  The lower end is monotone in the interval; the
        upper end is not, since a wider interval may take the tighter
        ceiling root.

        Raises ``OutsideDomain`` when the interval lies below zero; the
        radicand is then certified negative, and the real layer refuses
        it without a retry.
        """
        a, b = self.a, self.b
        if b < 0:
            raise OutsideDomain("radicand interval is negative")
        s = self.e + 2 * k
        n_lo = scaled_quotient(a, 1, s, up=False) if a > 0 else 0
        n_hi = scaled_quotient(b, 1, s, up=True)
        r = isqrt_floor(n_lo)
        if r:
            d = scaled_quotient(n_hi - n_lo, 2 * r, 0, up=True)
            if d * d <= r:
                return from_ints(r, r + 1 + d, -k)
        return from_ints(r, isqrt_floor(n_hi - 1) + 1 if n_hi else 0, -k)

    # -- rounding -----------------------------------------------------

    def round_out(self, bits: int) -> "Interval":
        """Widen endpoints to at most ``bits`` significant bits."""
        return Interval(self.lo.round_down(bits), self.hi.round_up(bits))

    def round_out_grid(self, k: int) -> "Interval":
        """Widen endpoints outward onto the grid of multiples of 2**-k."""
        s = self.e + k
        if s >= 0:
            return self
        lo = scaled_quotient(self.a, 1, s, up=False)
        return from_ints(lo, scaled_quotient(self.b, 1, s, up=True), -k)

    def widen(self, pad: Dyadic) -> "Interval":
        """[lo - pad, hi + pad] for pad >= 0."""
        if pad.mantissa < 0:
            raise ValueError(f"negative pad {pad}")
        return self + from_ints(-pad.mantissa, pad.mantissa, pad.exponent)

    def intersect(self, other: "Interval") -> "Interval":
        a, b, c, d, e = _align(self, other)
        lo, hi = max(a, c), min(b, d)
        if lo > hi:
            raise ValueError(f"disjoint intervals {self} and {other}")
        return from_ints(lo, hi, e)


_new = object.__new__
_set_a, _set_b, _set_e = Interval.a.__set__, Interval.b.__set__, Interval.e.__set__


def from_ints(a: int, b: int, e: int) -> Interval:
    """[a * 2**e, b * 2**e] for a <= b, unchecked: the constructor of
    results, whose ends are ordered by construction."""
    iv = _new(Interval)
    _set_a(iv, a)
    _set_b(iv, b)
    _set_e(iv, e)
    return iv


def _align(x: Interval, y: Interval) -> tuple[int, int, int, int, int]:
    """``(a, b, c, d, e)``: the ends of x and y as [a, b] * 2**e and
    [c, d] * 2**e on the smaller of their exponents."""
    a, b, e, c, d, f = x.a, x.b, x.e, y.a, y.b, y.e
    if f > e:
        c <<= f - e
        d <<= f - e
    elif e > f:
        a <<= e - f
        b <<= e - f
        e = f
    return a, b, c, d, e


def _magnitudes(a: int, b: int):
    """``(sign, lo, hi)`` with [a, b] = sign * [lo, hi] and 0 <= lo when
    the interval does not straddle zero; otherwise None."""
    if a >= 0:
        return 1, a, b
    if b <= 0:
        return -1, -b, -a
    return None


def _corner_hull(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The least and greatest of the four corner products of [a, b]
    and [c, d]."""
    products = (a * c, a * d, b * c, b * d)
    return min(products), max(products)
