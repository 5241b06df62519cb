"""Outward-rounded intervals with dyadic endpoints.

An ``Interval`` is the finite approximation of a real number: every
operation returns an interval containing all pointwise results.  Sums,
differences and products keep exact endpoints (dyadics are closed under
them); only division, square root and grid rounding widen.
"""

from __future__ import annotations

from math import isqrt

from .dyadic import Dyadic, div_directed
from .errors import DivisorStraddlesZero, OutsideDomain


class Interval:
    """A closed interval [lo, hi] with dyadic endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval values are immutable")

    @classmethod
    def point(cls, d: Dyadic) -> "Interval":
        return cls(d, d)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    def __eq__(self, other):
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    # -- queries ------------------------------------------------------

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def contains(self, d: Dyadic) -> bool:
        return self.lo <= d <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def midpoint(self) -> Dyadic:
        return (self.lo + self.hi).scale2(-1)

    def straddles_zero(self) -> bool:
        return self.lo.sign <= 0 <= self.hi.sign

    # -- exact arithmetic ---------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        """Exact product.  When both operands are narrow (``_narrow``),
        their absolute values ``[a, a + w]`` and ``[c, c + v]`` multiply
        with one full product: ``a*c`` is the lower end, and
        ``(a + w)(c + v) = a*c + a*v + w*(c + v)`` adds products with the
        small widths for the upper.  The signs pick which end is which.
        Any other pair takes the hull of the four corner products."""
        x = _narrow(self)
        y = _narrow(other) if x else None
        if y is None:
            products = [
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            ]
            return Interval(min(products), max(products))
        sx, a, w, ex = x
        sy, c, v, ey = y
        lo = a * c
        hi = lo + a * v + w * (c + v)
        if sx != sy:
            lo, hi = -hi, -lo
        return Interval(Dyadic(lo, ex + ey), Dyadic(hi, ex + ey))

    def scale2(self, k: int) -> "Interval":
        return Interval(self.lo.scale2(k), self.hi.scale2(k))

    def __abs__(self) -> "Interval":
        if self.lo.sign >= 0:
            return self
        if self.hi.sign <= 0:
            return -self
        return Interval(Dyadic(0), max(-self.lo, self.hi))

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
        a, b = self.lo, self.hi
        c, d = other.lo, other.hi
        if c.sign > 0:
            lo = div_directed(a, d if a.sign >= 0 else c, k, up=False)
            hi = div_directed(b, c if b.sign >= 0 else d, k, up=True)
        else:
            lo = div_directed(b, d if b.sign >= 0 else c, k, up=False)
            hi = div_directed(a, c if a.sign >= 0 else d, k, up=True)
        return Interval(lo, hi)

    # -- square root (rounds outward) ---------------------------------

    def sqrt(self, k: int) -> "Interval":
        """Square roots of the points x >= 0 of the interval, rounded
        outward onto the grid of multiples of 2**-k.

        The lower end is r = isqrt(floor(lo * 4**k)), with lo clipped at
        0.  sqrt is concave, so its tangent at n_lo = floor(lo * 4**k)
        bounds it above: sqrt(n_hi) <= r + 1 + (n_hi - n_lo)/(2r) for
        r > 0, one small division instead of a second full isqrt.  The
        tangent overshoots by about d**2/(2r) grid steps for a quotient
        d, so a ceiling isqrt is taken instead when r = 0 or d**2 > r.
        The lower end is monotone in the interval; the upper end is not,
        since a wider interval may take the tighter ceiling isqrt.

        Raises ``OutsideDomain`` when the interval lies below zero; the
        radicand is then certified negative, and the real layer refuses
        it without a retry.
        """
        lo, hi = self.lo, self.hi
        if hi.sign < 0:
            raise OutsideDomain("radicand interval is negative")
        n_lo = _floor_scaled(lo.mantissa, lo.exponent + 2 * k) if lo.sign > 0 else 0
        n_hi = -_floor_scaled(-hi.mantissa, hi.exponent + 2 * k)
        r = isqrt(n_lo)
        if r:
            d = -((n_lo - n_hi) // (2 * r))  # ceil((n_hi - n_lo) / (2r))
            if d * d <= r:
                return Interval(Dyadic(r, -k), Dyadic(r + 1 + d, -k))
        s = isqrt(n_hi)
        return Interval(Dyadic(r, -k), Dyadic(s if s * s == n_hi else s + 1, -k))

    # -- rounding -----------------------------------------------------

    def round_out(self, bits: int) -> "Interval":
        """Widen endpoints to at most ``bits`` significant bits."""
        return Interval(self.lo.round_down(bits), self.hi.round_up(bits))

    def round_out_grid(self, k: int) -> "Interval":
        """Widen endpoints outward onto the grid of multiples of 2**-k."""
        return Interval(self.lo.floor_to_grid(k), self.hi.ceil_to_grid(k))

    def widen(self, pad: Dyadic) -> "Interval":
        return Interval(self.lo - pad, self.hi + pad)

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi)


def _floor_scaled(m: int, s: int) -> int:
    """floor(m * 2**s)."""
    return m << s if s >= 0 else m >> -s


def _narrow(x: Interval):
    """``(sign, a, w, e)`` when the points of ``x`` have one sign and
    their absolute values ``[l, h]`` are narrow, 0 < l and h <= 2*l;
    they are then ``[a, a + w] * 2**e``.  Otherwise None.  Narrow ends
    are within a factor of two, so aligning them lengthens neither
    mantissa by more than a bit; a wider interval could need a shift by
    the whole distance between its exponents."""
    lo, hi = x.lo, x.hi
    if lo.mantissa > 0:
        sign, lm, le, hm, he = 1, lo.mantissa, lo.exponent, hi.mantissa, hi.exponent
    elif hi.mantissa < 0:
        sign, lm, le, hm, he = -1, -hi.mantissa, hi.exponent, -lo.mantissa, lo.exponent
    else:
        return None
    if hm.bit_length() + he > lm.bit_length() + le + 1:
        return None
    e = min(le, he)
    a = lm << (le - e)
    w = (hm << (he - e)) - a
    return (sign, a, w, e) if w <= a else None
