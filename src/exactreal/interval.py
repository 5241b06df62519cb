"""Outward-rounded intervals with dyadic endpoints.

An ``Interval`` is the finite approximation of a real number: every
operation returns an interval containing all pointwise results.  Sums,
differences and products keep exact endpoints (dyadics are closed under
them); only division and grid rounding widen.
"""

from __future__ import annotations

from .dyadic import Dyadic, div_directed
from .errors import DivisorStraddlesZero


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

    def __hash__(self):
        return hash((self.lo, self.hi))

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
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Interval(min(products), max(products))

    def scale2(self, k: int) -> "Interval":
        return Interval(self.lo.scale2(k), self.hi.scale2(k))

    def __abs__(self) -> "Interval":
        if self.lo.sign >= 0:
            return self
        if self.hi.sign <= 0:
            return -self
        return Interval(Dyadic(0), max(-self.lo, self.hi))

    # -- division (rounds outward) ------------------------------------

    def div(self, other: "Interval", bits: int) -> "Interval":
        """Containment-sound quotient, endpoints rounded outward to
        ``bits`` significant bits.

        With zero outside the divisor, x/y is monotone in each argument,
        so each endpoint is one corner quotient picked by the signs: two
        directed divisions in all.  Directed rounding is monotone, so
        this equals the rounded hull of all four corners.

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
            lo = div_directed(a, d if a.sign >= 0 else c, bits, up=False)
            hi = div_directed(b, c if b.sign >= 0 else d, bits, up=True)
        else:
            lo = div_directed(b, d if b.sign >= 0 else c, bits, up=False)
            hi = div_directed(a, c if a.sign >= 0 else d, bits, up=True)
        return Interval(lo, hi)

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
