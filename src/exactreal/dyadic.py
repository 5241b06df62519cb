"""Exact binary rationals m * 2**e with canonical (odd-or-zero) mantissas.

These are the exact scalars of the views of interval ends
(``Interval.lo`` and ``hi``) and of the points a caller passes; exact
leaves hold ``Fraction``s, and intervals compute on plain integers.
Addition, subtraction and multiplication are exact, and directed
rounding is the only lossy operation.  Values are immutable and hash
like the equal int or Fraction.  ``scaled_quotient`` is the one
directed rounding, the floor or ceiling of n * 2**s / d that every
grid rounding and directed division of the library calls.  One
Karatsuba square root gives the integer roots: ``isqrt_floor``, the
floor root, for ``Interval.sqrt``'s two ends and pi, and ``isqrt_rem``,
the root and its remainder, as the recursion of ``isqrt_floor``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt

from .errors import ExponentOverflow

# Exponents are kept inside a comfortable machine range; anything beyond
# this indicates a runaway computation rather than a legitimate value.
_EXP_LIMIT = 1 << 62

_HASH_P = sys.hash_info.modulus


# digits ``str`` converts directly, well below the interpreter's
# 4,300-digit limit on int-to-str conversion
_DECIMAL_CHUNK = 1000


def decimal_string(n: int, point: int = 0) -> str:
    """``n * 10**-point`` in decimal, with ``point`` digits after the
    point, for an int ``n`` of any size: split in halves by one power
    of ten until ``str`` may convert each part.  The split divides
    ``n >> k`` by 5**k, a divisor 30 % shorter than 10**k, and puts
    the k low bits back under the remainder."""
    if n < 0:
        return "-" + decimal_string(-n, point)
    if point:
        text = decimal_string(n).rjust(point + 1, "0")
        return f"{text[:-point]}.{text[-point:]}"
    digits = n.bit_length() * 30103 // 100000 + 1  # at least len(str(n))
    if digits <= _DECIMAL_CHUNK:
        return str(n)
    k = digits // 2
    hi, lo = divmod(n >> k, 5**k)
    lo = (lo << k) | (n & ((1 << k) - 1))
    return decimal_string(hi) + decimal_string(lo).rjust(k, "0")


def _operator(combine):
    """Dyadic's operator ``x op y`` from ``combine`` on two Dyadics: an
    int y is taken exactly, and any other type returns NotImplemented,
    so that Python raises ``TypeError`` (or makes ``==`` false)."""

    def method(x, y):
        if not isinstance(y, Dyadic):
            if not isinstance(y, int):
                return NotImplemented
            y = Dyadic(y)
        return combine(x, y)

    return method


def _normalize(mantissa: int, exponent: int) -> tuple[int, int]:
    if not mantissa & 1:
        if mantissa == 0:
            return 0, 0
        shift = (mantissa & -mantissa).bit_length() - 1
        mantissa >>= shift
        exponent += shift
    if not -_EXP_LIMIT < exponent < _EXP_LIMIT:
        raise ExponentOverflow(f"dyadic exponent {exponent} out of range")
    return mantissa, exponent


class Dyadic:
    """An exact binary rational ``mantissa * 2**exponent``.

    The representation is canonical: the mantissa is odd or zero, and
    zero is always ``0 * 2**0``.  Structural equality therefore equals
    value equality.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        m, e = _normalize(mantissa, exponent)
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic values are immutable")

    # -- conversions --------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def to_decimal_string(self) -> str:
        """Exact decimal rendering (finite because 2 divides 10)."""
        if self.exponent >= 0:
            return decimal_string(self.mantissa << self.exponent)
        # m / 2**k == m * 5**k / 10**k
        return decimal_string(self.mantissa * 5**-self.exponent, -self.exponent)

    def __repr__(self):
        return f"Dyadic({self.mantissa}, {self.exponent})"

    def __str__(self):
        return self.to_decimal_string()

    # -- arithmetic (exact) -------------------------------------------

    def _sum(self, other):
        e = min(self.exponent, other.exponent)
        m = (self.mantissa << (self.exponent - e)) + (
            other.mantissa << (other.exponent - e)
        )
        return Dyadic(m, e)

    __add__ = __radd__ = _operator(_sum)
    __sub__ = _operator(lambda x, y: x + (-y))
    __rsub__ = _operator(lambda x, y: y + (-x))
    __mul__ = __rmul__ = _operator(
        lambda x, y: Dyadic(x.mantissa * y.mantissa, x.exponent + y.exponent)
    )

    def __neg__(self):
        return Dyadic(-self.mantissa, self.exponent)

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by ``2**k``."""
        if self.mantissa == 0:
            return self
        return Dyadic(self.mantissa, self.exponent + k)

    def __abs__(self):
        return Dyadic(abs(self.mantissa), self.exponent)

    # -- comparison (total order on values) ---------------------------

    def _cmp(self, other) -> int:
        a, b = self.mantissa, other.mantissa
        e = self.exponent - other.exponent
        # a shift past the other mantissa's length decides by sign alone,
        # so far-apart exponents cost no huge shift
        if e >= 0:
            if a and e > b.bit_length():
                return 1 if a > 0 else -1
            a <<= e
        else:
            if b and -e > a.bit_length():
                return -1 if b > 0 else 1
            b <<= -e
        return (a > b) - (a < b)

    __eq__ = _operator(lambda x, y: x._cmp(y) == 0)
    __lt__ = _operator(lambda x, y: x._cmp(y) < 0)
    __le__ = _operator(lambda x, y: x._cmp(y) <= 0)
    __gt__ = _operator(lambda x, y: x._cmp(y) > 0)
    __ge__ = _operator(lambda x, y: x._cmp(y) >= 0)

    def __hash__(self):
        # Python's numeric hash, so that Dyadic(3) and 3 hash alike:
        # |m| * 2**e modulo the prime P, 2**e by a modular power (an
        # inverse for e < 0) rather than a shift; hash() itself turns
        # -1 into -2
        h = abs(self.mantissa) % _HASH_P * pow(2, self.exponent, _HASH_P) % _HASH_P
        return -h if self.mantissa < 0 else h

    @property
    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    # -- rounding -----------------------------------------------------

    def round_down(self, bits: int) -> "Dyadic":
        """Largest dyadic <= self representable with ``bits`` precision.

        Precision counts fraction bits below the leading one (floating
        point style), so the error is below one ulp, 2**(e_lead - bits).
        """
        return self._round_bits(bits, up=False)

    def round_up(self, bits: int) -> "Dyadic":
        """Smallest dyadic >= self representable with ``bits`` precision."""
        return self._round_bits(bits, up=True)

    def _round_bits(self, bits: int, up: bool) -> "Dyadic":
        if bits < 1:
            raise ValueError("bits must be >= 1")
        # the grid whose step lies ``bits`` places below the leading one
        k = bits + 1 - abs(self.mantissa).bit_length() - self.exponent
        return self._round_grid(k, up)

    def floor_to_grid(self, k: int) -> "Dyadic":
        """Largest multiple of ``2**-k`` that is <= self."""
        return self._round_grid(k, up=False)

    def ceil_to_grid(self, k: int) -> "Dyadic":
        """Smallest multiple of ``2**-k`` that is >= self."""
        return self._round_grid(k, up=True)

    def _round_grid(self, k: int, up: bool) -> "Dyadic":
        shift = self.exponent + k
        if shift >= 0:
            return self
        return Dyadic(scaled_quotient(self.mantissa, 1, shift, up), -k)


def scaled_quotient(n: int, d: int, s: int, up: bool) -> int:
    """``floor(n * 2**s / d)``, or the ceiling when ``up``, for d != 0:
    the library's one directed rounding.  For d = 1 it is one shift,
    else one shift and one floor division, which rounds toward -infinity
    for every sign; the ceiling is minus the floor of minus n."""
    if d == 1:
        if s >= 0:
            return n << s
        return -((-n) >> -s) if up else n >> -s
    if s >= 0:
        n <<= s
    else:
        d <<= -s
    return -((-n) // d) if up else n // d


# isqrt_rem and isqrt_floor hand radicands of under about 1,800 bits
# (a split of fewer than 450 bits) to math.isqrt.  Timed with CPython
# 3.11 on an x86-64 Xeon, the crossover lay at 1,800 to 2,200 bits, and
# thresholds from 400 to 500 timed alike on radicands of 2,000 to 20,000
# bits.
_ISQRT_SPLIT_MIN = 450


def isqrt_rem(m: int) -> tuple[int, int]:
    """``(s, r)`` with ``s = floor(sqrt(m))`` and ``r = m - s**2`` for
    an int m >= 0: Zimmermann's Karatsuba square root (Brent and
    Zimmermann, Modern Computer Arithmetic, Alg. 1.12 SqrtRem) on bits.

    With l = (n - 1) // 4 for an n-bit m, the root s1 of m >> 2l has at
    least l + 1 bits, so dividing the remainder r1, extended by the next
    l bits of m, by 2 s1 gives a quotient q with (s1 << l) + q the root
    or one more.  The remainder then costs one square q**2 of about l
    bits, and a negative one takes the single correction.  Each level
    divides only for the low quarter of the root's bits, where
    ``math.isqrt`` divides for half of them and then squares its whole
    root."""
    n = m.bit_length()
    l = (n - 1) >> 2
    if l < _ISQRT_SPLIT_MIN:
        s = isqrt(m)
        return s, m - s * s
    s1, r1 = isqrt_rem(m >> 2 * l)
    mask = (1 << l) - 1
    q, u = divmod((r1 << l) | ((m >> l) & mask), s1 << 1)
    s = (s1 << l) + q
    r = (u << l) + (m & mask) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    return s, r


def isqrt_floor(m: int) -> int:
    """``floor(sqrt(m))`` for an int m >= 0: ``isqrt_rem``'s root
    without its remainder, so the top step squares no quotient.

    The top step's s = (s1 << l) + q is one too large iff R < q**2, for
    R = (u << l) | (m & mask).  With h = max(0, len(q) - 64), q lies in
    [qh 2**h, (qh + 1) 2**h) for qh = q >> h, and R in [Rh 4**h,
    (Rh + 1) 4**h) for Rh = R >> 2h: Rh >= (qh + 1)**2 keeps s, and
    Rh < qh**2 takes s - 1.  Only between them, on perfect squares or
    64 agreeing leading bits, is q**2 computed."""
    l = (m.bit_length() - 1) >> 2
    if l < _ISQRT_SPLIT_MIN:
        return isqrt(m)
    s1, r1 = isqrt_rem(m >> 2 * l)
    mask = (1 << l) - 1
    q, u = divmod((r1 << l) | ((m >> l) & mask), s1 << 1)
    s = (s1 << l) + q
    r = (u << l) | (m & mask)
    h = max(0, q.bit_length() - 64)
    qh, rh = q >> h, r >> 2 * h
    if rh >= (qh + 1) ** 2:
        return s
    if rh < qh * qh:
        return s - 1
    return s - (r < q * q)


def div_directed(a: Dyadic, b: Dyadic, k: int, up: bool) -> Dyadic:
    """``a / b`` rounded onto the grid of multiples of ``2**-k``:
    ``ceil(a/b * 2**k) * 2**-k`` when ``up``, else the floor.  The
    divisor must be nonzero."""
    if b.mantissa == 0:
        raise ZeroDivisionError("dyadic division by zero")
    shift = a.exponent - b.exponent + k
    return Dyadic(scaled_quotient(a.mantissa, b.mantissa, shift, up), -k)
