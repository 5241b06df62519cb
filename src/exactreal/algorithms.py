"""Worked algorithms over exact reals.

Maximum, absolute value, real square root and pi (an exact Chudnovsky
sum) as interval primitives, root finding by trisection, and the total
nondeterministic complex square root whose branch-point case is
handled by an invariant-guided refinement limit.  Exact values enter by
``CReal.from_fraction``, and a power of two is a dyadic factor, as in
``x / 2``: one exact ``_scaled`` node.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .creal import (
    CReal,
    ZERO_REAL,
    _binary,
    less_than,
    limit,
    limit_refine,
    refinement_terms,
)
from .dyadic import Dyadic, isqrt_floor, scaled_quotient
from .errors import EffortExhausted
from .interval import Interval, from_ints
from .kleenean import (
    Branch,
    _efforts,
    _select_with_effort,
    current_budget,
    select,
    select_index,
)

# -- maximum and absolute value ---------------------------------------


def real_max(x, y) -> CReal:
    """max(x, y) by precision iteration over the interval maximum, which
    is monotone and no wider than its operands: no choice is made."""
    x, y = CReal._coerce(x), CReal._coerce(y)
    return _binary(x, y, lambda a, b, q: a.maximum(b), "refining a maximum")


def real_abs(x) -> CReal:
    """|x| by precision iteration over the interval absolute value."""
    x = CReal._coerce(x)
    return _binary(x, None, lambda a, _, q: abs(a), "refining an absolute value")


# -- pi ----------------------------------------------------------------


# Chudnovsky: 1/pi = 12 sum_k t_k / 640320**(3/2), where
# t_k = (-1)**k (6k)! (A + Bk) / ((3k)! k!**3 640320**(3k))
_A, _B, _C3_24 = 13591409, 545140134, 640320**3 // 24


def _pqt(a: int, b: int) -> tuple[int, int, int]:
    """Exact binary splitting of the terms a <= k < b (Haible &
    Papanikolaou).  With p(k) = (6k-5)(2k-1)(6k-1), q(k) = k**3
    640320**3 / 24 and p(0) = q(0) = 1, t_k = (-1)**k (A + Bk) times the
    product of p(j)/q(j) over j <= k.  P and Q are the products of p
    and q over [a, b), and T / Q is the sum over [a, b) of (-1)**k
    (A + Bk) prod_{a <= j <= k} p(j)/q(j): over [0, n), t_0 + ... +
    t_(n-1)."""
    if b - a == 1:
        if a == 0:
            return 1, 1, _A
        p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        t = p * (_A + _B * a)
        return p, a * a * a * _C3_24, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _pqt(a, m)
    p2, q2, t2 = _pqt(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _pi_interval(p: int) -> Interval:
    """An interval of width <= 2**-p around pi = 426880 sqrt(10005) / S,
    S = sum_k t_k, from n terms summed exactly as T / Q.  Proof, with
    g = p + 2 and n = (g + 30)//41 + 1, so g <= 41n - 31:

    - |t_k / t_(k-1)| < 24 * 72 (1 + B/A) / 640320**3 < 2**-41, since
      p(k) < 72 k**3.  With t_0 = A < 2**24 the tail |S - T/Q| is below
      2A 2**-41n <= 2**(25-41n), so e = (Q >> (41n-25)) + 1 exceeds
      |S - T/Q| Q, and S Q lies in (T - e, T + e).
    - s = T/Q is within 2A 2**-41 of A, so s > 2**23, and
      eps = e/Q <= 2**(25-41n) + 1/Q < 2 < s: T - e > 0.
    - r = floor(sqrt(10005 4**g)), exact from ``isqrt_floor``, so
      r <= sqrt(10005) 2**g < r + 1, and pi 2**g lies in
      (426880 r Q/(T+e), 426880 (r+1) Q/(T-e)); lo floors the first.
    - The second exceeds the first, which is below lo + 1, by X =
      426880 (s + eps (1+2r)) / (s**2 - eps**2) < 2**-4 (1 + eps
      (1+2r)/s) (1 + 2**-43), as 426880/s < 2**-4.  With 1 + 2r <
      2**(g+8) and Q >= (640320**3/24)**(n-1) > 2**(53(n-1)),
      eps (1+2r)/s < 2**(g+10-41n) + 2**(g-15-53(n-1)) <= 2**-21 +
      2**-5, so X < 1 and pi 2**g < 426880 (r+1) Q/(T-e) < lo + 1 + X
      < lo + 2.  So lo + 2 is an upper end that takes no division, and
      the width is 2**(1-g) < 2**-p.

    No rounding happens inside the sum, so no guard bits grow with n.
    """
    g = p + 2
    n = (g + 30) // 41 + 1
    _, q, t = _pqt(0, n)
    e = (q >> (41 * n - 25)) + 1
    r = isqrt_floor(10005 << 2 * g)
    lo = scaled_quotient(426880 * r * q, t + e, 0, up=False)
    return from_ints(lo, lo + 2, -g)


def real_pi() -> CReal:
    return CReal(_pi_interval)


# -- intermediate value theorem by trisection --------------------------


def ivt_trisect(f: Callable[[CReal], CReal], a, b) -> CReal:
    """The unique zero of ``f`` on [a, b], for exact ends a < b, given
    f(a) < 0 < f(b) or f(a) > 0 > f(b); the first step certifies which,
    and trisects g = -f in the second case by comparing in reverse.

    With g(a) < 0 < g(b), each step moves one bracket end to a
    trisection point a1 < b1 by certifying g(a1) < 0 or 0 < g(b1), so
    the uncomputable comparison of g against 0 is never needed.  The
    hint is the bracket as ints a < b over one denominator d, all three
    grown 16-fold while b - a < 64; the points (a + t)/d and (b - t)/d,
    t = (b - a)//3, are dyadic when the ends are.  Term n takes about
    1.7 (n + log2((b - a)/d)) steps; when n plus the bits of that width
    exceed the budget, ``EffortExhausted`` comes before any step.
    """
    a, b = (CReal.from_fraction(end).value for end in (a, b))
    if not a < b:
        raise ValueError("invalid bracket: need a < b")

    def point(m: int, d: int) -> CReal:
        return CReal.from_fraction(Fraction(m, d))

    def step(n: int, hint):
        a, b, d, effort, sign = hint
        # a bracket about 2**w wide takes about 1.7 w steps more than one 1 wide
        if n + max(0, (b - a).bit_length() - d.bit_length()) > current_budget():
            raise EffortExhausted(current_budget(), f"trisecting to {n} bits")
        if sign is None:
            fa, fb = f(point(a, d)), f(point(b, d))
            rising = less_than(fa, ZERO_REAL) & less_than(ZERO_REAL, fb)
            falling = less_than(ZERO_REAL, fa) & less_than(fb, ZERO_REAL)
            sign = 1 if select(rising, falling) is Branch.LEFT else -1
        lt = less_than if sign > 0 else (lambda u, v: less_than(v, u))
        while (b - a) << n > d:
            while b - a < 64:
                a, b, d = a << 4, b << 4, d << 4
            t = (b - a) // 3
            fa, fb = f(point(a + t, d)), f(point(b - t, d))
            # certification effort grows smoothly with the step count
            winner, effort = _select_with_effort(
                (lt(fa, ZERO_REAL), lt(ZERO_REAL, fb)), max(0, effort - 1)
            )
            if winner == 0:
                a += t
            else:
                b -= t
        return point(a + b, 2 * d), (a, b, d, effort, sign)

    d = a.denominator * b.denominator
    return limit_refine((int(a * d), int(b * d), d, 0, None), step)


# -- real square root --------------------------------------------------


def heron(x, n: int) -> CReal:
    """n-th exact Heron iterate h <- (h + x/h)/2 for sqrt(x), starting
    from 1: within 2**-2**n of the root for x in [0.25, 2]."""
    x, h = CReal._coerce(x), CReal.from_fraction(1)
    for _ in range(n):
        h = (h + x / h) / 2
    return h


def sqrt_restricted(x) -> CReal:
    """The paper's square root restricted to x in [0.25, 2]: the node
    of ``real_sqrt``, whose first working precision meets the width
    there."""
    return real_sqrt(x)


_SCALE_LO = Dyadic(1, -2)
_SCALE_HI = Dyadic(2)


def sqrt_scale(x) -> tuple[int, CReal]:
    """Find z with 4**z * x in [0.25, 2], for x > 0.

    The exponent is found by Archimedean search: evaluate x at
    increasing accuracy until positivity and membership of a scaled
    copy are certified.  Raises ``EffortExhausted`` when x <= 0.
    """
    x = CReal._coerce(x)
    for q in _efforts(2, 2, "scaling into [0.25, 2]"):
        iv = x.approx(q)
        if iv.lo.sign > 0:
            # 4**z pushes hi into (1/2, 2]
            z = (1 - iv.hi.mantissa.bit_length() - iv.hi.exponent) >> 1
            for cand in (z, z + 1, z - 1):
                s = iv.scale2(2 * cand)
                if s.lo >= _SCALE_LO and s.hi <= _SCALE_HI:
                    return cand, x * Fraction(4) ** cand


def real_sqrt(x) -> CReal:
    """sqrt(x) for x >= 0, total including 0, by precision iteration
    over ``Interval.sqrt``: one integer square root per working
    precision q for the lower end, ``isqrt_floor``'s Karatsuba square
    root, which squares no quotient at its top step and hands radicands
    under about 1,800 bits to ``math.isqrt``.  The radicand is clipped
    at 0 and sqrt(hi) - sqrt(lo) <= sqrt(hi - lo), so every x >= 0,
    including a hidden zero, meets the width by q = 2p + 8, one
    doubling past the first try; for x in [0.25, 2] the first try meets
    it.  A radicand certified below zero raises ``EffortExhausted`` at
    once."""
    x = CReal._coerce(x)
    return _binary(x, None, lambda a, _, q: a.sqrt(q), "refining a square root")


# -- complex numbers ---------------------------------------------------


class Complex:
    """A complex number as a pair of exact reals, with the maximum norm."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        object.__setattr__(self, "re", CReal._coerce(re))
        object.__setattr__(self, "im", CReal._coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("Complex values are immutable")

    def __add__(self, other: "Complex") -> "Complex":
        return Complex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Complex") -> "Complex":
        return Complex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Complex":
        return Complex(-self.re, -self.im)

    def __mul__(self, other: "Complex") -> "Complex":
        a, b, c, d = self.re, self.im, other.re, other.im
        return Complex(a * c - b * d, a * d + b * c)

    def norm(self) -> CReal:
        return real_max(real_abs(self.re), real_abs(self.im))


def csqrt_nonzero(z: Complex) -> Complex:
    """A square root of z != 0.

    One of the four sign cases im < 0, im > 0, re < 0, re > 0 is
    certified; each case applies the classical half-angle formula
    driven by the certified sign, so no discontinuous sgn is needed.
    """
    a, b = z.re, z.im
    zero = ZERO_REAL
    case = select_index(
        (less_than(b, zero), less_than(zero, b), less_than(a, zero), less_than(zero, a))
    )
    m = real_sqrt(a * a + b * b)
    if case < 2:  # b < 0 or b > 0: v takes the sign of b
        u = real_sqrt((m + a) / 2)
        v = real_sqrt((m - a) / 2)
        return Complex(u, -v if case == 0 else v)
    if case == 2:  # a < 0: v > 0 is bounded away from zero
        v = real_sqrt((m - a) / 2)
        return Complex(b / (2 * v), v)
    # a > 0: u > 0 is bounded away from zero
    u = real_sqrt((m + a) / 2)
    return Complex(u, b / (2 * u))


def csqrt(z: Complex) -> Complex:
    """A square root of z, total including the branch point z = 0.

    Refinement with an invariant: while |z| < 2**-2(n+2) remains
    certifiable the sequence emits 0; once |z| > 0 is certified a
    concrete root is computed and pinned, so every run converges to a
    single root (never a blend).  All possible output sequences look
    like 0, 0, ..., 0, x, x, ...  The real and imaginary parts are
    limits of the same memoized terms, so both come from that one root.
    """
    nrm = z.norm()
    zero = Complex(0, 0)
    nonzero = less_than(ZERO_REAL, nrm)

    def step(n: int, pinned):
        if pinned is not None:
            return pinned, pinned
        small = less_than(nrm, CReal.from_fraction(Fraction(1, 4 ** (n + 2))))
        if select(small, nonzero) is Branch.LEFT:
            return zero, None
        root = csqrt_nonzero(z)
        return root, root

    term = refinement_terms(None, step)
    return Complex(limit(lambda n: term(n).re), limit(lambda n: term(n).im))
