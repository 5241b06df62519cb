"""Interval arithmetic: containment soundness and outward rounding."""

import time
from fractions import Fraction
from math import ceil, floor, isqrt

import pytest
from hypothesis import example, given, strategies as st

from exactreal import interval as interval_module
from exactreal.dyadic import Dyadic, div_directed
from exactreal.errors import DivisorStraddlesZero, OutsideDomain
from exactreal.interval import Interval


def dyadic(x) -> Dyadic:
    """The exact Dyadic of a dyadic decimal such as 2.25 or "-0.5"."""
    fr = Fraction(str(x))
    den = fr.denominator
    assert not den & (den - 1), f"{x} is not dyadic"
    return Dyadic(fr.numerator, 1 - den.bit_length())


def iv(lo, hi):
    return Interval(dyadic(lo), dyadic(hi))


small_dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(1 << 32), max_value=1 << 32),
    st.integers(min_value=-32, max_value=32),
)


@st.composite
def intervals(draw):
    a = draw(small_dyadics)
    b = draw(small_dyadics)
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_points(draw):
    """An interval together with a dyadic point inside it."""
    box = draw(intervals())
    k = draw(st.integers(min_value=0, max_value=16))
    x = box.lo + (box.hi - box.lo) * Dyadic(k, -4)
    return box, x


def test_constructor_rejects_inverted():
    with pytest.raises(ValueError):
        Interval(Dyadic(1), Dyadic(0))


def test_add_sub_examples():
    assert iv(1, 2) + iv(3, 4) == iv(4, 6)
    assert iv(0, 1) - iv(0, 1) == iv(-1, 1)
    assert iv(-1, 2) + iv(-3, "0.5") == iv(-4, "2.5")


def corner_hull(x, y):
    """The product as the min and max of the four exact corner products."""
    products = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi]
    return Interval(min(products), max(products))


@st.composite
def narrow_intervals(draw):
    """Intervals whose width is far below their magnitude, at mantissa
    lengths the real layer produces."""
    bits = draw(st.integers(min_value=1, max_value=400))
    lo = Dyadic(draw(st.integers(min_value=-(1 << bits), max_value=1 << bits)), -bits)
    ulps = draw(st.integers(min_value=0, max_value=1 << 8))
    hi = lo + Dyadic(ulps, -bits - draw(st.integers(min_value=0, max_value=64)))
    return Interval(lo, hi)


signed_intervals = st.one_of(intervals(), narrow_intervals())


@given(signed_intervals, signed_intervals)
@example(iv(0, 0), iv(0, 0))
@example(iv(-1, 0), iv(-1, 0))
@example(iv(0, 1), iv(-1, 0))
@example(iv(-3, -2), iv("0.5", 7))
@example(iv(-2, 3), iv(-5, "0.25"))
@example(iv("0.001953125", 1024), iv("1.5", "1.75"))
@example(iv("-1.75", "-1.5"), iv(-1024, "-0.001953125"))
@example(iv(0, 1), iv("1.5", "1.75"))
def test_mul_equals_corner_hull(x, y):
    assert x * y == corner_hull(x, y)
    assert y * x == corner_hull(x, y)


@pytest.mark.parametrize("sx", [1, -1])
@pytest.mark.parametrize("sy", [1, -1])
def test_mul_of_narrow_operands_makes_no_dyadic_product(sx, sy, monkeypatch):
    # narrow operands of one sign each multiply as magnitudes on the
    # aligned integers: no Dyadic product, and no corner hull
    x = iv("1.5", "1.75") if sx > 0 else iv("-1.75", "-1.5")
    y = iv(3, 5) if sy > 0 else iv(-5, -3)
    expected = corner_hull(x, y)
    dyadic_mul = Dyadic.__mul__
    corners = interval_module._corner_hull
    calls = []

    def counted_dyadic(a, b):
        calls.append("dyadic")
        return dyadic_mul(a, b)

    def counted_corners(*ends):
        calls.append("corners")
        return corners(*ends)

    monkeypatch.setattr(Dyadic, "__mul__", counted_dyadic)
    monkeypatch.setattr(interval_module, "_corner_hull", counted_corners)
    assert x * y == expected
    assert calls == []
    iv(-1, 1) * y  # an operand straddles zero: the corner path
    assert calls == ["corners"]


@pytest.mark.parametrize(
    "y",
    [
        Interval(Dyadic(1, -100_000), Dyadic(1, 100_000)),
        Interval(Dyadic((1 << 10_000) + 1, -10_000), Dyadic((1 << 10_000) + 3, -10_000)),
    ],
    ids=["squared", "times-narrow-10k"],
)
def test_mul_of_a_wide_interval_is_cheap(y):
    # ends 2**200000 apart share one exponent, so x holds a 200,000-bit
    # upper end: this bounds building such an interval and one product
    # of its aligned ends
    start = time.perf_counter()
    x = Interval(Dyadic(1, -100_000), Dyadic(1, 100_000))
    product = x * y
    assert time.perf_counter() - start < 0.25
    assert product == corner_hull(x, y)


def test_mul_examples():
    assert iv(-1, 2) * iv(3, 4) == iv(-4, 8)
    assert iv(0, 0) * iv(-7, 5) == iv(0, 0)
    assert iv(1, 1) * iv(1, 1) == iv(1, 1)


def test_queries():
    assert iv(1, 3).width() == Dyadic(2)
    assert iv(0, 1).contains(Dyadic(1, -1))
    assert not iv(0, 1).contains(Dyadic(3))
    assert iv(-1, 1).straddles_zero()
    assert not iv(1, 2).straddles_zero()
    assert iv(1, 2).midpoint() == Dyadic(3, -1)


def test_div_examples():
    assert iv(1, 1).div(iv(2, 2), 10) == iv("0.5", "0.5")
    third = iv(1, 1).div(iv(3, 3), 10)
    assert third.width() <= Dyadic(1, -9)
    assert third.lo.to_fraction() <= Fraction(1, 3) <= third.hi.to_fraction()
    with pytest.raises(DivisorStraddlesZero):
        iv(1, 2).div(iv(-1, 1), 10)


def test_round_out_example():
    assert iv("2.25", "2.25").round_out(2) == iv("2.0", "2.5")


@given(intervals(), st.integers(min_value=1, max_value=30))
def test_round_out_is_superset(box, p):
    assert box.round_out(p).contains_interval(box)


@given(intervals(), st.integers(min_value=-30, max_value=30))
def test_round_out_grid_is_superset(box, k):
    out = box.round_out_grid(k)
    assert out.contains_interval(box)
    assert out.width() <= box.width() + Dyadic(1, -k + 1)


@given(interval_points(), interval_points())
def test_soundness_add_sub_mul(ap, bp):
    a, x = ap
    b, y = bp
    fx, fy = x.to_fraction(), y.to_fraction()
    for op, exact in (
        (a + b, fx + fy),
        (a - b, fx - fy),
        (a * b, fx * fy),
        (-a, -fx),
    ):
        assert op.lo.to_fraction() <= exact <= op.hi.to_fraction()


@given(interval_points(), interval_points(), st.integers(min_value=8, max_value=50))
def test_soundness_div(ap, bp, k):
    a, x = ap
    b, y = bp
    if b.straddles_zero():
        return
    q = a.div(b, k)
    exact = x.to_fraction() / y.to_fraction()
    assert q.lo.to_fraction() <= exact <= q.hi.to_fraction()


@given(intervals(), intervals(), st.integers(min_value=-20, max_value=80))
def test_div_is_the_exact_hull_plus_two_grid_steps(a, b, k):
    """The quotient holds every corner quotient and is at most
    2**-(k-1) wider than their exact hull: each end rounds outward by
    less than one step of the 2**-k grid."""
    if b.straddles_zero():
        return
    q = a.div(b, k)
    corners = [
        x.to_fraction() / y.to_fraction() for x in (a.lo, a.hi) for y in (b.lo, b.hi)
    ]
    lo, hi = q.lo.to_fraction(), q.hi.to_fraction()
    assert lo <= min(corners) and max(corners) <= hi
    assert hi - lo <= max(corners) - min(corners) + Fraction(2) ** (1 - k)


def test_div_across_a_large_exponent_gap():
    tiny = Interval.point(Dyadic(1, -100_000))
    start = time.perf_counter()
    q = tiny.div(iv(3, 3), 10)
    assert time.perf_counter() - start < 0.05
    assert q == Interval(Dyadic(0), Dyadic(1, -10))


@given(intervals(), intervals(), small_dyadics, small_dyadics)
def test_monotonicity(a, b, pad_a, pad_b):
    wider_a = a.widen(abs(pad_a))
    wider_b = b.widen(abs(pad_b))
    assert (wider_a + wider_b).contains_interval(a + b)
    assert (wider_a - wider_b).contains_interval(a - b)
    assert (wider_a * wider_b).contains_interval(a * b)


@given(intervals(), small_dyadics, st.integers(min_value=0, max_value=60))
@example(iv(1, 2), Dyadic(1), 0)
@example(iv(4, 5), Dyadic(2), 0)
@example(iv("4.5", "4.5"), Dyadic(1, -1), 3)  # same floor root, 1/8 grid
def test_sqrt_monotone(a, pad, k):
    # The lower end is monotone: a wider interval's root starts no higher.
    # The upper end is not: a subinterval may take the tangent bound while
    # the wider interval takes the tighter ceiling isqrt ([1, 2] gives
    # [1, 3], [0, 3] gives [0, 2]).  What holds there is soundness: the
    # wider root still covers the square roots of the subinterval.
    if a.hi.sign < 0:
        return
    wider = a.widen(abs(pad))
    root, wider_root = a.sqrt(k), wider.sqrt(k)
    assert wider_root.lo <= root.lo
    assert wider_root.hi * wider_root.hi >= a.hi


@pytest.mark.parametrize("k", [0, 1, 7, 64, 1000])
def test_sqrt_exact_squares(k):
    step = Dyadic(1, -k)
    for box, lo, hi in (
        (iv(4, 9), 2, 3),
        (iv(4, 4), 2, 2),
        (iv("0.25", "2.25"), "0.5", "1.5"),
        (iv(-1, 9), 0, 3),
        (iv(0, 0), 0, 0),
    ):
        root = box.sqrt(k)
        assert root.contains_interval(iv(lo, hi))
        assert root.lo >= dyadic(lo) - 2 * step
        assert root.hi <= dyadic(hi) + 2 * step


@given(st.integers(0, 3), st.integers(3, 2**2000), st.integers(-1, 1), st.integers(0, 80))
@example(0, 3, 0, 0)  # 9: a perfect square
@example(0, 2**1000, 0, 5)  # a square past the Karatsuba split
@example(0, 3, -1, 0)  # 8
def test_sqrt_fallback_upper_end_is_the_ceiling_root(a, t, delta, k):
    """n_lo = a and n_hi = t**2 + delta on the 4**-k grid: with r at most
    1 and n_hi at least three steps above n_lo, the tangent is refused,
    and the upper end is exactly the ceiling root of n_hi."""
    n_hi = t * t + delta
    root = interval_module.from_ints(a, n_hi, -2 * k).sqrt(k)
    s = isqrt(n_hi)
    assert root.hi == Dyadic(s + (s * s < n_hi), -k)
    assert root.lo == Dyadic(isqrt(a), -k)
    assert interval_module.from_ints(0, 0, -2 * k).sqrt(k) == iv(0, 0)


def test_sqrt_of_negative_interval_raises():
    with pytest.raises(OutsideDomain):
        iv(-2, -1).sqrt(10)


@given(intervals(), intervals())
def test_intersect_of_overlapping(a, b):
    if a.hi < b.lo or b.hi < a.lo:
        return
    both = a.intersect(b)
    assert a.contains_interval(both) and b.contains_interval(both)


def test_abs():
    assert abs(iv(-3, -1)) == iv(1, 3)
    assert abs(iv(1, 3)) == iv(1, 3)
    assert abs(iv(-2, 3)) == iv(0, 3)


@pytest.mark.parametrize("k", [1, 8, 33, 200])
def test_div_sign_cases_match_corner_hull(k, monkeypatch):
    """Every numerator sign pattern against both divisor signs: the two
    sign-picked corner quotients equal the rounded hull of all four."""
    values = [Dyadic(-7, -1), Dyadic(-1, -3), Dyadic(0), Dyadic(5, -2), Dyadic(11)]
    numerators = [Interval(lo, hi) for lo in values for hi in values if lo <= hi]
    divisors = [iv(3, 3), iv("0.125", 5), iv(2, 7), -iv(3, 3), -iv("0.125", 5)]
    quotient = interval_module.scaled_quotient
    calls = []

    def counted(n, d, s, up):
        calls.append(up)
        return quotient(n, d, s, up)

    monkeypatch.setattr(interval_module, "scaled_quotient", counted)
    for num in numerators:
        for den in divisors:
            corners = [(x, y) for x in (num.lo, num.hi) for y in (den.lo, den.hi)]
            hull = Interval(
                min(div_directed(x, y, k, up=False) for x, y in corners),
                max(div_directed(x, y, k, up=True) for x, y in corners),
            )
            calls.clear()
            assert num.div(den, k) == hull
            assert sorted(calls) == [False, True]


def ends(box):
    """The ends of an interval as exact Fractions."""
    return box.lo.to_fraction(), box.hi.to_fraction()


# -- representation: (a, b, e), with lo and hi as canonical views -------


def test_equality_by_value_across_exponents():
    one_two = Interval(Dyadic(1), Dyadic(2))
    step = Interval.point(Dyadic(1, -40))
    on_grid = (one_two + step) - step  # [2**40, 2**41] * 2**-40
    assert (one_two.e, on_grid.e) == (0, -40)
    assert on_grid == one_two and one_two == on_grid
    assert on_grid != Interval(Dyadic(1), Dyadic(3))
    assert on_grid != Interval(Dyadic(0), Dyadic(2))
    assert on_grid.scale2(-1) == Interval(Dyadic(1, -1), Dyadic(1))
    assert on_grid != (1, 2)


def test_a_zero_end_forces_no_shift():
    # the ends align on the exponent of the nonzero end
    up = Interval(Dyadic(0), Dyadic(1, 100_000))
    down = Interval(Dyadic(-1, -100_000), Dyadic(0))
    assert (up.a, up.b, up.e) == (0, 1, 100_000)
    assert (down.a, down.b, down.e) == (-1, 0, -100_000)
    zero = Interval.point(Dyadic(0))
    assert (zero.a, zero.b, zero.e) == (0, 0, 0)


def canonical(d):
    """Odd mantissa, or zero written as 0 * 2**0."""
    return d.mantissa & 1 == 1 or (d.mantissa, d.exponent) == (0, 0)


@given(intervals(), intervals(), st.integers(min_value=-40, max_value=40))
@example(iv(0, 0), iv(0, 0), 0)
@example(
    Interval(Dyadic(0), Dyadic(1, 100_000)),
    Interval(Dyadic(-1, -100_000), Dyadic(0)),
    3,
)
@example(
    Interval(Dyadic(1, -100_000), Dyadic(1, 100_000)),
    Interval(Dyadic(-3, 100_000), Dyadic(5, -100_000)),
    -7,
)
def test_views_are_canonical_and_round_trip(x, y, k):
    for box in (x, y, x + y, x - y, x * y, abs(x), x.maximum(y), x.round_out_grid(k)):
        lo, hi = box.lo, box.hi
        assert canonical(lo) and canonical(hi)
        again = Interval(lo, hi)
        assert again == box
        assert (again.lo.mantissa, again.lo.exponent) == (lo.mantissa, lo.exponent)
        assert (again.hi.mantissa, again.hi.exponent) == (hi.mantissa, hi.exponent)


def test_immutable():
    box = iv(1, 2)
    for name in ("a", "b", "e", "lo", "hi"):
        with pytest.raises(AttributeError):
            setattr(box, name, 0)
    other = iv(-3, 5)
    for result in (box + other, box * other, -box, box.scale2(3), box.div(iv(3, 7), 8)):
        assert result is not box
    assert (box.a, box.b, box.e) == (1, 2, 0) and box == iv(1, 2)
    assert other == iv(-3, 5)


# -- the remaining operations against exact Fractions ------------------


@given(intervals())
def test_midpoint_exact(box):
    lo, hi = ends(box)
    assert box.midpoint().to_fraction() == (lo + hi) / 2


@given(intervals(), st.integers(min_value=-40, max_value=40))
def test_round_out_grid_exact(box, k):
    lo, hi = ends(box)
    step = Fraction(2) ** -k
    out_lo, out_hi = ends(box.round_out_grid(k))
    assert out_lo == floor(lo / step) * step
    assert out_hi == ceil(hi / step) * step


@given(intervals(), st.integers(min_value=-100, max_value=100))
def test_scale2_exact(box, k):
    lo, hi = ends(box)
    assert ends(box.scale2(k)) == (lo * Fraction(2) ** k, hi * Fraction(2) ** k)


@given(intervals())
def test_abs_exact(box):
    lo, hi = ends(box)
    if lo >= 0:
        expected = (lo, hi)
    elif hi <= 0:
        expected = (-hi, -lo)
    else:
        expected = (Fraction(0), max(-lo, hi))
    assert ends(abs(box)) == expected


@given(intervals(), small_dyadics)
def test_widen_exact(box, pad):
    pad = abs(pad)
    lo, hi = ends(box)
    p = pad.to_fraction()
    assert ends(box.widen(pad)) == (lo - p, hi + p)


def test_widen_rejects_a_negative_pad():
    with pytest.raises(ValueError):
        iv(0, 1).widen(Dyadic(-1))


@given(intervals(), intervals())
def test_intersect_exact(x, y):
    (a, b), (c, d) = ends(x), ends(y)
    if max(a, c) > min(b, d):
        with pytest.raises(ValueError):
            x.intersect(y)
    else:
        assert ends(x.intersect(y)) == (max(a, c), min(b, d))


@given(intervals(), intervals())
def test_maximum_and_precedes_exact(x, y):
    (a, b), (c, d) = ends(x), ends(y)
    assert ends(x.maximum(y)) == (max(a, c), max(b, d))
    assert x.precedes(y) == (b < c)


@given(intervals(), st.integers(min_value=-40, max_value=80))
@example(iv(0, 1), 0)  # widths of exactly 2**-n
@example(iv(1, "1.25"), 2)
@example(iv(-4, 4), -3)
@example(iv(3, 3), 80)
def test_width_at_most_exact(box, n):
    lo, hi = ends(box)
    assert box.width_at_most(n) == (hi - lo <= Fraction(2) ** -n)
    assert box.width_at_most(n) == (box.width() <= Dyadic(1, -n))


def test_repr_of_a_20k_bit_interval():
    # endpoints far past the interpreter's 4,300-digit int-to-str limit
    lo = Dyadic((1 << 20_000) + 1, -20_000)
    hi = lo + Dyadic(1, -20_000)
    text = repr(Interval(lo, hi))
    assert text == f"[{lo.to_decimal_string()}, {hi.to_decimal_string()}]"
    assert text.startswith("[1.0000") and len(text) > 2 * 20_000
