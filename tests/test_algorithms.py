"""max, pi, trisection root finding, and real/complex square roots."""

from fractions import Fraction
from math import inf, isqrt
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from exactreal import algorithms
from exactreal.algorithms import (
    Complex,
    csqrt,
    csqrt_nonzero,
    heron,
    ivt_trisect,
    real_abs,
    real_max,
    real_pi,
    real_sqrt,
    sqrt_restricted,
    sqrt_scale,
    _sqrt_accuracy,
)
from exactreal.creal import CReal, refinement_terms, to_decimal
from exactreal.dyadic import Dyadic
from exactreal.errors import EffortExhausted
from exactreal.interval import Interval


def in_interval(iv: Interval, value: Fraction) -> bool:
    return iv.lo.to_fraction() <= value <= iv.hi.to_fraction()


def sqrt_oracle(x: Fraction, prec: int) -> Fraction:
    """floor(sqrt(x) * 2**prec) / 2**prec via integer square root."""
    n = x.numerator << (2 * prec)
    return Fraction(isqrt(n // x.denominator), 1 << prec)


class TestMax:
    def test_certified_orderings(self):
        iv = real_max(1, 2).approx(20)
        assert in_interval(iv, Fraction(2))
        iv = real_max(CReal.from_fraction(Fraction(-1, 3)), 0).approx(20)
        assert in_interval(iv, Fraction(0))

    def test_max_with_itself(self):
        x = CReal.from_fraction(Fraction(1, 3))
        assert in_interval(real_max(x, x).approx(50), Fraction(1, 3))

    def test_commutative_within_tolerance(self):
        x = CReal.from_fraction(Fraction(2, 7))
        y = CReal.from_fraction(Fraction(3, 7))
        a = real_max(x, y).approx(40)
        b = real_max(y, x).approx(40)
        assert in_interval(a, Fraction(3, 7)) and in_interval(b, Fraction(3, 7))

    def test_abs(self):
        assert in_interval(real_abs(0).approx(30), Fraction(0))
        assert in_interval(real_abs(-3).approx(30), Fraction(3))
        x = CReal.from_fraction(Fraction(1, 3)) - CReal.from_fraction(Fraction(1, 2))
        assert in_interval(real_abs(x).approx(40), Fraction(1, 6))


class TestPi:
    def test_ten_digits(self):
        assert to_decimal(real_pi(), 10) in ("3.1415926535", "3.1415926536")

    def test_against_mpmath(self):
        mpmath.mp.dps = 120
        oracle = Fraction(mpmath.nstr(+mpmath.pi, 100, strip_zeros=False))
        iv = real_pi().approx(300)
        assert abs(iv.midpoint().to_fraction() - oracle) <= Fraction(1, 1 << 290)

    def test_coarse_interval(self):
        box = Interval(Dyadic(3), Dyadic(13, -2))  # [3, 3.25]
        assert box.contains_interval(real_pi().approx(2))

    def test_cancellation(self):
        iv = (real_pi() - real_pi()).approx(200)
        assert in_interval(iv, Fraction(0))
        assert iv.width() <= Dyadic(1, -200)


class TestTrisection:
    def test_linear(self):
        root = ivt_trisect(lambda x: x - Fraction(1, 2), 0, 1)
        iv = root.approx(100)
        assert in_interval(iv, Fraction(1, 2))
        assert iv.width() <= Dyadic(1, -100)

    def test_quadratic(self):
        root = ivt_trisect(lambda x: x * (2 - x) - Fraction(1, 2), 0, 1)
        mid = root.approx(100).midpoint().to_fraction()
        oracle = 1 - sqrt_oracle(Fraction(1, 2), 110)  # 1 - sqrt(2)/2
        assert abs(mid - oracle) <= Fraction(1, 1 << 99)

    def test_through_sqrt(self):
        root = ivt_trisect(
            lambda x: real_sqrt(x + Fraction(1, 2)) - 1, 0, 1
        )
        assert in_interval(root.approx(80), Fraction(1, 2))

    def test_decreasing_function(self):
        # f(0) > 0 > f(1): the first step certifies this orientation
        root = ivt_trisect(lambda x: Fraction(1, 2) - x, 0, 1)
        iv = root.approx(60)
        assert in_interval(iv, Fraction(1, 2))
        assert iv.width() <= Dyadic(1, -60)

    def test_invalid_bracket_order(self):
        with pytest.raises(ValueError):
            ivt_trisect(lambda x: x, 1, 0)

    def test_bad_bracket_exhausts_budget(self):
        # f(0) = 1 > 0: no sign change, neither certificate can fire
        with pytest.raises(EffortExhausted):
            ivt_trisect(lambda x: x + 1, 0, 1, budget=128).approx(10)


class TestHeron:
    def test_base_case(self):
        for x in (Fraction(1, 4), Fraction(1), Fraction(2)):
            assert heron(CReal.from_fraction(x), 0).approx(20) == Interval.point(
                Dyadic(1)
            )

    def test_fixed_point_at_one(self):
        for n in range(4):
            assert in_interval(heron(1, n).approx(50), Fraction(1))

    def test_first_iterate_for_two(self):
        assert in_interval(heron(2, 1).approx(50), Fraction(3, 2))

    @pytest.mark.parametrize(
        "x", [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    )
    def test_quadratic_convergence(self, x):
        root = sqrt_oracle(x, 40)
        for n in range(5):
            mid = heron(CReal.from_fraction(x), n).approx(40).midpoint().to_fraction()
            bound = Fraction(1, 1 << (1 << n)) + Fraction(1, 1 << 36)
            assert abs(mid - root) <= bound


class TestRealSqrt:
    def test_restricted_endpoints(self):
        assert in_interval(sqrt_restricted(1).approx(60), Fraction(1))
        assert in_interval(
            sqrt_restricted(Dyadic(1, -2)).approx(60), Fraction(1, 2)
        )

    def test_restricted_sqrt2(self):
        mid = sqrt_restricted(2).approx(60).midpoint().to_fraction()
        assert abs(mid - sqrt_oracle(Fraction(2), 80)) <= Fraction(1, 1 << 59)

    def test_scale_examples(self):
        z, _ = sqrt_scale(1)
        assert z == 0
        z, _ = sqrt_scale(8)
        assert z in (-1, -2)
        z, _ = sqrt_scale(Dyadic(1, -10))
        assert z in (4, 5)

    @pytest.mark.parametrize(
        "x", [Fraction(3), Fraction(1000), Fraction(1, 7), Fraction(5, 3)]
    )
    def test_scale_lands_in_range(self, x):
        z, scaled = sqrt_scale(CReal.from_fraction(x))
        value = x * Fraction(4) ** z
        assert Fraction(1, 4) <= value <= 2
        assert in_interval(scaled.approx(30), value)

    def test_scale_rejects_zero(self):
        with pytest.raises(EffortExhausted):
            sqrt_scale(0, budget=256)

    def test_sqrt_of_zero(self):
        iv = real_sqrt(0).approx(60)
        assert in_interval(iv, Fraction(0))
        assert iv.width() <= Dyadic(1, -60)

    def test_sqrt_of_four(self):
        assert in_interval(real_sqrt(4).approx(60), Fraction(2))

    def test_sqrt_of_two(self):
        mid = real_sqrt(2).approx(120).midpoint().to_fraction()
        assert abs(mid - sqrt_oracle(Fraction(2), 140)) <= Fraction(1, 1 << 119)

    def test_sqrt_of_tiny(self):
        x = CReal.from_dyadic(Dyadic(1, -64))
        assert in_interval(real_sqrt(x).approx(80), Fraction(1, 1 << 32))

    def test_sqrt_of_negative_exhausts_budget(self):
        with pytest.raises(EffortExhausted):
            real_sqrt(-1, budget=256).approx(10)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(9), Fraction(49, 4)])
    def test_squaring(self, x):
        r = real_sqrt(CReal.from_fraction(x))
        iv = (r * r).approx(100)
        assert in_interval(iv, x)


def within(t: Fraction, x: Fraction, a) -> bool:
    """|t - sqrt(x)| <= 2**-a, decided exactly by squares."""
    if a == inf:
        return t * t == x
    if a == -inf:
        return True
    eps = Fraction(2) ** -a
    lower = t - eps
    return (lower <= 0 or lower * lower <= x) and x <= (t + eps) ** 2


# accuracies next to the doubling points 2**k, where the steps' chain
# of target precisions turns
STRADDLING = sorted({2**k + d for k in range(1, 12) for d in (-1, 0, 1)} | {4000})

dyadics = st.builds(Dyadic, st.integers(-(2**80), 2**80), st.integers(-120, 20))


class TestNewtonSqrt:
    """sqrt_restricted's terms are dyadic points from precision-doubling
    Newton steps, each certified after the fact by t**2 - x."""

    def record(self, monkeypatch):
        """Count interval divisions and record the Newton steps' working
        precisions."""
        seen = {"divisions": 0, "precisions": []}
        div, point = Interval.div, algorithms._heron_point

        def counted_div(self, other, bits):
            seen["divisions"] += 1
            return div(self, other, bits)

        def recorded_point(xs, t, w):
            seen["precisions"].append(w)
            return point(xs, t, w)

        monkeypatch.setattr(Interval, "div", counted_div)
        monkeypatch.setattr(algorithms, "_heron_point", recorded_point)
        return seen

    def test_sqrt2_steps_double_precision(self, monkeypatch):
        seen = self.record(monkeypatch)
        iv = real_sqrt(2).approx(10_000)
        assert iv.width() <= Dyadic(1, -10_000)
        assert in_interval(iv.widen(Dyadic(1, -10_000)), sqrt_oracle(Fraction(2), 10_000))
        assert seen["divisions"] == 0
        # about two full-precision steps in all, not one per iterate
        assert sum(seen["precisions"]) <= 2.5 * 10_000

    def test_sqrt_sqrt2_steps_double_precision(self, monkeypatch):
        seen = self.record(monkeypatch)
        iv = real_sqrt(real_sqrt(2)).approx(10_000)
        assert iv.lo * iv.lo * iv.lo * iv.lo <= Dyadic(2) <= iv.hi * iv.hi * iv.hi * iv.hi
        assert seen["divisions"] == 0
        # two square roots, each within the bound of one
        assert sum(seen["precisions"]) <= 2 * 2.5 * 10_000

    @settings(deadline=None, max_examples=40)
    @given(
        x=st.sampled_from([Fraction(1, 4), Fraction(2)])
        | st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=10**9),
        indices=st.lists(
            st.sampled_from(STRADDLING) | st.integers(1, 4000), min_size=1, max_size=6
        ),
        data=st.data(),
    )
    def test_terms_certified_in_any_order(self, x, indices, data):
        # a non-dyadic x arrives as intervals, a dyadic one as a point
        order = data.draw(st.permutations(indices))
        # refinement_terms in place of limit_refine hands back the terms
        with mock.patch.object(algorithms, "limit_refine", refinement_terms):
            term = sqrt_restricted(CReal.from_fraction(x))
        for n in order:
            iv = term(n).approx(0)
            assert iv.lo == iv.hi
            assert within(iv.lo.to_fraction(), x, n)

    @given(t=dyadics, lo=dyadics, hi=dyadics)
    def test_accuracy_bound_holds_for_any_point(self, t, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        assume(t.sign > 0 and hi.sign >= 0)
        a = _sqrt_accuracy(t, Interval(lo, hi))
        tf = t.to_fraction()
        # |t - sqrt(x)| is largest at an end of the interval
        for x in (max(lo, Dyadic(0)), hi):
            assert within(tf, x.to_fraction(), a)

    def test_accuracy_bound_is_tight(self):
        # t = 3/2 for x = 2: |t - sqrt(2)| = 0.0858, so a = 3
        assert _sqrt_accuracy(Dyadic(3, -1), Interval.point(Dyadic(2))) == 3
        assert _sqrt_accuracy(Dyadic(3, -1), Interval.point(Dyadic(9, -2))) == inf
        assert _sqrt_accuracy(Dyadic(0), Interval.point(Dyadic(2))) == -inf

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 1000), Fraction(100)])
    def test_outside_the_scaled_range(self, x):
        # slower linear steps at first, but every term stays certified
        iv = sqrt_restricted(CReal.from_fraction(x)).approx(200)
        assert iv.width() <= Dyadic(1, -200)
        root = sqrt_oracle(x, 220)
        assert in_interval(iv.widen(Dyadic(1, -219)), root)

    def test_budget_caps_working_precision(self):
        with pytest.raises(EffortExhausted):
            sqrt_restricted(2, budget=64).approx(100)
        assert in_interval(sqrt_restricted(4, budget=64).approx(40), Fraction(2))

    def test_negative_exhausts_budget(self):
        # no step certifies a gain, so the working precision doubles to the budget
        with pytest.raises(EffortExhausted):
            sqrt_restricted(-1, budget=4096).approx(10)


class TestComplex:
    def test_product_of_conjugates(self):
        z = Complex(1, 1) * Complex(1, -1)
        assert in_interval(z.re.approx(30), Fraction(2))
        assert in_interval(z.im.approx(30), Fraction(0))

    def test_i_squared(self):
        z = Complex(0, 1) * Complex(0, 1)
        assert in_interval(z.re.approx(30), Fraction(-1))
        assert in_interval(z.im.approx(30), Fraction(0))

    def test_maximum_norm(self):
        assert in_interval(Complex(3, 4).norm().approx(30), Fraction(4))
        assert in_interval(Complex(-5, 2).norm().approx(30), Fraction(5))

    def test_add_sub_neg(self):
        z = Complex(2, -3) + Complex(-1, 1) - Complex(1, 0)
        assert in_interval(z.re.approx(30), Fraction(0))
        assert in_interval(z.im.approx(30), Fraction(-2))
        w = -Complex(2, -3)
        assert in_interval(w.im.approx(30), Fraction(3))


def assert_squares_to(w: Complex, re: Fraction, im: Fraction, p: int):
    sq = w * w
    iv_re = sq.re.approx(p + 2)
    iv_im = sq.im.approx(p + 2)
    slack = Fraction(1, 1 << p)
    assert abs(iv_re.midpoint().to_fraction() - re) <= slack
    assert abs(iv_im.midpoint().to_fraction() - im) <= slack


class TestComplexSqrt:
    @pytest.mark.parametrize(
        "re,im",
        [
            (Fraction(0), Fraction(2)),  # 2i, roots +-(1+i)
            (Fraction(-1), Fraction(0)),  # roots +-i
            (Fraction(4), Fraction(0)),  # roots +-2
            (Fraction(3), Fraction(4)),
            (Fraction(0), Fraction(-2)),
            (Fraction(-3), Fraction(-4)),
        ],
    )
    def test_nonzero_cases(self, re, im):
        w = csqrt_nonzero(Complex(CReal.from_fraction(re), CReal.from_fraction(im)))
        assert_squares_to(w, re, im, 100)

    def test_nonzero_rejects_origin(self):
        with pytest.raises(EffortExhausted):
            csqrt_nonzero(Complex(0, 0), budget=256)

    def test_total_at_branch_point(self):
        w = csqrt(Complex(0, 0))
        iv = w.re.approx(100)
        assert in_interval(iv, Fraction(0)) and iv.width() <= Dyadic(1, -100)
        assert in_interval(w.im.approx(100), Fraction(0))

    def test_total_near_branch_point(self):
        tiny = Fraction(1, 1 << 40)
        w = csqrt(Complex(CReal.from_fraction(tiny), CReal.from_fraction(tiny)))
        assert_squares_to(w, tiny, tiny, 100)

    def test_total_generic(self):
        w = csqrt(Complex(3, 4))
        assert_squares_to(w, Fraction(3), Fraction(4), 100)
