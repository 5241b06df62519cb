"""max, pi, trisection root finding, and real/complex square roots."""

import time
from fractions import Fraction
from math import isqrt
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

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
)
from exactreal import (
    algorithms as algorithms_module,
    creal as creal_module,
    dyadic as dyadic_module,
    interval as interval_module,
)
from exactreal.creal import CReal, to_decimal
from exactreal.dyadic import Dyadic
from exactreal.errors import EffortExhausted
from exactreal.interval import Interval
from exactreal.kleenean import DEFAULT_BUDGET, effort_budget


THIRD = Fraction(1, 3)


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


# every accuracy to 600 bits, the last and first accuracy of each term
# count n of the series (n steps up at p = 41k - 32), and 2**k +- 1
PI_ACCURACIES = sorted(
    set(range(601))
    | {41 * k - 32 + d for k in range(1, 101) for d in (-1, 0)}
    | {2**k + d for k in range(9, 13) for d in (-1, 1)}
)
# sizes where the upper end lo + 2 rests on the docstring's bound on X
# rather than on a scan: the first accuracy of a term count near 400
# and two past 2**16
LARGE_PI_ACCURACIES = [2**14 - 1, 2**14 + 1, 41 * 400 - 32, 2**17 + 1, 100_000]


class TestPi:
    @pytest.mark.parametrize("p", PI_ACCURACIES + LARGE_PI_ACCURACIES)
    def test_interval_contains_pi_and_is_narrow(self, p):
        mpmath.mp.prec = p + 64
        man, exp = (+mpmath.pi).man_exp
        # pi lies within an ulp, 2**(2 - prec), of the oracle
        oracle, slack = Fraction(man) * Fraction(2) ** exp, Fraction(1, 1 << (p + 62))
        iv = algorithms_module._pi_interval(p)
        assert iv.lo.to_fraction() <= oracle - slack
        assert oracle + slack <= iv.hi.to_fraction()
        assert iv.width() <= Dyadic(1, -p)

    @pytest.mark.parametrize("p", [0, 600, 2**14 + 1])
    def test_one_division_and_one_root_per_accuracy(self, monkeypatch, p):
        # the upper end is lo + 2, from the docstring's bound: not divided
        calls = []

        def counted(name):
            original = getattr(algorithms_module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(algorithms_module, name, call)

        counted("scaled_quotient")
        counted("isqrt_floor")
        iv = algorithms_module._pi_interval(p)
        assert sorted(calls) == ["isqrt_floor", "scaled_quotient"]
        assert iv.b - iv.a == 2 and iv.e == -(p + 2)

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

    def test_hidden_zero_divisor_exhausts_the_budget(self):
        # pi makes no budget check of its own: the error names the budget
        start = time.perf_counter()
        with effort_budget(1 << 17), pytest.raises(EffortExhausted) as err:
            (1 / (real_pi() - real_pi())).approx(10)
        assert time.perf_counter() - start < 10
        assert err.value.budget == 131072
        assert "131072" in str(err.value) and "pi" not in str(err.value)


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

    @pytest.mark.parametrize(
        "a, b, named", [(0.1, "0.9", "float"), (Fraction(1, 10), "0.9", "str")]
    )
    def test_inexact_bracket_end_is_refused(self, a, b, named):
        with pytest.raises(TypeError, match=named):
            ivt_trisect(lambda x: x - Fraction(1, 2), a, b)

    def test_dyadic_bracket_end(self):
        root = ivt_trisect(lambda x: x - Fraction(1, 2), Dyadic(0), 1)
        assert in_interval(root.approx(100), Fraction(1, 2))

    def test_bad_bracket_exhausts_budget(self):
        # f(0) = 1 > 0: no sign change, neither certificate can fire
        with effort_budget(128), pytest.raises(EffortExhausted):
            ivt_trisect(lambda x: x + 1, 0, 1).approx(10)

    def test_accuracy_above_budget_names_the_budget(self):
        root = ivt_trisect(lambda x: x - Fraction(1, 2), 0, 1)
        with effort_budget(1 << 16), pytest.raises(EffortExhausted) as err:
            root.approx(1 << 20)
        assert err.value.budget == 1 << 16
        assert "effort budget 65536 exhausted" in str(err.value)

    @pytest.mark.parametrize("budget", [64, DEFAULT_BUDGET])
    def test_accuracy_at_the_budget_is_refused_before_trisecting(self, budget):
        # approx(p) asks the term p + 2, about 1.7 trisection steps per
        # bit: at p = budget it is refused before f is ever called.  f
        # stops a trisection that starts anyway, so the test cannot hang.
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 100:
                raise AssertionError("trisecting a term past the budget")
            return x - Fraction(1, 2)

        start = time.perf_counter()
        with effort_budget(budget), pytest.raises(EffortExhausted) as err:
            ivt_trisect(f, 0, 1).approx(budget)
        assert time.perf_counter() - start < 1
        assert calls == []
        assert err.value.budget == budget


    def test_wide_bracket_is_refused_before_trisecting(self):
        # 10**999999 is about 2**3321925: the steps that would narrow the
        # bracket to 1 alone are past the default budget
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 100:
                raise AssertionError("trisecting a bracket past the budget")
            return x - Fraction(1, 2)

        start = time.perf_counter()
        with pytest.raises(EffortExhausted):
            ivt_trisect(f, 0, 10**999999).approx(19)
        assert time.perf_counter() - start < 1
        assert calls == []

    def test_bracket_width_counts_against_the_budget(self):
        # [0, 2**40] at budget 64: term 22 + 40 bits of width is within it,
        # term 26 + 40 is not
        def root():
            return ivt_trisect(lambda x: x - Fraction(1, 2), 0, 1 << 40)

        with effort_budget(64):
            assert in_interval(root().approx(20), Fraction(1, 2))
            with pytest.raises(EffortExhausted):
                root().approx(24)

    def test_dyadic_bracket_makes_no_division(self, monkeypatch):
        # on [0, 1] every point and term is an exact dyadic leaf: no
        # rational point ever runs the floor division of from_fraction
        divisions = []
        for module in (creal_module, dyadic_module, interval_module):
            def counted(n, d, s, up, inner=module.scaled_quotient):
                if d != 1:
                    divisions.append(d)
                return inner(n, d, s, up)

            monkeypatch.setattr(module, "scaled_quotient", counted)
        root = ivt_trisect(lambda x: x - Fraction(1, 2), 0, 1)
        assert in_interval(root.approx(200), Fraction(1, 2))
        assert divisions == []

    def test_select_count_at_1000_bits(self, monkeypatch):
        # about 1.7 steps per bit; the 16-fold growth of the integer
        # bracket costs a few steps over exact thirds (1,713)
        calls = []
        inner = algorithms_module._select_with_effort

        def counted(candidates, start):
            calls.append(start)
            return inner(candidates, start)

        monkeypatch.setattr(algorithms_module, "_select_with_effort", counted)
        iv = ivt_trisect(lambda x: x - Fraction(1, 2), 0, 1).approx(1000)
        assert in_interval(iv, Fraction(1, 2))
        assert len(calls) <= 1730

    @pytest.mark.parametrize(
        "f,a,b,root,bits",
        [
            # a triple root and a kink at 1/3, which no trisection point hits
            (lambda x: (x - THIRD) * (x - THIRD) * (x - THIRD), 0, 1, THIRD, 1000),
            (lambda x: real_max((x - THIRD) * 2, (x - THIRD) / 8), 0, 1, THIRD, 1000),
            # decimal ends over one denominator 100: most points are not dyadic
            (lambda x: x - Fraction(3, 10), Fraction(1, 10), Fraction(7, 10), Fraction(3, 10), 300),
        ],
        ids=["triple-root", "kink", "decimal-bracket"],
    )
    def test_root_is_contained_and_narrow(self, f, a, b, root, bits):
        iv = ivt_trisect(f, a, b).approx(bits)
        assert in_interval(iv, root)
        assert iv.width_at_most(bits)


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

    def test_scale_walks_doubling_precisions_to_the_budget(self):
        asked = []
        zero = CReal(lambda p: asked.append(p) or Interval.point(Dyadic(0)))
        with effort_budget(64), pytest.raises(EffortExhausted) as err:
            sqrt_scale(zero)
        assert asked == [2, 4, 8, 16, 32, 64]
        assert "exhausted while scaling into [0.25, 2]" in str(err.value)

    def test_scale_rejects_zero(self):
        with effort_budget(256), pytest.raises(EffortExhausted):
            sqrt_scale(0)

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
        x = CReal.from_fraction(Dyadic(1, -64).to_fraction())
        assert in_interval(real_sqrt(x).approx(80), Fraction(1, 1 << 32))

    def test_sqrt_of_negative_exhausts_budget(self):
        with effort_budget(256), pytest.raises(EffortExhausted):
            real_sqrt(-1).approx(10)

    @pytest.mark.parametrize(
        "radicand", [lambda: 0 - real_pi(), lambda: -1], ids=["minus_pi", "minus_one"]
    )
    def test_certified_negative_is_refused_at_once(self, monkeypatch, radicand):
        # under the default budget: no retry asks pi at a higher precision
        asked = [0]
        pi_interval = algorithms_module._pi_interval

        def counted(n):
            asked.append(n)
            return pi_interval(n)

        monkeypatch.setattr(algorithms_module, "_pi_interval", counted)
        with pytest.raises(EffortExhausted):
            real_sqrt(radicand()).approx(10)
        assert max(asked) <= 64

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(9), Fraction(49, 4)])
    def test_squaring(self, x):
        r = real_sqrt(CReal.from_fraction(x))
        iv = (r * r).approx(100)
        assert in_interval(iv, x)


# accuracies next to the doubling points 2**k, where the working
# precisions of the refinement turn
STRADDLING = sorted({2**k + d for k in range(1, 12) for d in (-1, 0, 1)} | {4000})

dyadics = st.builds(Dyadic, st.integers(-(2**80), 2**80), st.integers(-120, 20))


class TestNewtonSqrt:
    """sqrt_restricted is precision iteration over ``Interval.sqrt``,
    whose lower end is ``isqrt_floor``'s Karatsuba recursion; no
    interval division and one full-width root per working precision,
    none of them a wide ``math.isqrt``."""

    def record(self, monkeypatch):
        """Count interval divisions, ``Interval.sqrt``'s lower-end roots
        of radicands of at least 10,000 bits, and ``math.isqrt`` calls on
        such radicands inside the Karatsuba recursion."""
        seen = {"divisions": 0, "wide_isqrts": 0, "wide_math_isqrts": 0}
        div = Interval.div
        isqrt_floor = dyadic_module.isqrt_floor

        def counted_div(self, other, bits):
            seen["divisions"] += 1
            return div(self, other, bits)

        def counted_isqrt_floor(n):
            if n.bit_length() >= 10_000:
                seen["wide_isqrts"] += 1
            return isqrt_floor(n)

        def counted_isqrt(n):
            if n.bit_length() >= 10_000:
                seen["wide_math_isqrts"] += 1
            return isqrt(n)

        monkeypatch.setattr(Interval, "div", counted_div)
        monkeypatch.setattr(interval_module, "isqrt_floor", counted_isqrt_floor)
        monkeypatch.setattr(dyadic_module, "isqrt", counted_isqrt)
        return seen

    def test_sqrt2_one_wide_isqrt(self, monkeypatch):
        seen = self.record(monkeypatch)
        iv = real_sqrt(2).approx(10_000)
        assert iv.width() <= Dyadic(1, -10_000)
        assert in_interval(iv.widen(Dyadic(1, -10_000)), sqrt_oracle(Fraction(2), 10_000))
        assert seen["divisions"] == 0
        assert seen["wide_isqrts"] == 1
        assert seen["wide_math_isqrts"] == 0

    def test_sqrt_sqrt2_two_wide_isqrts(self, monkeypatch):
        seen = self.record(monkeypatch)
        iv = real_sqrt(real_sqrt(2)).approx(10_000)
        assert iv.lo * iv.lo * iv.lo * iv.lo <= Dyadic(2) <= iv.hi * iv.hi * iv.hi * iv.hi
        assert seen["divisions"] == 0
        # one per square root
        assert seen["wide_isqrts"] == 2
        assert seen["wide_math_isqrts"] == 0

    @given(lo=dyadics, hi=dyadics, k=st.integers(0, 300), j=st.integers(0, 2**12))
    def test_interval_sqrt_sound(self, lo, hi, k, j):
        lo, hi = min(lo, hi), max(lo, hi)
        assume(hi.sign >= 0)
        # lo < 0 <= hi, lo >= 0, the point hi, and a width of j steps of
        # the grid 4**-k, where the upper end comes from the tangent
        narrow = Interval(hi, hi + Dyadic(j, -2 * k))
        for box in (Interval(lo, hi), Interval.point(hi), narrow):
            root = box.sqrt(k)
            r_lo, r_hi = root.lo.to_fraction(), root.hi.to_fraction()
            assert r_lo >= 0
            assert r_lo * r_lo <= max(box.lo.to_fraction(), 0)
            assert r_hi * r_hi >= box.hi.to_fraction()
            # both ends on the grid 2**-k
            assert (r_lo * 2**k).denominator == (r_hi * 2**k).denominator == 1

    @settings(deadline=None, max_examples=40)
    @given(
        x=st.sampled_from([Fraction(1, 4), Fraction(2)])
        | st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=10**9),
        indices=st.lists(
            st.sampled_from(STRADDLING) | st.integers(1, 4000), min_size=1, max_size=6
        ),
        data=st.data(),
    )
    def test_contains_root_in_any_order(self, x, indices, data):
        # a non-dyadic x arrives as intervals, a dyadic one as a point
        order = data.draw(st.permutations(indices))
        tries = 0
        sqrt = Interval.sqrt

        def counted(box, k):
            nonlocal tries
            tries += 1
            return sqrt(box, k)

        root = sqrt_restricted(CReal.from_fraction(x))
        with mock.patch.object(Interval, "sqrt", counted):
            for n in order:
                iv = root.approx(n)
                assert iv.width() <= Dyadic(1, -n)
                lo, hi = iv.lo.to_fraction(), iv.hi.to_fraction()
                assert (lo <= 0 or lo * lo <= x) and x <= hi * hi
        # in [1/4, 2] the first try at each new precision meets the width
        assert tries <= len(order)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 1000), Fraction(100)])
    def test_outside_the_scaled_range(self, x):
        # slower linear steps at first, but every term stays certified
        iv = sqrt_restricted(CReal.from_fraction(x)).approx(200)
        assert iv.width() <= Dyadic(1, -200)
        root = sqrt_oracle(x, 220)
        assert in_interval(iv.widen(Dyadic(1, -219)), root)

    def test_budget_caps_working_precision(self):
        with effort_budget(64):
            with pytest.raises(EffortExhausted):
                sqrt_restricted(2).approx(100)
            assert in_interval(sqrt_restricted(4).approx(40), Fraction(2))

    def test_negative_exhausts_budget(self):
        # no step certifies a gain, so the working precision doubles to the budget
        with effort_budget(4096), pytest.raises(EffortExhausted):
            sqrt_restricted(-1).approx(10)


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
        with effort_budget(256), pytest.raises(EffortExhausted):
            csqrt_nonzero(Complex(0, 0))

    def test_total_at_branch_point(self):
        w = csqrt(Complex(0, 0))
        iv = w.re.approx(100)
        assert in_interval(iv, Fraction(0)) and iv.width() <= Dyadic(1, -100)
        assert in_interval(w.im.approx(100), Fraction(0))

    def test_branch_point_answers_at_the_budget(self):
        # the exact zero term needs no effort, so p = budget answers
        with effort_budget(64):
            iv = csqrt(Complex(0, 0)).re.approx(64)
        assert in_interval(iv, Fraction(0)) and iv.width_at_most(64)

    def test_total_near_branch_point(self):
        tiny = Fraction(1, 1 << 40)
        w = csqrt(Complex(CReal.from_fraction(tiny), CReal.from_fraction(tiny)))
        assert_squares_to(w, tiny, tiny, 100)

    def test_total_generic(self):
        w = csqrt(Complex(3, 4))
        assert_squares_to(w, Fraction(3), Fraction(4), 100)

    @pytest.mark.parametrize(
        "re,im",
        [
            (Fraction(-1), Fraction(-1)),
            (Fraction(-1, 3), Fraction(-1, 7)),
            (Fraction(-2), Fraction(-1, 1000)),
            (Fraction(-1, 10**6), Fraction(-1, 10**6)),
        ],
    )
    def test_one_root_under_random_select(self, random_select, re, im):
        # two sign cases hold for each z, and they give opposite roots: every
        # answer must come from the one root pinned at the first nonzero term
        w = csqrt(Complex(re, im))
        lo, hi = None, None
        for p in range(0, 295, 7):
            iv = w.re.approx(p)
            a, b = iv.lo.to_fraction(), iv.hi.to_fraction()
            lo, hi = (a, b) if lo is None else (max(lo, a), min(hi, b))
            assert lo <= hi, f"approx({p}) = {iv} misses the earlier answers"
