"""Exact reals: accuracy contract, comparison, limits, rounding."""

import random
import time
from decimal import Context, Decimal
from fractions import Fraction
from math import floor, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from exactreal.algorithms import Complex, heron, real_abs, real_max, real_sqrt
from exactreal.creal import (
    CReal,
    dyadic_approx,
    less_than,
    limit,
    limit_refine,
    round_nd,
    split,
    to_decimal,
)
from exactreal.dyadic import Dyadic
from exactreal.errors import EffortExhausted
from exactreal.interval import Interval, from_ints
from exactreal.kleenean import (
    BOTTOM,
    TRUE,
    Branch,
    DEFAULT_BUDGET,
    LazyKleenean,
    current_budget,
    effort_budget,
    select,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def in_interval(iv: Interval, value: Fraction) -> bool:
    return iv.lo.to_fraction() <= value <= iv.hi.to_fraction()


def settle(k: LazyKleenean, max_effort: int = 64):
    for n in range(max_effort + 1):
        v = k.at(n)
        if v is not BOTTOM:
            return v
    return BOTTOM


class TestConstructors:
    def test_point_intervals(self):
        assert CReal.from_fraction(0).approx(10) == Interval.point(Dyadic(0))
        assert CReal.from_fraction(1).approx(500) == Interval.point(Dyadic(1))
        leaf = CReal.from_fraction(Dyadic(3, -1).to_fraction())
        assert leaf.approx(5) == Interval.point(Dyadic(3, -1))

    @pytest.mark.parametrize("value", [7, -3, Fraction("2.25"), Fraction("-0.5")])
    def test_dyadic_values_are_exact_leaves(self, value):
        leaf = CReal.from_fraction(value)
        with effort_budget(64):
            for p in (0, 1, 64, 65, 10_000):
                iv = leaf.approx(p)
                assert iv.lo.to_fraction() == iv.hi.to_fraction() == value

    @pytest.mark.parametrize("value", [Fraction("0.1"), Fraction(1, 3)])
    def test_other_rationals_are_refined_leaves(self, value):
        leaf = CReal.from_fraction(value)
        with effort_budget(64):
            for p in (0, 1, 30, 64):
                iv = leaf.approx(p)
                assert in_interval(iv, value)
                assert iv.width() <= Dyadic(1, -p)
            with pytest.raises(EffortExhausted):
                leaf.approx(65)

    def test_from_fraction_non_dyadic(self):
        third = CReal.from_fraction(Fraction(1, 3))
        iv = third.approx(10)
        assert in_interval(iv, Fraction(1, 3))
        assert iv.width() <= Dyadic(1, -10)

    @given(rationals, st.integers(min_value=0, max_value=300))
    def test_from_fraction_contract(self, fr, p):
        iv = CReal.from_fraction(fr).approx(p)
        assert in_interval(iv, fr)
        assert iv.width() <= Dyadic(1, -p)


class TestExactOperands:
    """Every function that takes a real takes an int or a Fraction too."""

    def test_less_than(self):
        assert settle(less_than(Fraction(1, 2), CReal.from_fraction(1))) is TRUE

    def test_to_decimal(self):
        assert to_decimal(3, 5) == "3.00000"

    def test_round_nd(self):
        assert round_nd(3) in (2, 3, 4)

    def test_dyadic_approx(self):
        # 16/3 = 5.33...
        assert dyadic_approx(Fraction(1, 3), 4) in (5, 6)


class TestInexactOperands:
    """Only exact values enter: a float or a str is refused at the call
    that takes it, not when the node is first asked for an answer."""

    BUILDERS = {
        "real_sqrt": real_sqrt,
        "real_abs": real_abs,
        "real_max": lambda v: real_max(1, v),
        "split": lambda v: split(v, 0, 1),
        "Complex": lambda v: Complex(1, v),
        "less_than": lambda v: less_than(v, CReal.from_fraction(1)),
        "round_nd": round_nd,
        "dyadic_approx": lambda v: dyadic_approx(v, 4),
        "to_decimal": lambda v: to_decimal(v, 5),
        "from_fraction": CReal.from_fraction,
    }

    @pytest.mark.parametrize("value", [0.5, "2", None])
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_refused_at_the_call(self, name, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            self.BUILDERS[name](value)

    def test_operators_leave_it_to_python(self):
        x = CReal.from_fraction(1)
        with pytest.raises(TypeError):
            x + 0.5
        with pytest.raises(TypeError):
            0.5 * x


@pytest.mark.parametrize(
    "build, what",
    [
        # an exact sum or difference folds into one leaf, so these two
        # take an inexact operand
        (lambda x: real_abs(x) + x, "a sum"),
        (lambda x: real_abs(x) - x, "a difference"),
        (lambda x: x * x, "a product"),
        (lambda x: x / x, "a quotient"),
        (lambda x: real_max(x, x), "a maximum"),
        (real_abs, "an absolute value"),
        (real_sqrt, "a square root"),
        # a non-dyadic exact operand scales the other one and rounds:
        # x * 3.7 and x / (10/37) each ask |x| at 67 bits
        (lambda x: real_abs(x) * Fraction(37, 10), "a product"),
        (lambda x: real_abs(x) / Fraction(10, 37), "a quotient"),
    ],
    ids=[
        "sum", "difference", "product", "quotient", "maximum", "abs", "sqrt",
        "scaled-product", "scaled-quotient",
    ],
)
def test_budget_message_names_the_node(build, what):
    # 62 bits pass the node's own check; its first working precision,
    # 66, is past the budget
    node = build(CReal.from_fraction(Fraction(1, 3)))
    with effort_budget(64), pytest.raises(EffortExhausted) as err:
        node.approx(62)
    assert str(err.value) == f"effort budget 64 exhausted while refining {what}"


class TestArithmetic:
    def test_one_plus_one(self):
        iv = (CReal.from_fraction(1) + CReal.from_fraction(1)).approx(20)
        assert in_interval(iv, Fraction(2))
        assert iv.width() <= Dyadic(1, -20)

    def test_cancellation(self):
        x = (CReal.from_fraction(Fraction(1, 3)) + 5) * 3
        iv = (x - x).approx(100)
        assert in_interval(iv, Fraction(0))
        assert iv.width() <= Dyadic(1, -100)

    def test_exact_sums_fold_into_one_leaf(self):
        # 2,000 nested sum nodes would overflow the recursion of approx
        x = CReal.from_fraction(Fraction(1, 10))
        for _ in range(2000):
            x = x + x
        assert to_decimal(x, 1) == f"{2**2000 // 10}.{2**2000 % 10}"

    def test_exact_products_stay_refined(self):
        # folded, the 40th square's denominator would be 3**(2**40)
        start = time.perf_counter()
        x = CReal.from_fraction(Fraction(1, 3))
        for _ in range(40):
            x = x * x
            assert time.perf_counter() - start < 1
        assert to_decimal(x, 5) == "0.00000"
        assert time.perf_counter() - start < 1

    def test_one_third(self):
        iv = (CReal.from_fraction(1) / CReal.from_fraction(3)).approx(10)
        assert in_interval(iv, Fraction(1, 3))
        assert iv.width() <= Dyadic(1, -10)

    @settings(deadline=None)
    @given(rationals, rationals, st.integers(min_value=0, max_value=200))
    def test_field_ops_sound(self, a, b, p):
        x, y = CReal.from_fraction(a), CReal.from_fraction(b)
        checks = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a)]
        if b != 0:
            checks.append((x / y, a / b))
        for real, exact in checks:
            iv = real.approx(p)
            assert in_interval(iv, exact)
            assert iv.width() <= Dyadic(1, -p)

    def test_accuracy_contract_deep_query(self):
        x = CReal.from_fraction(Fraction(355, 113)) / 7
        for p in (0, 7, 64, 333, 2000):
            iv = x.approx(p)
            assert iv.width() <= Dyadic(1, -p)
            assert in_interval(iv, Fraction(355, 113 * 7))

    def test_division_by_zero_exhausts_budget(self):
        with effort_budget(512), pytest.raises(EffortExhausted):
            (CReal.from_fraction(1) / CReal.from_fraction(0)).approx(5)

    def test_quotient_walks_doubling_precisions_to_the_budget(self):
        asked = []
        zero = CReal(lambda p: asked.append(p) or Interval.point(Dyadic(0)))
        with effort_budget(1000), pytest.raises(EffortExhausted) as err:
            (CReal.from_fraction(1) / zero).approx(10)
        assert asked == [14, 28, 56, 112, 224, 448, 896, 1000]
        assert "exhausted while refining a quotient" in str(err.value)

    def test_dividend_past_the_budget_after_the_divisor_separated(self):
        # the divisor 2**-10 straddles zero below 16 bits and is apart from
        # it from 16 on; the dividend asks a leaf at 4q bits, past the
        # budget once q reaches 32, so its own message is the cause
        third = CReal.from_fraction(Fraction(1, 3))
        x = CReal(lambda q: third.approx(4 * q))
        y = CReal(
            lambda q: from_ints(-1, 1, -q - 1) if q < 16 else from_ints((1 << q - 10) - 1, 1 << q - 10, -q)
        )
        with effort_budget(64), pytest.raises(EffortExhausted) as err:
            (x / y).approx(0)
        assert str(err.value) == "effort budget 64 exhausted while refining to 128 bits"

    def test_exact_leaves_need_no_budget(self):
        with effort_budget(0):
            assert CReal.from_fraction(2).approx(1000) == Interval.point(Dyadic(2))
            assert CReal.from_fraction(Fraction(3, 8)).approx(50).width() == Dyadic(0)

    def test_non_dyadic_leaf_obeys_budget(self):
        with effort_budget(64), pytest.raises(EffortExhausted) as err:
            CReal.from_fraction(Fraction(1, 3)).approx(65)
        assert err.value.budget == 64

    def test_exhausted_scope_answers_under_default(self):
        # 60 bits pass the top node's check; its operands are asked for more
        x = real_sqrt(2) / 3
        with effort_budget(64), pytest.raises(EffortExhausted):
            x.approx(60)
        assert current_budget() == DEFAULT_BUDGET
        iv = x.approx(200)
        assert iv.width() <= Dyadic(1, -200)
        lo, hi = iv.lo.to_fraction() * 3, iv.hi.to_fraction() * 3
        assert lo * lo <= 2 <= hi * hi

    def test_approx_is_idempotent(self):
        x = CReal.from_fraction(1) / 3
        fine = x.approx(80)
        # coarser query after a finer one reuses the cache
        assert x.approx(10) == fine
        assert x.approx(80) == fine

    def test_scale2(self):
        # a power of two is a dyadic factor: x * 16 asks x at p + 4 bits
        # and shifts its answer, with no rounding
        x = CReal.from_fraction(1) / 3
        iv = (x * 16).approx(30)
        assert in_interval(iv, Fraction(16, 3))
        assert x._best_p == 34 and iv == x.approx(34).scale2(4)


def blurred(value: Fraction) -> CReal:
    """An inexact real equal to ``value`` whose answer at p is a full
    2**-p wide and off the grid a node rounds onto: [lo, lo + 8] *
    2**-(p+3), with value p % 8 steps above lo."""

    def fn(p: int) -> Interval:
        lo = floor(value * 2 ** (p + 3)) - p % 8
        return Interval(Dyadic(lo, -(p + 3)), Dyadic(lo + 8, -(p + 3)))

    return CReal(fn)


huge = st.integers(min_value=-(10**200), max_value=10**200)
powers_of_two = st.builds(
    lambda k, sign: sign * Fraction(2) ** k,
    st.integers(min_value=-300, max_value=300),
    st.sampled_from([1, -1]),
)
exact_scalars = st.one_of(
    st.sampled_from([0, 1, -1, 2, -7, Fraction(0), Dyadic(0), Fraction(-37, 10)]),
    huge,
    st.builds(Fraction, huge, st.integers(min_value=1, max_value=10**200)),
    rationals,
    powers_of_two,
    powers_of_two.map(lambda fr: Dyadic(fr.numerator, 1 - fr.denominator.bit_length())),
    st.builds(
        Dyadic,
        st.integers(min_value=-(1 << 700), max_value=1 << 700),
        st.integers(min_value=-300, max_value=300),
    ),
)


# the spellings of an exact scalar: itself, its leaf, and leaves that
# a negation, difference or sum of exact leaves folds into
spellings = {
    "raw": lambda value, q: q,
    "leaf": lambda value, q: CReal.from_fraction(value),
    "-q": lambda value, q: -CReal.from_fraction(-value),
    "0 - q": lambda value, q: 0 - CReal.from_fraction(-value),
    "q + 0": lambda value, q: CReal.from_fraction(value) + 0,
}


class TestExactScalars:
    """A product or quotient with one exact operand, an int, a Fraction,
    a Dyadic or an exact leaf, scales the other operand's interval."""

    @settings(deadline=None, max_examples=300)
    @given(
        rationals,
        st.booleans(),
        exact_scalars,
        st.sampled_from(sorted(spellings)),
        st.integers(min_value=0, max_value=300),
    )
    def test_scaled_values_contain_the_value(self, a, x_exact, q, spelling, p):
        x = CReal.from_fraction(a) if x_exact else blurred(a)
        value = q.to_fraction() if isinstance(q, Dyadic) else Fraction(q)
        q = spellings[spelling](value, q)
        checks = [(x * q, a * value), (q * x, a * value)]
        if value:
            checks.append((x / q, a / value))
        for real, exact in checks:
            iv = real.approx(p)
            assert in_interval(iv, exact)
            assert iv.width() <= Dyadic(1, -p)

    # dyadic factor -> len(|num| - 1) - twos, the bits x is asked past p
    DYADIC = {3: 2, -1: 0, 16: 4, Fraction(5, 4): 1, Fraction(-1, 1024): -10}

    @pytest.mark.parametrize("p", [0, 9, 200])
    @pytest.mark.parametrize("factor", list(DYADIC), ids=str)
    def test_dyadic_factor_scales_exactly(self, factor, p):
        # x is asked once, and its answer comes back times the factor,
        # with no rounding
        asked = []
        inner = blurred(Fraction(1, 3))
        x = CReal(lambda q: asked.append(q) or inner.approx(q))
        iv = (x * factor).approx(p)
        assert asked == [max(0, p + self.DYADIC[factor])]
        lo, hi = sorted(end.to_fraction() * factor for end in (inner._best.lo, inner._best.hi))
        assert (iv.lo.to_fraction(), iv.hi.to_fraction()) == (lo, hi)

    def test_negation_is_the_factor_minus_one(self):
        inner = blurred(Fraction(1, 3))
        iv = (-inner).approx(50)
        assert inner._best_p == 50 and iv == -inner.approx(50)

    @pytest.mark.parametrize("zero", [0, Fraction(0), Dyadic(0), "leaf"])
    @pytest.mark.parametrize("x_exact", [True, False])
    def test_division_by_exact_zero_exhausts_budget(self, zero, x_exact):
        x = CReal.from_fraction(Fraction(1, 3)) if x_exact else blurred(Fraction(1, 3))
        zero = CReal.from_fraction(0) if zero == "leaf" else zero
        with effort_budget(512), pytest.raises(EffortExhausted) as err:
            (x / zero).approx(5)
        assert str(err.value) == "effort budget 512 exhausted while refining a quotient"


class TestComparison:
    def test_directions(self):
        assert settle(less_than(CReal.from_fraction(0), CReal.from_fraction(1))) is TRUE
        assert settle(~less_than(CReal.from_fraction(1), CReal.from_fraction(0))) is TRUE

    def test_diagonal_stays_bottom(self):
        x = CReal.from_fraction(Fraction(1, 3))
        cmp = less_than(x, x)
        for n in range(0, 200, 25):
            assert cmp.at(n) is BOTTOM

    @given(rationals, rationals)
    def test_trichotomy_on_rationals(self, a, b):
        if a == b:
            return
        verdict = settle(less_than(CReal.from_fraction(a), CReal.from_fraction(b)), 64)
        assert verdict is not BOTTOM
        assert (verdict is TRUE) == (a < b)


class TestSplit:
    def test_both_sides_valid(self):
        assert split(1, 0, 2) in (Branch.LEFT, Branch.RIGHT)

    def test_forced_left(self):
        assert split(0, 1, Dyadic(1, -5)) is Branch.LEFT

    def test_forced_right(self):
        assert split(1, 0, Dyadic(1, -5)) is Branch.RIGHT


class TestLimit:
    def test_constant_sequence(self):
        c = CReal.from_fraction(Fraction(2, 3))
        lim = limit(lambda n: c)
        for p in (0, 10, 100):
            assert in_interval(lim.approx(p), Fraction(2, 3))

    def test_powers_of_two_converge_to_zero(self):
        lim = limit(lambda n: CReal.from_fraction(Dyadic(1, -n).to_fraction()))
        iv = lim.approx(30)
        assert in_interval(iv, Fraction(0))
        assert iv.width() <= Dyadic(1, -30)

    def test_truncated_sqrt2_sequence(self):
        # f(n) = floor(sqrt(2) * 2**(n+1)) / 2**(n+1), a fast Cauchy
        # sequence with limit sqrt(2)
        def f(n):
            return CReal.from_fraction(Dyadic(isqrt(2 << (2 * n + 2)), -(n + 1)).to_fraction())

        iv = limit(f).approx(50)
        # the oracle itself is only a 2**-80 lower approximation of sqrt(2)
        oracle = Fraction(isqrt(2 << 160), 1 << 80)
        slack = Fraction(1, 1 << 78)
        assert iv.lo.to_fraction() - slack <= oracle <= iv.hi.to_fraction() + slack
        assert iv.width() <= Dyadic(1, -50)

    def test_terms_queried_once(self):
        calls = []

        def f(n):
            calls.append(n)
            return CReal.from_fraction(0)

        lim = limit(f)
        lim.approx(10)
        lim.approx(10)
        assert calls.count(12) == 1


class TestLimitRefine:
    def test_identity_step(self):
        c = CReal.from_fraction(Fraction(5, 7))
        lim = limit_refine(c, lambda n, hint: (hint, hint))
        assert in_interval(lim.approx(40), Fraction(5, 7))

    def test_zero_or_one_commits(self):
        # the first step makes a nondeterministic choice and every later
        # step repeats it; the limit must be one candidate, never a blend
        def step(n, hint):
            if hint is None:
                br = select(LazyKleenean.const(TRUE), LazyKleenean.const(TRUE))
                value = 0 if br is Branch.LEFT else 1
            else:
                value = hint
            return CReal.from_fraction(value), value

        lim = limit_refine(None, step)
        iv = lim.approx(5)
        contains_zero = in_interval(iv, Fraction(0))
        contains_one = in_interval(iv, Fraction(1))
        assert contains_zero != contains_one

    def test_step_runs_once_per_requested_index(self):
        # accuracy p asks for the single index p + 2; the indices in
        # between are skipped, and the step sees the latest hint
        calls = []

        def step(n, hint):
            calls.append((n, hint))
            return CReal.from_fraction(Dyadic(1, -n).to_fraction()), n

        lim = limit_refine("seed", step)
        lim.approx(10)
        lim.approx(10)
        lim.approx(40)
        lim.approx(25)
        assert calls == [(12, "seed"), (42, 12)]
        assert in_interval(lim.approx(40), Fraction(0))


class TestRounding:
    def test_round_nd_examples(self):
        z = round_nd(CReal.from_fraction(Dyadic(5, -1).to_fraction()))
        assert z in (2, 3)
        assert round_nd(CReal.from_fraction(0)) in (-1, 0, 1)
        assert round_nd(CReal.from_fraction(7)) in (6, 7, 8)

    @given(rationals)
    def test_round_nd_contract(self, fr):
        z = round_nd(CReal.from_fraction(fr))
        assert z - 1 < fr < z + 1

    def test_dyadic_approx_examples(self):
        assert dyadic_approx(CReal.from_fraction(Fraction(1, 3)), 2) in (1, 2)
        assert dyadic_approx(CReal.from_fraction(0), 8) in (-1, 0, 1)
        assert dyadic_approx(CReal.from_fraction(1), 3) in (7, 8, 9)

    @given(rationals, st.integers(min_value=0, max_value=20))
    def test_dyadic_approx_contract(self, fr, n):
        z = dyadic_approx(CReal.from_fraction(fr), n)
        assert abs(fr - Fraction(z, 1 << n)) <= Fraction(1, 1 << n)


class TestDecimalOutput:
    def test_examples(self):
        assert to_decimal(CReal.from_fraction(2), 3) == "2.000"
        assert to_decimal(CReal.from_fraction(Fraction(1, 4)), 2) == "0.25"
        # one ulp of slack in the last place is allowed by the contract
        assert to_decimal(CReal.from_fraction(Fraction(1, 3)), 5) in (
            "0.33332",
            "0.33333",
            "0.33334",
        )

    def test_negative(self):
        assert to_decimal(CReal.from_fraction(Fraction(-1, 4)), 2) == "-0.25"

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            to_decimal(CReal.from_fraction(1), 0)

    @pytest.mark.parametrize("digits", [2.5, "3", None])
    def test_digits_must_be_an_int(self, digits):
        with pytest.raises(TypeError, match="digits"):
            to_decimal(real_sqrt(2), digits)

    @given(rationals, st.integers(min_value=1, max_value=12))
    def test_contract(self, fr, digits):
        printed = Fraction(to_decimal(CReal.from_fraction(fr), digits))
        assert abs(printed - fr) <= Fraction(1, 10**digits)


def printed_integer(text: str, digits: int) -> int:
    """The integer ``text * 10**digits`` for a decimal with exactly
    ``digits`` places and no leading zero, read without ``int(str)``'s
    digit limit."""
    negative = text.startswith("-")
    whole, frac = text.removeprefix("-").split(".")
    assert len(frac) == digits and whole.isdigit() and frac.isdigit()
    assert whole == "0" or not whole.startswith("0")
    n = int(Decimal(whole + frac))
    assert n or not negative  # no "-0.000"
    return -n if negative else n


def rounded_midpoint(iv: Interval, digits: int) -> int:
    """Round half up of midpoint * 10**digits, in exact rationals."""
    mid = (iv.lo.to_fraction() + iv.hi.to_fraction()) / 2
    return floor(mid * 10**digits + Fraction(1, 2))


def one_shift_text(iv: Interval, digits: int) -> str:
    """The printed value by the rule ``to_decimal`` had before it split
    the printed integer: n = round half up of (a + b) * 5**digits *
    2**(e - 1 + digits) by one shift, formatted by ``decimal``."""
    n = (iv.a + iv.b) * 5**digits
    shift = iv.e - 1 + digits
    n = n << shift if shift >= 0 else (n + (1 << (-shift - 1))) >> -shift
    exact = Context(prec=n.bit_length() // 3 + 10)  # more digits than n has
    return format(Decimal(n).scaleb(-digits, exact), "f")


def decimal_cases(digits: int):
    rng = random.Random(digits)
    bits = 3322 * digits // 1000 + 3
    # midpoints with exponent >= 0
    yield Interval.point(Dyadic(5))
    yield Interval.point(Dyadic(-3, 7))
    yield Interval(Dyadic(-1, 1), Dyadic(3, 1))
    # integer leaves, whose ends need not have odd mantissas
    for n in (2, 1000, -8):
        yield CReal.from_fraction(n).approx(0)
    for sign in (1, -1):
        # midpoints exactly half a unit of the last place off a decimal
        half = Dyadic(sign * (2 * rng.getrandbits(20) + 1) * 5 ** (digits + 1), -(digits + 1))
        yield Interval.point(half)
        yield Interval.point(Dyadic(sign, -(digits + 1)))
        # values that round to zero, and the smallest that do not
        tiny = Dyadic(sign, -(bits + 2))
        yield Interval.point(tiny)
        yield Interval(min(tiny, -tiny), max(tiny, -tiny) + tiny)
        # just below one: the printed integer's low half carries into the top
        yield Interval.point(Dyadic(sign * ((1 << (bits + 2)) - 1), -(bits + 2)))
        m = (1 << (bits + 1)) // 10**digits  # m * 2**-(bits+2) < 10**-digits / 2
        yield Interval.point(Dyadic(sign * m, -(bits + 2)))
        yield Interval.point(Dyadic(sign * (m + 1), -(bits + 2)))
        for _ in range(4):
            lo = Dyadic(sign * rng.getrandbits(bits + 40), -(bits + rng.randrange(-8, 60)))
            yield Interval(lo, lo + Dyadic(rng.randrange(4), lo.exponent))
            # wider than a few units of the last place
            yield Interval(lo, lo + Dyadic(rng.getrandbits(bits // 2 + 8), lo.exponent))


@pytest.mark.parametrize(
    "digits", [1, 2, 3, 299, 300, 301, 999, 1000, 1001, 2400, 2401, 4301, 5000]
)
def test_to_decimal_is_rounded_midpoint(digits):
    for iv in decimal_cases(digits):
        text = to_decimal(CReal(lambda p, iv=iv: iv), digits)
        assert text == one_shift_text(iv, digits), iv
        assert printed_integer(text, digits) == rounded_midpoint(iv, digits), iv


@given(
    st.builds(Dyadic, st.integers(-(1 << 80), 1 << 80), st.integers(-90, 20)),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=30),
)
def test_to_decimal_is_rounded_midpoint_hypothesis(lo, ulps, digits):
    iv = Interval(lo, lo + Dyadic(ulps, lo.exponent))
    text = to_decimal(CReal(lambda p: iv), digits)
    assert printed_integer(text, digits) == rounded_midpoint(iv, digits)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=-1, max_value=1),
    st.integers(min_value=-8, max_value=60),
    st.sampled_from([0, 1, 2, 3, 1 << 40]),
    st.randoms(use_true_random=False),
)
def test_to_decimal_matches_the_one_shift_rule(digits, sign, extra, ulps, rng):
    # every size up to 5,000 digits
    bits = 3322 * digits // 1000 + 3
    lo = Dyadic(sign * rng.getrandbits(bits + rng.randrange(-bits, 40)), -(bits + extra))
    iv = Interval(lo, lo + Dyadic(ulps, lo.exponent))
    assert to_decimal(CReal(lambda p: iv), digits) == one_shift_text(iv, digits)


class TestEvaluationOrder:
    """Binary nodes ask their right operand first, so an exact Heron
    iterate asked at two precisions in one step is evaluated only once."""

    def count_divisions(self, monkeypatch, build) -> int:
        calls = 0
        div = Interval.div

        def counted(self, other, bits):
            nonlocal calls
            calls += 1
            return div(self, other, bits)

        monkeypatch.setattr(Interval, "div", counted)
        build().approx(10_000)
        return calls

    def test_heron_divides_once_per_iterate(self, monkeypatch):
        # (h + x/h)/2: the quotient's request leaves the sum a cache hit
        assert self.count_divisions(monkeypatch, lambda: heron(2, 14)) == 14

    def test_sqrt_sqrt2_divisions(self, monkeypatch):
        build = lambda: real_sqrt(real_sqrt(2))
        assert self.count_divisions(monkeypatch, build) <= 40
