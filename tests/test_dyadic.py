"""Dyadic arithmetic against a big-rational oracle."""

import operator
import random
import time
from decimal import Context, Decimal
from fractions import Fraction
from math import ceil, floor, isqrt

import pytest
from hypothesis import given, strategies as st

from exactreal import dyadic as dyadic_module
from exactreal.dyadic import (
    Dyadic,
    decimal_string,
    div_directed,
    isqrt_floor,
    isqrt_rem,
    scaled_quotient,
)
from exactreal.errors import ExponentOverflow

ZERO = Dyadic(0)

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(1 << 48), max_value=1 << 48),
    st.integers(min_value=-64, max_value=64),
)


class TestNormalization:
    def test_canonical_form(self):
        d = Dyadic(12, -2)  # 3 * 2**0
        assert d.mantissa == 3 and d.exponent == 0

    def test_zero_is_unique(self):
        assert Dyadic(0, 17) == Dyadic(0, -5) == ZERO
        assert Dyadic(0, 17).exponent == 0

    @given(dyadics)
    def test_idempotent(self, d):
        again = Dyadic(d.mantissa, d.exponent)
        assert again.mantissa == d.mantissa and again.exponent == d.exponent

    def test_structural_equality_is_value_equality(self):
        assert Dyadic(3, -1) == Dyadic(6, -2)
        assert hash(Dyadic(3, -1)) == hash(Dyadic(6, -2))

    def test_exponent_overflow(self):
        with pytest.raises(ExponentOverflow):
            Dyadic(1, 1 << 63)

    @pytest.mark.parametrize("mantissa,shift", [(1, 0), (-3, 0), (2, 1), (-8, 3)])
    def test_exponent_limit_for_odd_and_even_mantissas(self, mantissa, shift):
        # an odd mantissa skips the shift but not the range check
        limit = dyadic_module._EXP_LIMIT
        for exponent in (limit - shift, -limit - shift):
            with pytest.raises(ExponentOverflow):
                Dyadic(mantissa, exponent)
        assert Dyadic(mantissa, limit - 1 - shift).exponent == limit - 1


class TestHash:
    """Dyadics hash by Python's numeric rule, like the equal int or
    Fraction, so mixed sets and dict keys find them."""

    @given(
        st.integers(min_value=-(1 << 80), max_value=1 << 80),
        st.integers(min_value=-2000, max_value=2000),
    )
    def test_matches_the_numeric_hash(self, m, e):
        assert hash(Dyadic(m, e)) == hash(Fraction(m) * Fraction(2) ** e)

    def test_ints_and_dyadics_find_each_other_in_sets(self):
        assert 3 in {Dyadic(3)}
        assert Dyadic(3) in {3}
        assert Dyadic(-1) in {-1} and -1 in {Dyadic(-1)}  # hash(-1) is -2
        assert Dyadic(12, -2) in {3}
        assert {Dyadic(1, 4): "x"}[16] == "x"

    @pytest.mark.parametrize("e", [1 << 40, -(1 << 40)])
    def test_far_exponents_hash_at_once(self, e):
        # a modular power, not a shift by the exponent
        start = time.perf_counter()
        hash(Dyadic(1, e))
        hash(Dyadic(-3, e))
        assert time.perf_counter() - start < 0.05


class TestArithmetic:
    def test_add_examples(self):
        assert Dyadic(1) + Dyadic(1) == Dyadic(1, 1)
        assert Dyadic(1) + Dyadic(-1) == ZERO
        assert Dyadic(3, -1) + Dyadic(1, -2) == Dyadic(7, -2)

    def test_mul_examples(self):
        assert Dyadic(3, -1) * Dyadic(3, -1) == Dyadic(9, -2)
        assert Dyadic(123, 4) * ZERO == ZERO
        assert Dyadic(5, 2) * Dyadic(-3, -4) == Dyadic(-15, -2)

    def test_neg_and_cmp(self):
        assert -ZERO == ZERO
        assert Dyadic(1, -1) < Dyadic(1)
        assert not Dyadic(3, -1) < Dyadic(6, -2)
        assert Dyadic(3, -1) == Dyadic(6, -2)

    @given(dyadics, dyadics)
    def test_add_matches_rationals(self, a, b):
        assert (a + b).to_fraction() == a.to_fraction() + b.to_fraction()

    @given(dyadics, dyadics)
    def test_sub_matches_rationals(self, a, b):
        assert (a - b).to_fraction() == a.to_fraction() - b.to_fraction()

    @given(dyadics, dyadics)
    def test_mul_matches_rationals(self, a, b):
        assert (a * b).to_fraction() == a.to_fraction() * b.to_fraction()

    @given(dyadics, dyadics)
    def test_cmp_matches_rationals(self, a, b):
        assert (a < b) == (a.to_fraction() < b.to_fraction())
        assert (a == b) == (a.to_fraction() == b.to_fraction())

    @given(dyadics, st.integers(min_value=-70, max_value=70))
    def test_scale2(self, d, k):
        assert d.scale2(k).to_fraction() == d.to_fraction() * Fraction(2) ** k

    def test_int_mixing(self):
        assert Dyadic(1, -1) + 1 == Dyadic(3, -1)
        assert 2 * Dyadic(3, -2) == Dyadic(3, -1)
        assert 1 - Dyadic(1, -2) == Dyadic(3, -2)


# every operator that takes a second operand, with its rational oracle
BINARY_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class TestOperandRule:
    """One rule for every operator: an int operand is taken exactly, on
    either side, and any other type is refused."""

    @pytest.mark.parametrize("op", BINARY_OPERATORS.values(), ids=BINARY_OPERATORS)
    @given(dyadics, st.integers(min_value=-(1 << 70), max_value=1 << 70))
    def test_int_operand_is_exact(self, op, d, n):
        for result, exact in (
            (op(d, n), op(d.to_fraction(), n)),
            (op(n, d), op(n, d.to_fraction())),
        ):
            if isinstance(exact, bool):
                assert result is exact
            else:
                assert type(result) is Dyadic and result.to_fraction() == exact

    @pytest.mark.parametrize(
        "op",
        [op for name, op in BINARY_OPERATORS.items() if name != "=="],
        ids=[name for name in BINARY_OPERATORS if name != "=="],
    )
    @pytest.mark.parametrize("other", [0.5, Fraction(1, 2), "1"], ids=repr)
    def test_other_operand_types_raise(self, op, other):
        with pytest.raises(TypeError):
            op(Dyadic(1, -1), other)
        with pytest.raises(TypeError):
            op(other, Dyadic(1, -1))

    @pytest.mark.parametrize("other", [0.5, Fraction(1, 2), "1"], ids=repr)
    def test_other_operand_types_are_unequal(self, other):
        # even an equal float or Fraction: equality is not a conversion
        assert not Dyadic(1, -1) == other and Dyadic(1, -1) != other
        assert not other == Dyadic(1, -1) and other != Dyadic(1, -1)


class TestRounding:
    def test_examples(self):
        # 2.25 rounded to 2 bits of precision
        assert Dyadic(9, -2).round_down(2) == Dyadic(2)
        assert Dyadic(9, -2).round_up(2) == Dyadic(5, -1)
        one = Dyadic(1)
        for p in range(1, 8):
            assert one.round_down(p) == one
            assert one.round_up(p) == one

    @given(dyadics, st.integers(min_value=1, max_value=40))
    def test_bracketing(self, d, p):
        assert d.round_down(p) <= d <= d.round_up(p)

    @given(dyadics, st.integers(min_value=1, max_value=40))
    def test_error_below_one_ulp(self, d, p):
        if d.mantissa == 0:
            return
        lead = abs(d.mantissa).bit_length() + d.exponent - 1
        ulp = Fraction(2) ** (lead - p)
        v = d.to_fraction()
        assert v - d.round_down(p).to_fraction() < ulp
        assert d.round_up(p).to_fraction() - v < ulp

    @given(dyadics, st.integers(min_value=-40, max_value=40))
    def test_grid_rounding(self, d, k):
        lo, hi = d.floor_to_grid(k), d.ceil_to_grid(k)
        assert lo <= d <= hi
        grid = Fraction(2) ** -k
        assert lo.to_fraction() % grid == 0
        assert hi.to_fraction() % grid == 0
        assert hi.to_fraction() - lo.to_fraction() <= grid


class TestStringsAndParsing:
    def test_decimal_rendering(self):
        assert str(Dyadic(1, -1)) == "0.5"
        assert str(Dyadic(-9, -2)) == "-2.25"
        assert str(Dyadic(3, 2)) == "12"

    @given(dyadics)
    def test_decimal_round_trip(self, d):
        assert Fraction(d.to_decimal_string()) == d.to_fraction()


class TestDirectedDivision:
    grid = st.integers(min_value=-20, max_value=80)

    @given(dyadics, dyadics, grid)
    def test_brackets_exact_quotient(self, a, b, k):
        if b.mantissa == 0:
            return
        exact = a.to_fraction() / b.to_fraction()
        down = div_directed(a, b, k, up=False)
        up = div_directed(a, b, k, up=True)
        assert down.to_fraction() <= exact <= up.to_fraction()

    @given(dyadics, dyadics, grid)
    def test_floor_and_ceil_on_the_grid(self, a, b, k):
        """Exactly floor(F * 2**k) * 2**-k, or the ceiling, for the
        rational quotient F, divisors of either sign included."""
        if b.mantissa == 0:
            return
        scaled = a.to_fraction() / b.to_fraction() * Fraction(2) ** k
        floor = scaled.numerator // scaled.denominator
        ceil = -(-scaled.numerator // scaled.denominator)
        assert div_directed(a, b, k, up=False) == Dyadic(floor, -k)
        assert div_directed(a, b, k, up=True) == Dyadic(ceil, -k)

    def test_exact_quotient_is_exact(self):
        assert div_directed(Dyadic(1), Dyadic(2), 10, up=False) == Dyadic(1, -1)
        assert div_directed(Dyadic(1), Dyadic(2), 10, up=True) == Dyadic(1, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            div_directed(Dyadic(1), ZERO, 10, up=False)


class TestScaledQuotient:
    """``scaled_quotient`` is the exact floor or ceiling of n * 2**s / d."""

    @given(
        st.integers(min_value=-(1 << 80), max_value=1 << 80),
        st.one_of(
            st.sampled_from((1, -1)),
            st.integers(min_value=-(1 << 40), max_value=1 << 40).filter(bool),
        ),
        st.integers(min_value=-100, max_value=100),
    )
    def test_floor_and_ceiling(self, n, d, s):
        exact = Fraction(n, d) * Fraction(2) ** s
        assert scaled_quotient(n, d, s, up=False) == floor(exact)
        assert scaled_quotient(n, d, s, up=True) == ceil(exact)

    @pytest.mark.parametrize("d", [1, -1, 3, -3])
    @pytest.mark.parametrize("s", [-3, 0, 3])
    @pytest.mark.parametrize("n", [-13, -8, 0, 8, 13])
    def test_signs_and_exact_cases(self, n, d, s):
        exact = Fraction(n, d) * Fraction(2) ** s
        assert scaled_quotient(n, d, s, up=False) == floor(exact)
        assert scaled_quotient(n, d, s, up=True) == ceil(exact)


def check_roots(m):
    """``isqrt_rem`` is math.isqrt's root with its exact remainder, and
    ``isqrt_floor`` is math.isqrt's root."""
    s = isqrt(m)
    assert isqrt_rem(m) == (s, m - s * s)
    assert isqrt_floor(m) == s


# the shortest radicand that the Karatsuba roots split rather than hand to isqrt
_FIRST_SPLIT_BITS = 4 * dyadic_module._ISQRT_SPLIT_MIN + 1


def _edge_radicands():
    for m in (0, 1, 2, 3, 4):
        yield pytest.param(m, id=str(m))
    for name, root in (
        ("2", 2),
        ("3", 3),
        ("2^500", 1 << 500),
        ("2^1000-1", (1 << 1000) - 1),
        ("3^2000", 3**2000),
        ("2^5000+1", (1 << 5000) + 1),
    ):
        square = root * root
        yield pytest.param(square - 1, id=f"({name})^2-1")
        yield pytest.param(square, id=f"({name})^2")
        yield pytest.param(square + 1, id=f"({name})^2+1")
    for b in (1, 2, 3, 10_000, 10_001):
        yield pytest.param(1 << b, id=f"2^{b}")
    # deep-sqrt's sparse k << 2q radicands
    for k in (2, 3, 5, 99):
        for q in (1000, 5000, 10_000):
            yield pytest.param(k << 2 * q, id=f"{k}<<{2 * q}")
    for bits in range(_FIRST_SPLIT_BITS - 3, _FIRST_SPLIT_BITS + 4):
        square = (isqrt((1 << (bits - 1)) - 1) + 1) ** 2  # the least bits-bit square
        yield pytest.param((1 << bits) - 1, id=f"{bits}bits-max")
        yield pytest.param(1 << (bits - 1), id=f"{bits}bits-min")
        yield pytest.param(square, id=f"{bits}bits-least-square")
        yield pytest.param(square - 1, id=f"{bits}bits-least-square-1")


class TestIntegerSquareRoot:
    """``isqrt_rem`` and ``isqrt_floor`` against math.isqrt.
    ``isqrt_floor`` decides its top step's one correction from 64
    leading bits of the quotient q and of R; a perfect square has
    R = q**2 exactly, so squares are the inputs that reach its exact
    comparison ``R < q*q``."""

    @pytest.mark.parametrize("m", _edge_radicands())
    def test_edge_cases(self, m):
        check_roots(m)

    @given(
        bits=st.integers(0, 60_000),
        seed=st.integers(0, 2**32),
        shape=st.sampled_from(["dense", "square", "below", "above"]),
    )
    def test_equals_isqrt_and_remainder(self, bits, seed, shape):
        m = random.Random(seed).getrandbits(bits)
        if shape != "dense":
            # a perfect square or a neighbour, where a root one too
            # large would show as a negative remainder, and a square
            # takes isqrt_floor's exact comparison
            m = isqrt(m) ** 2 + {"square": 0, "below": -1, "above": 1}[shape]
        m = max(m, 0)
        check_roots(m)

    def test_every_small_radicand_through_deep_recursion(self, monkeypatch):
        # splits from 1 bit up run the recursion several levels deep,
        # and its correction often, on radicands small enough to check
        # them all
        monkeypatch.setattr(dyadic_module, "_ISQRT_SPLIT_MIN", 1)
        for m in range(1 << 14):
            check_roots(m)
        rng = random.Random(7)
        for _ in range(2000):
            root = rng.getrandbits(rng.randrange(1, 400))
            for m in (root * root - 1, root * root, root * root + 1):
                if m >= 0:
                    check_roots(m)


class TestDecimalString:
    """Checked through int(Decimal(s)), which has no digit limit, unlike int(s)."""

    @given(
        st.one_of(
            st.integers(-(10**4300) + 1, 10**4300 - 1),
            # powers of two and of ten and their neighbours, whose low bits
            # or digits are all zeros, all ones or all nines
            st.builds(
                lambda k, scale, offset: scale**k + offset,
                st.integers(min_value=1, max_value=4299),
                st.sampled_from([2, 10]),
                st.integers(min_value=-1, max_value=1),
            ),
        )
    )
    def test_matches_str_below_the_limit(self, n):
        # 4,300 digits is the interpreter's int-to-str limit
        assert decimal_string(n) == str(n)

    @pytest.mark.parametrize("digits", [4_301, 10_000, 20_000, 65_536])
    def test_round_trip_past_the_limit(self, digits):
        for n in (10 ** (digits - 1), 10**digits - 1, 7**(digits * 100 // 85)):
            text = decimal_string(n)
            assert text[0] != "0"
            assert int(Decimal(text)) == n
            assert decimal_string(-n) == "-" + text
            assert decimal_string(-n, len(text) + 2) == "-0.00" + text

    @pytest.mark.parametrize(
        "digits", [999, 1000, 1001, 1999, 2000, 2001, 3999, 4000, 4001, 4300, 4301, 4302]
    )
    def test_matches_exact_decimal_around_each_split(self, digits):
        # the halving recurses one level deeper past 1,000, 2,000 and
        # 4,000 digits; 4,300 is the interpreter's int-to-str limit
        rng = random.Random(digits)
        oracle = Context(prec=digits + 10)
        for n in (10 ** (digits - 1), 10**digits - 1, rng.randrange(10**digits)):
            for point in (0, 1, digits // 3, digits, digits + 5):
                for value in (n, -n):
                    exact = format(Decimal(value).scaleb(-point, oracle), "f")
                    assert decimal_string(value, point) == exact

    def test_exact_decimal_of_a_long_dyadic(self):
        m = (1 << 20_000) - 1
        text = Dyadic(m, -20_000).to_decimal_string()
        whole, frac = text.split(".")
        assert whole == "0" and len(frac) == 20_000
        assert int(Decimal(frac)) == m * 5**20_000
        assert Dyadic(-m, -20_000).to_decimal_string() == "-" + text
        assert decimal_string(-5, 3) == "-0.005"
