"""End-to-end acceptance checks at desk scale.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with ``pytest -s`` or in failure output).  Tolerances are
pinned; do not loosen them to make a failing build green.
"""

import random
import time
from fractions import Fraction
from math import isqrt

from exactreal.algorithms import (
    Complex,
    csqrt,
    heron,
    ivt_trisect,
    real_max,
    real_pi,
    real_sqrt,
)
from exactreal.creal import CReal, limit_refine
from exactreal.dyadic import Dyadic
from exactreal.interval import Interval
from exactreal.kleenean import BOTTOM, FALSE, TRUE, Branch, LazyKleenean, select


def report(name: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {name} failed: {detail}"


def in_interval(iv: Interval, value: Fraction) -> bool:
    return iv.lo.to_fraction() <= value <= iv.hi.to_fraction()


def test_01_kleene_truth_tables():
    """All 21 three-valued truth-table entries, exactly."""
    t0 = time.perf_counter()
    expected_and = {
        (TRUE, TRUE): TRUE, (TRUE, FALSE): FALSE, (TRUE, BOTTOM): BOTTOM,
        (FALSE, TRUE): FALSE, (FALSE, FALSE): FALSE, (FALSE, BOTTOM): FALSE,
        (BOTTOM, TRUE): BOTTOM, (BOTTOM, FALSE): FALSE, (BOTTOM, BOTTOM): BOTTOM,
    }
    expected_or = {
        (TRUE, TRUE): TRUE, (TRUE, FALSE): TRUE, (TRUE, BOTTOM): TRUE,
        (FALSE, TRUE): TRUE, (FALSE, FALSE): FALSE, (FALSE, BOTTOM): BOTTOM,
        (BOTTOM, TRUE): TRUE, (BOTTOM, FALSE): BOTTOM, (BOTTOM, BOTTOM): BOTTOM,
    }
    expected_not = {TRUE: FALSE, FALSE: TRUE, BOTTOM: BOTTOM}
    ok = True
    for (a, b), want in expected_and.items():
        got = (LazyKleenean.const(a) & LazyKleenean.const(b)).at(0)
        ok = ok and got is want
    for (a, b), want in expected_or.items():
        got = (LazyKleenean.const(a) | LazyKleenean.const(b)).at(0)
        ok = ok and got is want
    for a, want in expected_not.items():
        ok = ok and (~LazyKleenean.const(a)).at(0) is want
    report("01 kleene-tables", ok, f"21 entries, {time.perf_counter() - t0:.3f}s")


def test_02_interval_soundness_randomized():
    """10,000 random (op, points) cases against exact rationals."""
    rng = random.Random(20260823)
    t0 = time.perf_counter()

    def rand_dyadic():
        return Dyadic(rng.randint(-(1 << 50), 1 << 50), rng.randint(-40, 40))

    def rand_interval():
        a, b = rand_dyadic(), rand_dyadic()
        return Interval(min(a, b), max(a, b))

    def point_in(box):
        t = Dyadic(rng.randint(0, 256), -8)
        return box.lo + (box.hi - box.lo) * t

    failures = 0
    for case in range(10_000):
        a, b = rand_interval(), rand_interval()
        x, y = point_in(a), point_in(b)
        fx, fy = x.to_fraction(), y.to_fraction()
        op = case % 4
        if op == 0:
            res, exact = a + b, fx + fy
        elif op == 1:
            res, exact = a - b, fx - fy
        elif op == 2:
            res, exact = a * b, fx * fy
        else:
            if b.straddles_zero():
                shift = Dyadic(1) + abs(b.lo) + abs(b.hi)
                b = Interval(b.lo + shift, b.hi + shift)
                y = point_in(b)
                fy = y.to_fraction()
            res, exact = a.div(b, rng.randint(8, 64)), fx / fy
        if not in_interval(res, exact):
            failures += 1
    report(
        "02 interval-soundness",
        failures == 0,
        f"10000 cases, {failures} failures, {time.perf_counter() - t0:.1f}s",
    )


def test_03_sqrt2_at_ten_thousand_bits():
    """sqrt(2) interval at 10^4 bits contains the integer-sqrt oracle."""
    bits = 10_000
    t0 = time.perf_counter()
    iv = real_sqrt(2).approx(bits)
    elapsed = time.perf_counter() - t0
    oracle = Dyadic(isqrt(2 << (2 * bits)), -bits)
    ok = iv.contains(oracle) and iv.width() <= Dyadic(1, -bits)
    report("03 sqrt2-10k-bits", ok, f"{elapsed:.2f}s (target < 10s)")


def test_04_sqrt_sqrt2_fourth_power():
    """sqrt(sqrt(2)) at 10^4 bits, verified by raising to the fourth power."""
    bits = 10_000
    t0 = time.perf_counter()
    iv = real_sqrt(real_sqrt(2)).approx(bits)
    elapsed = time.perf_counter() - t0
    lo4 = (iv.lo * iv.lo) * (iv.lo * iv.lo)
    hi4 = (iv.hi * iv.hi) * (iv.hi * iv.hi)
    ok = lo4 <= Dyadic(2) <= hi4 and iv.width() <= Dyadic(1, -bits)
    report("04 sqrtsqrt2-10k-bits", ok, f"{elapsed:.2f}s")


def test_05_max_of_zero_and_pi_minus_pi():
    """max(0, pi - pi) at 10^3 bits is 0 to full width."""
    t0 = time.perf_counter()
    iv = real_max(0, real_pi() - real_pi()).approx(1000)
    elapsed = time.perf_counter() - t0
    ok = in_interval(iv, Fraction(0)) and iv.width() <= Dyadic(1, -1000)
    report("05 max-zero-pi", ok, f"{elapsed:.2f}s (target < 30s)")


def test_06_trisection_rows():
    """Three root-finding problems at 10^3 bits against exact oracles."""
    bits = 1000
    prec = bits + 2
    sqrt2 = isqrt(2 << (2 * prec))  # floor(sqrt(2) * 2**prec)
    rows = [
        ("x-0.5", lambda x: x - Fraction(1, 2), Fraction(1, 2)),
        (
            "x(2-x)-0.5",
            lambda x: x * (2 - x) - Fraction(1, 2),
            1 - Fraction(sqrt2, 1 << (prec + 1)),  # 1 - sqrt(2)/2
        ),
        (
            "sqrt(x+0.5)-1",
            lambda x: real_sqrt(x + Fraction(1, 2)) - 1,
            Fraction(1, 2),
        ),
    ]
    tol = Fraction(1, 1 << bits)
    all_ok = True
    details = []
    for name, f, oracle in rows:
        t0 = time.perf_counter()
        iv = ivt_trisect(f, 0, 1).approx(bits)
        elapsed = time.perf_counter() - t0
        mid = iv.midpoint().to_fraction()
        ok = abs(mid - oracle) <= tol and iv.width() <= Dyadic(1, -bits)
        all_ok = all_ok and ok
        details.append(f"{name} {elapsed:.1f}s")
    report("06 trisection-rows", all_ok, "; ".join(details) + " (target < 60s each)")


def test_07_csqrt_totality():
    """(csqrt z)^2 = z within 2^-200 on a grid including the branch point."""
    t0 = time.perf_counter()
    tiny = Fraction(1, 1 << 40)
    grid = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(2)),
        (Fraction(3), Fraction(4)),
        (tiny, tiny),
    ]
    tol = Fraction(1, 1 << 200)
    all_ok = True
    for re, im in grid:
        z = Complex(CReal.from_fraction(re), CReal.from_fraction(im))
        w = csqrt(z)
        sq = w * w
        for comp, exact in ((sq.re, re), (sq.im, im)):
            iv = comp.approx(202)
            if abs(iv.midpoint().to_fraction() - exact) > tol:
                all_ok = False
    report(
        "07 csqrt-totality",
        all_ok,
        f"{len(grid)} inputs incl. 0, {time.perf_counter() - t0:.2f}s",
    )


def test_08_refinement_limit_is_one_candidate():
    """The 0-or-1 refinement commits: accuracy-5 interval excludes one."""

    def step(n, hint):
        if hint is None:
            br = select(LazyKleenean.const(TRUE), LazyKleenean.const(TRUE))
            value = 0 if br is Branch.LEFT else 1
        else:
            value = hint
        return CReal.from_fraction(value), value

    ok = True
    for _ in range(5):
        lim = limit_refine(None, step)
        iv = lim.approx(5)
        contains_zero = in_interval(iv, Fraction(0))
        contains_one = in_interval(iv, Fraction(1))
        ok = ok and (contains_zero != contains_one)
    report("08 zero-or-one-limit", ok, "5 independent runs")


def test_09_heron_quadratic_convergence():
    """|heron(x, n) - sqrt(x)| <= 2^-2^n for the five grid points, n <= 6."""
    all_ok = True
    for x in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        num = x.numerator << 200
        root = Fraction(isqrt(num // x.denominator), 1 << 100)  # 2^-100 oracle
        for n in range(7):
            mid = heron(CReal.from_fraction(x), n).approx(90).midpoint().to_fraction()
            bound = Fraction(1, 1 << (1 << n)) + Fraction(1, 1 << 85)
            if abs(mid - root) > bound:
                all_ok = False
    report("09 heron-quadratic", all_ok, "x in {0.25,0.5,1,1.5,2}, n <= 6")


def test_10_scaling_no_retry_blowup():
    """Doubling the accuracy of sqrt(2) costs at most 8x the time."""

    def best_time(bits: int) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            real_sqrt(2).approx(bits)
            best = min(best, time.perf_counter() - t0)
        return best

    t1 = max(best_time(10_000), 1e-3)  # floor guards against timer noise
    t2 = best_time(20_000)
    ratio = t2 / t1
    report("10 scaling", ratio <= 8.0, f"{t1:.3f}s -> {t2:.3f}s, ratio {ratio:.2f}")
