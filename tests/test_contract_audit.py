"""An audit of every ``approx`` answer that a real evaluation asks for.

The ``audit`` fixture wraps ``CReal.approx`` and checks each answer of
each node, inner nodes included, against the contract:

- it is at most ``2**-max(p, 0)`` wide, by the exact difference of its
  ends as Fractions rather than the library's own width test;
- it meets the intersection of that node's earlier answers.  Every
  answer contains the value, so on a sound node the intersection is
  never empty; a limit that switched candidates empties it as soon as
  its answers separate.

Where an oracle exists it also checks containment: every answer of a
pi node contains mpmath's pi, and every answer of a bench row's node
brackets the root of the row's exact polynomial.  The corpus is kept
shallow, since the wrapper adds a frame to every level of a tree.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from exactreal import algorithms, cli
from exactreal.algorithms import Complex, csqrt, ivt_trisect, real_sqrt
from exactreal.creal import CReal
from exactreal.expr import evaluate, parse

from test_cli import HIDDEN_ZERO
from test_fuzz import render, run_eval, short_expressions

# pi within 2**(2 - prec) of mpmath's value at prec bits, far above
# every accuracy the corpus asks for
_PI_PREC = 1 << 14
with mpmath.workprec(_PI_PREC):
    _man, _exp = (+mpmath.pi).man_exp
_PI_SLACK = Fraction(1, 1 << (_PI_PREC - 2))
PI_LO = Fraction(_man) * Fraction(2) ** _exp - _PI_SLACK
PI_HI = Fraction(_man) * Fraction(2) ** _exp + _PI_SLACK


def ends(iv) -> tuple[Fraction, Fraction]:
    scale = Fraction(2) ** iv.e
    return iv.a * scale, iv.b * scale


def contains_pi(iv) -> bool:
    lo, hi = ends(iv)
    return lo <= PI_LO and PI_HI <= hi


class Audit:
    def __init__(self):
        # node -> the exact intersection (lo, hi) of its answers so far; keyed
        # by the node itself, which stays alive, so no id is reused
        self.meet = {}
        # node -> a predicate that each of its answers must satisfy
        self.oracles = {}
        self.answers = 0

    def expect(self, node: CReal, holds) -> CReal:
        self.oracles[node] = holds
        return node

    def check(self, node: CReal, p: int, iv):
        self.answers += 1
        lo, hi = ends(iv)
        assert hi - lo <= Fraction(1, 1 << max(p, 0)), f"approx({p}) = {iv} is too wide"
        meet_lo, meet_hi = self.meet.get(node, (lo, hi))
        meet_lo, meet_hi = max(meet_lo, lo), min(meet_hi, hi)
        assert meet_lo <= meet_hi, f"approx({p}) = {iv} misses the node's earlier answers"
        self.meet[node] = meet_lo, meet_hi
        if node._fn is algorithms._pi_interval:
            assert contains_pi(iv), f"approx({p}) = {iv} misses pi"
        holds = self.oracles.get(node)
        assert holds is None or holds(iv), f"approx({p}) = {iv} misses the value"


@pytest.fixture
def audit(monkeypatch):
    audit = Audit()
    approx = CReal.approx

    def audited(node, p):
        iv = approx(node, p)
        audit.check(node, p, iv)
        return iv

    monkeypatch.setattr(CReal, "approx", audited)
    yield audit
    assert audit.answers > 0


def brackets_root(poly):
    """Every answer of a node whose value is the root of ``poly``, which
    increases across each answer: the exact sign test of ``cli._verified``."""
    return lambda iv: poly(iv.lo) <= 0 <= poly(iv.hi)


def contains(value: Fraction):
    def holds(iv):
        lo, hi = ends(iv)
        return lo <= value <= hi

    return holds


# coarse accuracies first, so that later answers must meet them
LADDER = [*range(0, 64, 3), 100]


@pytest.mark.parametrize("bits", [200, 500])
@pytest.mark.parametrize("row", list(cli._BENCH_ROWS))
def test_bench_rows(audit, row, bits):
    _, build, poly = cli._BENCH_ROWS[row]
    node = audit.expect(build(), brackets_root(poly))
    for p in [*LADDER, bits]:
        node.approx(p)


# sqrt(1/m**3) and m*sqrt(2) for m up to 2**10, every 16th: below 40 bits
# many of their answers come within a bit of 2**-p wide, where a width
# test one bit too loose lets answers up to 1.25 * 2**-p through
ROOTS = {
    "sqrt(1/m^3)": (lambda m: real_sqrt(Fraction(1, m**3)), lambda m: lambda x: x * x * m**3 - 1),
    "m*sqrt(2)": (lambda m: real_sqrt(2) * m, lambda m: lambda x: x * x - 2 * m * m),
}


@pytest.mark.parametrize("row", list(ROOTS))
def test_roots_next_to_the_width_bound(audit, row):
    build, poly = ROOTS[row]
    for m in range(1, 2**10 + 1, 16):
        node = audit.expect(build(m), brackets_root(poly(m)))
        for p in range(40):
            node.approx(p)


# Expressions with repeated subtrees, each parsed to one node that
# answers every parent sharing it, and the exact parts of their values.
SHARED = {
    "sqrt(2) - sqrt(2)": (0,),
    "(pi - 0.1) / (pi - 0.1)": (1,),
    "abs(sqrt(3) - sqrt(3)) + sqrt(3) * sqrt(3)": (3,),
    "max(1/3, 0.3) * 3 - max(1/3, 0.3) * 3": (0,),
    "csqrt(0.1, 3) * csqrt(0.1, 3)": (Fraction(1, 10), 3),
    "csqrt(0 - 4, pi - pi) * csqrt(0 - 4, pi - pi)": (-4, 0),
    HIDDEN_ZERO: (0, 0),
}


@pytest.mark.parametrize("src", list(SHARED))
def test_shared_subtrees(audit, src):
    value = evaluate(parse(src))
    parts = (value.re, value.im) if isinstance(value, Complex) else (value,)
    for part, exact in zip(parts, SHARED[src], strict=True):
        audit.expect(part, contains(Fraction(exact)))
    for p in LADDER:
        for part in parts:
            part.approx(p)


@settings(
    max_examples=50,
    deadline=None,
    # one audit for every example: each builds nodes of its own
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(short_expressions, st.integers(1, 40))
def test_fuzz_expressions(audit, tree, digits):
    code, _, err = run_eval(render(tree), digits)
    assert code in (0, 1, 2), err


_TINY = Fraction(1, 1 << 40)
CSQRT_GRID = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1)),
    (Fraction(-3), Fraction(-4)),
    (_TINY, _TINY),
    (-_TINY, Fraction(0)),
]


@pytest.mark.parametrize("re,im", CSQRT_GRID)
def test_csqrt_around_zero(audit, re, im):
    w = csqrt(Complex(CReal.from_fraction(re), CReal.from_fraction(im)))
    square = w * w
    audit.expect(square.re, contains(re))
    audit.expect(square.im, contains(im))
    for p in [*LADDER, 200]:
        w.re.approx(p)
        w.im.approx(p)
    square.re.approx(200)
    square.im.approx(200)


IVT_ROWS = {
    # increasing, through sqrt: the root is 1/4
    "increasing": (lambda x: algorithms.real_sqrt(x) - Fraction(1, 2), 0, 1, Fraction(1, 4)),
    # decreasing, with a root that no trisection point hits
    "decreasing": (lambda x: Fraction(1, 3) - x * 7, -1, 1, Fraction(1, 21)),
    # the root is a grid point: a step whose point is the root compares
    # an exact zero forever there, so the other candidate must win
    "grid-root": (lambda x: x - Fraction(1, 2), 0, 1, Fraction(1, 2)),
    # decimal ends over one denominator: most points are not dyadic
    "decimal-bracket": (
        lambda x: x - Fraction(3, 10),
        Fraction(1, 10),
        Fraction(7, 10),
        Fraction(3, 10),
    ),
}


@pytest.mark.parametrize("row", list(IVT_ROWS))
def test_ivt(audit, row):
    f, a, b, root = IVT_ROWS[row]
    node = audit.expect(ivt_trisect(f, a, b), contains(root))
    for p in [*LADDER, 300]:
        node.approx(p)


# the same rows, with select drawing among its TRUE candidates
@pytest.mark.parametrize("re,im", CSQRT_GRID)
def test_csqrt_around_zero_under_random_select(audit, random_select, re, im):
    test_csqrt_around_zero(audit, re, im)


@pytest.mark.parametrize("row", ["increasing", "decreasing"])
def test_ivt_under_random_select(audit, random_select, row):
    test_ivt(audit, row)
