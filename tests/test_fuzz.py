"""Fuzzing ``exactreal eval``, ``exactreal ivt`` and ``exactreal bench``
with random input.

Every run must end in exit code 0, 1 or 2 with at most one line on
stderr and no escaping exception.  A real result built from short
literals must also be within ``10**-digits`` of mpmath, or of
``decimal`` at 1,000 to 5,000 digits, and a root found by ``ivt`` within
``10**-digits`` of a root of odd multiplicity inside the bracket.  A
``bench`` row is ok or exits 2, and never prints FAILED.
"""

import contextlib
import io
import operator
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
from hypothesis import given, settings, strategies as st

from exactreal import cli
from exactreal.creal import bits_for_digits

short_literals = st.one_of(
    st.integers(0, 999).map(str),
    st.builds("{}.{}".format, st.integers(0, 99), st.from_regex(r"[0-9]{1,3}", fullmatch=True)),
)
# around the interpreter's 4,300-digit limit on str-to-int conversion
long_literals = st.builds(
    lambda point, digit, n: point + digit * n,
    st.sampled_from(["", "0."]),
    st.sampled_from("123456789"),
    st.integers(4000, 5000),
)
tiny_literals = st.integers(1, 30).map(lambda n: "0." + "0" * n + "1")

short_leaves = st.one_of(short_literals.map(lambda text: ("num", text)), st.just(("pi",)))
leaves = st.one_of(short_leaves, long_literals.map(lambda text: ("long", text)))


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: ("bin", *t)),
        # cancellations: exactly zero, and nearly
        children.map(lambda c: ("bin", "-", c, c)),
        st.tuples(children, tiny_literals).map(
            lambda t: ("bin", "-", ("bin", "+", t[0], ("num", t[1])), t[0])
        ),
        children.map(lambda c: ("neg", c)),
        pairs.map(lambda t: ("max", *t)),
        children.map(lambda c: ("abs", c)),
        children.map(lambda c: ("sqrt", c)),
        pairs.map(lambda t: ("csqrt", *t)),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)
# the same grammar without the literals near the 4,300-digit limit
short_expressions = st.recursive(short_leaves, _extend, max_leaves=8)


def render(t) -> str:
    kind, *args = t
    if kind in ("num", "long"):
        return args[0]
    if kind in ("pi", "x"):
        return kind
    if kind == "neg":
        return "-" + render(args[0])
    if kind == "bin":
        op, left, right = args
        return f"({render(left)}{op}{render(right)})"
    return f"{kind}({', '.join(render(a) for a in args)})"


def kinds(t) -> set:
    return {t[0]}.union(*(kinds(a) for a in t[1:] if isinstance(a, tuple)))


def sqrt_depth(t) -> int:
    """The longest chain of nested square roots: each halves the number
    of correct digits of a radicand near zero."""
    inner = max((sqrt_depth(a) for a in t[1:] if isinstance(a, tuple)), default=0)
    return inner + (t[0] == "sqrt")


_MP_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def mp_value(t):
    kind, *args = t
    if kind == "num":
        return mpmath.mpf(args[0])
    if kind == "pi":
        return +mpmath.pi
    if kind == "bin":
        return _MP_BINARY[args[0]](mp_value(args[1]), mp_value(args[2]))
    values = [mp_value(a) for a in args]
    if kind == "neg":
        return -values[0]
    if kind == "max":
        return max(values)
    if kind == "abs":
        return abs(values[0])
    # a radicand that is zero may round below it; a negative one exits 2
    return mpmath.sqrt(max(values[0], 0))


def run_cli(argv):
    """``cli.main`` in-process: (exit code, stdout, stderr).  A usage
    error's ``SystemExit`` with a message is exit 1 with that message on
    stderr, as the interpreter would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            if not isinstance(exc.code, str):
                raise
            print(exc.code, file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_eval(expr: str, digits: int):
    return run_cli(["eval", "--digits", str(digits), "--budget", "4096", "--", expr])


@settings(max_examples=300, deadline=None)
@given(expressions, st.integers(1, 40))
def test_eval_ends_in_an_exit_code_and_one_line(tree, digits):
    code, out, err = run_eval(render(tree), digits)
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
    if code != 0 or kinds(tree) & {"csqrt", "long"}:
        return
    assert err == ""
    # short literals and a few levels keep magnitudes below 10**100
    with mpmath.workdps((digits + 150) * 2 ** sqrt_depth(tree)):
        error = abs(mpmath.mpf(out.strip()) - mp_value(tree))
        assert error <= mpmath.mpf(10) ** -digits


# -- eval at 1,000 to 5,000 digits, against decimal ---------------------

arithmetic = st.recursive(
    short_literals.map(lambda text: ("num", text)),
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: ("bin", *t)),
        children.map(lambda c: ("sqrt", c)),
    ),
    max_leaves=5,
)


def decimal_value(t) -> Decimal:
    kind, *args = t
    if kind == "num":
        return Decimal(args[0])
    if kind == "bin":
        return _MP_BINARY[args[0]](decimal_value(args[1]), decimal_value(args[2]))
    # a radicand that is zero may round below it; a negative one exits 2
    return max(decimal_value(args[0]), Decimal(0)).sqrt()


@settings(max_examples=25, deadline=None)
@given(arithmetic, st.integers(1000, 5000))
def test_eval_at_thousands_of_digits_against_decimal(tree, digits):
    # a square root of a hidden zero asks 2p + 8 bits: room for nesting
    budget = 8 * bits_for_digits(digits)
    argv = ["eval", "--digits", str(digits), "--budget", str(budget), "--", render(tree)]
    code, out, err = run_cli(argv)
    assert code in (0, 2)
    assert len(err.splitlines()) <= 1
    if code != 0:
        return
    # 40 more digits, doubled per nested square root as in the mpmath check
    with localcontext() as ctx:
        ctx.prec = (digits + 40) * 2 ** sqrt_depth(tree)
        error = abs(Decimal(out.strip()) - decimal_value(tree))
        assert error <= Decimal(10) ** -digits


# -- ivt on products of linear factors ----------------------------------


def decimal_text(k: int, places: int) -> str:
    """k * 10**-places in the grammar's literal form."""
    whole, frac = divmod(abs(k), 10**places)
    return f"{'-' if k < 0 else ''}{whole}.{frac:0{places}d}"


@st.composite
def ivt_problems(draw):
    """(c, [(k, m), ...], a, b): f = c * prod (x - k/100)**m with 1 to 3
    roots of multiplicity 1 to 3, the first of them inside the bracket
    [a/100, b/100]; c is in tenths."""
    a, b = sorted(draw(st.lists(st.integers(-400, 400), min_size=2, max_size=2, unique=True)))
    roots = draw(st.lists(st.integers(-400, 400), min_size=0, max_size=2))
    roots = [draw(st.integers(a, b)), *roots]
    multiplicities = draw(st.lists(st.integers(1, 3), min_size=len(roots), max_size=len(roots)))
    c = draw(st.integers(-50, 50).filter(bool))
    return c, list(zip(roots, multiplicities)), a, b


def render_polynomial(c: int, roots) -> str:
    factors = [decimal_text(c, 1)]
    for k, m in roots:
        sign = "+" if k < 0 else "-"
        factors += [f"(x{sign}{decimal_text(abs(k), 2)})"] * m
    return "*".join(factors)


@settings(max_examples=40, deadline=None)
@given(ivt_problems(), st.integers(256, 1024), st.integers(1, 30))
def test_ivt_lands_on_a_root_of_odd_multiplicity(problem, budget, digits):
    c, roots, a, b = problem
    argv = ["ivt", "--digits", str(digits), "--budget", str(budget), "--"]
    argv += [render_polynomial(c, roots), decimal_text(a, 2), decimal_text(b, 2)]
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
    if code != 0:
        return
    value = Fraction(out.strip())
    multiplicity = Counter()
    for k, m in roots:
        multiplicity[Fraction(k, 100)] += m
    a, b = Fraction(a, 100), Fraction(b, 100)
    odd_roots = [r for r, m in multiplicity.items() if m % 2 and a <= r <= b]
    assert any(abs(value - r) <= Fraction(1, 10**digits) for r in odd_roots), out


# -- ivt on random trees with x leaves ----------------------------------

functions_of_x = st.recursive(st.one_of(st.just(("x",)), short_leaves), _extend, max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(
    functions_of_x,
    st.lists(st.integers(-400, 400), min_size=3, max_size=3, unique=True).map(sorted),
    st.booleans(),
    st.integers(256, 1024),
    st.integers(1, 30),
)
def test_ivt_on_trees_ends_in_an_exit_code_and_one_line(tree, ends, rooted, budget, digits):
    # f = T(x), which may have no sign change, a pole or a complex value,
    # each an exit 1 or 2 within the budget; or f = (x - c)(1 + |T(x)|),
    # whose one zero in the bracket is c
    a, c, b = (decimal_text(k, 2) for k in ends)
    expr = f"(x-({c}))*(1+abs({render(tree)}))" if rooted else render(tree)
    argv = ["ivt", "--digits", str(digits), "--budget", str(budget), "--", expr, a, b]
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
    if code == 0 and rooted:
        assert abs(Fraction(out.strip()) - Fraction(c)) <= Fraction(1, 10**digits), out


# -- bench rows at random sizes -----------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(cli._BENCH_ROWS)), st.integers(1, 1000), st.integers(256, 4096))
def test_bench_row_is_ok_or_exhausted(row, bits, budget):
    argv = ["bench", "--seed-row", row, "--bits", str(bits), "--budget", str(budget)]
    code, out, err = run_cli(argv)
    assert "FAILED" not in out
    assert len(err.splitlines()) <= 1
    if code == 0:
        assert out.splitlines()[1].split()[-1] == "ok", out
    else:
        assert code == 2, err
