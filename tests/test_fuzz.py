"""Fuzzing ``exactreal eval`` with random expressions.

Every expression must end in exit code 0, 1 or 2 with at most one line
on stderr and no escaping exception.  A real result built from short
literals must also be within ``10**-digits`` of mpmath.
"""

import contextlib
import io
import operator

import mpmath
from hypothesis import given, settings, strategies as st

from exactreal import cli

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

leaves = st.one_of(
    short_literals.map(lambda text: ("num", text)),
    st.just(("pi",)),
    long_literals.map(lambda text: ("long", text)),
)


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


def render(t) -> str:
    kind, *args = t
    if kind in ("num", "long"):
        return args[0]
    if kind == "pi":
        return "pi"
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


def run_eval(expr: str, digits: int):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--digits", str(digits), "--budget", "4096", "--", expr])
    return code, out.getvalue(), err.getvalue()


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
