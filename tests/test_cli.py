"""Expression parsing and evaluation, and the command-line front end."""

import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from exactreal.cli import main
from exactreal.creal import CReal, bits_for_digits, to_decimal
from exactreal.dyadic import Dyadic
from exactreal.errors import EffortExhausted, ParseError
from exactreal.expr import evaluate, parse
from exactreal.interval import Interval
from exactreal import algorithms, cli, creal
from exactreal.kleenean import DEFAULT_BUDGET, LazyKleenean, current_budget, effort_budget


def shape(node):
    """A parsed node as nested tuples: a literal stays its Fraction, and a
    Call becomes (name, *the shapes of its arguments)."""
    if isinstance(node, Fraction):
        return node
    return (node.name, *map(shape, node.args))


X, PI = ("x",), ("pi",)


class TestParse:
    def test_benchmark_formula(self):
        assert shape(parse("max(0, pi - pi)")) == ("max", 0, ("-", PI, PI))

    def test_repeated_subtree_is_one_node(self):
        a, b = parse("pi - pi").args
        assert a is b
        a, b = parse("6 + 6.0").args
        assert a is b
        left, right = parse("(6 + (pi - pi)) - (6 + (pi - pi))").args
        assert left is right
        assert left.args[1].args[0] is left.args[1].args[1]

    def test_quadratic_formula(self):
        assert shape(parse("x*(2-x)-0.5")) == (
            "-", ("*", X, ("-", 2, X)), Fraction(1, 2)
        )

    def test_precedence_and_unary_minus(self):
        assert shape(parse("1+2*3")) == ("+", 1, ("*", 2, 3))
        assert shape(parse("-x/2")) == ("/", ("neg", X), 2)
        assert shape(parse("2*-3")) == ("*", 2, ("neg", 3))
        assert shape(parse("-(1+2)*3")) == ("*", ("neg", ("+", 1, 2)), 3)
        assert shape(parse("--2")) == ("neg", ("neg", 2))

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("1+")
        assert err.value.position == 2
        assert "column 3" in str(err.value)

    def test_error_cases(self):
        for src in ("max(1)", "foo(1)", "(1", "1 $ 2", "sqrt 2"):
            with pytest.raises(ParseError):
                parse(src)

    @pytest.mark.parametrize(
        "src, message",
        [
            ("", "unexpected 'end of input' (column 1)"),
            ("-", "unexpected 'end of input' (column 2)"),
            ("max(1,2,)", "unexpected ')' (column 9)"),
            ("sqrt()", "unexpected ')' (column 6)"),
            ("1 2", "unexpected '2' (column 3)"),
            ("x(1)", "unexpected '(' (column 2)"),
            ("pi()", "unexpected '(' (column 3)"),
            ("max(1 2)", "expected ')' (column 7)"),
            ("1..2", "unexpected character '.' (column 2)"),
            (".5", "unexpected character '.' (column 1)"),
            ("1 $ 2", "unexpected character '$' (column 3)"),
            ("sqrt(2", "expected ')' (column 7)"),
            ("abs(,1)", "unexpected ',' (column 5)"),
            ("max", "expected '(' (column 4)"),
            ("foo(1)", "unknown name 'foo' (column 1)"),
            ("neg(1)", "unknown name 'neg' (column 1)"),
            ("max(1)", "max takes 2 argument(s) (column 1)"),
            ("csqrt(csqrt(0,1),1)", "csqrt does not accept complex arguments (column 1)"),
            ("csqrt(1,2)/2", "/ does not accept complex arguments (column 11)"),
            ("1+x", "unbound variable 'x' (column 3)"),
            ("1" * 5000, "numeric literal has too many digits (column 1)"),
            ("2*0." + "1" * 5000, "numeric literal has too many digits (column 3)"),
        ],
    )
    def test_error_message_and_column(self, src, message):
        with pytest.raises(ParseError) as err:
            evaluate(parse(src))
        assert str(err.value) == message


# Random tree shapes over every operation but x's binding, and their
# source text with the fewest parentheses the grammar needs and with a
# pair around every operator.
_LITERALS = st.builds(
    lambda n, k: Fraction(n, 10**k), st.integers(0, 10**7), st.integers(0, 4)
)
_TREES = st.recursive(
    st.one_of(_LITERALS, st.just(X), st.just(PI)),
    lambda children: st.one_of(
        st.builds(
            lambda op, a, b: (op, a, b), st.sampled_from("+-*/"), children, children
        ),
        st.builds(
            lambda name, a: (name, a), st.sampled_from(["neg", "abs", "sqrt"]), children
        ),
        st.builds(
            lambda name, a, b: (name, a, b),
            st.sampled_from(["max", "csqrt"]),
            children,
            children,
        ),
    ),
    max_leaves=12,
)
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def _level(node) -> int:
    """How tightly a node's text binds: anything but + - * / is an atom."""
    return _LEVEL.get(node[0], 3) if isinstance(node, tuple) else 3


def _literal(value: Fraction) -> str:
    frac = 0
    while value.denominator != 1:
        value *= 10
        frac += 1
    digits = str(value.numerator).rjust(frac + 1, "0")
    return f"{digits[:-frac]}.{digits[-frac:]}" if frac else digits


def _render(node, full: bool) -> str:
    """Source text of a tree shape: with a pair of parentheses around every
    operator when ``full``, else only where precedence or the left
    associativity of + - * / needs one."""
    if isinstance(node, Fraction):
        return _literal(node)
    name, *children = node
    if not children:
        return name
    args = [_render(a, full) for a in children]
    if name == "neg":
        if full:
            return f"(-{args[0]})"
        return f"-({args[0]})" if _level(children[0]) < 3 else f"-{args[0]}"
    if name not in _LEVEL:
        return f"{name}({', '.join(args)})"
    if full:
        return f"({args[0]} {name} {args[1]})"
    level = _LEVEL[name]
    # the right operand needs a pair at the operator's own level too
    for i, child in enumerate(children):
        if _level(child) < level + i:
            args[i] = f"({args[i]})"
    return f"{args[0]} {name} {args[1]}"


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_rendered_tree_parses_back(tree):
    assert shape(parse(_render(tree, full=False))) == tree
    assert shape(parse(_render(tree, full=True))) == tree


class TestEvaluate:
    def check(self, src, exact, p=60, env=None):
        iv = evaluate(parse(src), env=env).approx(p)
        assert iv.lo.to_fraction() <= exact <= iv.hi.to_fraction()

    def test_non_dyadic_literals_stay_exact(self):
        self.check("0.1*10", Fraction(1))
        self.check("0.1", Fraction(1, 10))

    def test_non_dyadic_literal_makes_no_division(self, monkeypatch):
        calls = 0
        div = Interval.div

        def counted(self, other, bits):
            nonlocal calls
            calls += 1
            return div(self, other, bits)

        monkeypatch.setattr(Interval, "div", counted)
        self.check("4.73", Fraction(473, 100), p=1000)
        assert calls == 0

    def test_literal_factor_and_divisor_scale_without_interval_arithmetic(
        self, monkeypatch
    ):
        # an exact operand scales the other one's interval ends: no
        # interval product and no interval quotient
        calls = []
        for name in ("__mul__", "div"):
            original = getattr(Interval, name)
            monkeypatch.setattr(
                Interval, name, lambda *args, f=original: calls.append(f) or f(*args)
            )
        iv = evaluate(parse("sqrt(2) * 3.7 / 7")).approx(2000)
        assert calls == []
        assert iv.width() <= Dyadic(1, -2000)
        # sqrt(2) * 37/70 squared is 2 * 37**2 / 70**2
        lo, hi = iv.lo.to_fraction(), iv.hi.to_fraction()
        assert lo * lo <= Fraction(2 * 37**2, 70**2) <= hi * hi

    @pytest.mark.parametrize(
        "src", ["sqrt(2) * 3.7", "sqrt(2) * -3.7", "-3.7 * sqrt(2)", "sqrt(2) * (0-3.7)"]
    )
    def test_signed_literal_factor_scales_without_interval_arithmetic(self, monkeypatch, src):
        # a negated or subtracted literal folds into one exact leaf, so the
        # product scales sqrt(2)'s interval, and the square root is the
        # one node that refines
        products, refined = [], []
        mul, refine = Interval.__mul__, creal._refined
        monkeypatch.setattr(Interval, "__mul__", lambda *args: products.append(args) or mul(*args))
        monkeypatch.setattr(creal, "_refined", lambda *args: refined.append(args) or refine(*args))
        iv = evaluate(parse(src)).approx(2000)
        assert (len(products), len(refined)) == (0, 1)
        assert iv.width() <= Dyadic(1, -2000)
        # |sqrt(2) * 3.7| squared is 2 * 37**2 / 10**2
        lo, hi = iv.lo.to_fraction(), iv.hi.to_fraction()
        if "-" in src:
            lo, hi = -hi, -lo
        assert 0 < lo and lo * lo <= Fraction(2 * 37**2, 10**2) <= hi * hi

    def test_with_variable(self):
        self.check("x*(2-x)", Fraction(3, 4), env={"x": CReal.from_fraction(Fraction(1, 2))})

    def test_doubled_tree_is_one_node_per_level(self, monkeypatch):
        src = "2"
        for _ in range(12):
            src = f"({src}+{src})"
        root = parse(src)
        seen, todo = set(), [root]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                todo.extend(getattr(node, "args", ()))
        assert len(seen) == 13
        # as a tree it has 8,191 nodes, and made a CReal of each
        made = 0
        init = CReal.__init__

        def counted(self, fn):
            nonlocal made
            made += 1
            init(self, fn)

        monkeypatch.setattr(CReal, "__init__", counted)
        value = evaluate(root)
        assert made == 13
        assert to_decimal(value, 5) == "8192.00000"

    def test_unbound_variable(self):
        with pytest.raises(ParseError):
            evaluate(parse("x+1"))

    def test_complex_promotion(self):
        z = evaluate(parse("csqrt(0, 2) * csqrt(0, 2)"))
        iv = z.im.approx(60)
        assert iv.lo.to_fraction() <= 2 <= iv.hi.to_fraction()

    def test_max_abs_sqrt_make_no_choice(self, monkeypatch):
        tests = 0
        at = LazyKleenean.at

        def counted(self, effort):
            nonlocal tests
            tests += 1
            return at(self, effort)

        monkeypatch.setattr(LazyKleenean, "at", counted)
        value = evaluate(parse("max(sqrt(2), 1.4142) - abs(sqrt(3) - sqrt(5))"))
        # sqrt(2) - (sqrt(5) - sqrt(3)) = 0.9101...
        assert to_decimal(value, 2000).startswith("0.9101")
        assert tests == 0

    def test_complex_restrictions(self):
        with pytest.raises(ParseError):
            evaluate(parse("1 / csqrt(0, 2)"))
        with pytest.raises(ParseError):
            evaluate(parse("abs(csqrt(0, 2))"))


class TestScopedBudget:
    @pytest.mark.parametrize("src", ["1/(pi-pi)", "1/0"])
    def test_arithmetic_nodes_obey_the_scope(self, src):
        value = evaluate(parse(src))
        start = time.perf_counter()
        with effort_budget(64), pytest.raises(EffortExhausted) as err:
            value.approx(10)
        assert time.perf_counter() - start < 1
        assert err.value.budget == 64
        assert "effort budget 64 exhausted" in str(err.value)


# A branch point through a zero hidden behind repeated subtrees, as in
# the benchmark's hidden-zero probe.
_Z = "(6+(pi-pi))-(6+(pi-pi))"
HIDDEN_ZERO = f"csqrt(sqrt(sqrt({_Z}) - sqrt({_Z})), pi - pi)"


@pytest.fixture
def pi_requests(monkeypatch):
    """The accuracy of every pi interval computed, in order."""
    asked = []
    pi_interval = algorithms._pi_interval

    def counted(n):
        asked.append(n)
        return pi_interval(n)

    monkeypatch.setattr(algorithms, "_pi_interval", counted)
    return asked


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_eval_max_pi_cancellation(self, capsys):
        code, out, _ = self.run(capsys, "eval", "max(0, pi-pi)", "--bits", "100")
        assert code == 0
        assert float(out) == 0.0

    def test_eval_sqrt2_digits(self, capsys):
        code, out, _ = self.run(capsys, "eval", "sqrt(2)", "--digits", "20")
        assert code == 0
        oracle = Fraction(isqrt(2 * 10**40), 10**20)
        assert abs(Fraction(out.strip()) - oracle) <= Fraction(2, 10**20)

    def test_eval_division_by_zero_exits_2(self, capsys):
        code, _, err = self.run(capsys, "eval", "1/0", "--bits", "10", "--budget", "4096")
        assert code == 2
        assert "4096" in err

    def test_eval_leading_minus_after_double_dash(self, capsys):
        code, out, _ = self.run(capsys, "eval", "--digits", "5", "--", "-pi")
        assert code == 0
        assert out.strip() == "-3.14159"

    def test_eval_pi_at_100000_bits(self, capsys):
        code, out, _ = self.run(capsys, "eval", "pi", "--bits", "100000")
        assert code == 0
        whole, frac = out.strip().split(".")
        digits = len(frac)
        assert whole == "3" and digits > 30_000
        mpmath.mp.prec = 100_064
        oracle = int(mpmath.floor(mpmath.pi * mpmath.mpf(10) ** digits))
        # printed within 10**-digits of pi; the oracle is its floor
        assert abs(int(Decimal(whole + frac)) - oracle) <= 2

    def test_eval_division_by_hidden_zero_exits_2(self, capsys, pi_requests):
        # the divisor's interval at 16k bits must not be formatted
        code, _, err = self.run(capsys, "eval", "1/(pi-pi)", "--budget", "16384")
        assert code == 2
        # the quotient, whose divisor never left zero, is named as the
        # cause, not the difference that was asked past the budget
        assert err == (
            "effort exhausted: effort budget 16384 exhausted while refining a quotient\n"
        )
        # pi - pi is one pi node minus itself: seven accuracies of one pi,
        # where two pi leaves made fourteen intervals
        assert len(pi_requests) == len(set(pi_requests)) == 7

    def test_eval_sqrt_of_negative_exits_2(self, capsys):
        # the radicand is certified negative at the first working precision
        start = time.perf_counter()
        code, _, err = self.run(capsys, "eval", "sqrt(0-pi)")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert err.startswith("effort exhausted") and len(err.splitlines()) == 1

    def test_hidden_zero_asks_pi_at_few_bits(self, capsys, pi_requests):
        # a branch point hidden behind three nested roots: each root asks
        # its radicand at about twice the bits, so 2**3, times 2 of slack
        code, out, _ = self.run(capsys, "eval", HIDDEN_ZERO, "--digits", "40")
        assert code == 0
        assert out.split() == ["0." + "0" * 40] * 2
        bits = bits_for_digits(40)
        assert bits == 135
        assert max(pi_requests) <= 16 * bits

    def test_hidden_zero_computes_its_one_pi_once_per_precision(self, capsys, pi_requests):
        # the text holds ten pi leaves; as a tree they asked for 160 pi
        # intervals at this size, and shared they are one pi node, asked
        # once per accuracy
        code, out, _ = self.run(capsys, "eval", HIDDEN_ZERO, "--digits", "2560")
        assert code == 0
        assert out.split() == ["0." + "0" * 2560] * 2
        assert len(pi_requests) == len(set(pi_requests)) == 17

    @pytest.mark.parametrize(
        "argv",
        [("eval", "sqrt(csqrt(1,0))"), ("eval", "csqrt(csqrt(1,0), 0)")],
        ids=["sqrt", "csqrt"],
    )
    def test_complex_argument_exits_1(self, capsys, argv):
        code, _, err = self.run(capsys, *argv)
        assert code == 1
        assert "does not accept complex arguments" in err
        assert len(err.splitlines()) == 1

    def test_eval_nested_csqrt_exits_1(self, capsys):
        code, _, err = self.run(capsys, "eval", "csqrt(csqrt(1,0),0)")
        assert code == 1
        assert "does not accept complex arguments" in err

    def test_budget_restored_after_main(self, capsys):
        before = current_budget()
        assert self.run(capsys, "eval", "1/0", "--budget", "16")[0] == 2
        assert current_budget() == before
        assert self.run(capsys, "eval", "2", "--budget", "16")[0] == 0
        assert current_budget() == before

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "1/3"),
            ("eval", "sqrt(2)"),
            ("eval", "csqrt(2, 1)"),
            ("ivt", "x-0.5", "0", "1"),
            # leaves that are not arithmetic nodes
            ("eval", "pi"),
            ("eval", "0.1"),
            ("eval", "max(1,2)"),
            # exact values answer at every accuracy without a budget check
            ("eval", "2"),
            ("eval", "0.5"),
        ],
    )
    def test_bits_above_budget_exit_2(self, capsys, argv):
        # no working precision above the budget is ever tried
        start = time.perf_counter()
        code, _, err = self.run(capsys, *argv, "--bits", "100000000000")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert err.startswith("effort exhausted") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, digits",
        [
            # digits whose bits are past the dyadic exponent range are
            # refused before anything is computed, for exact values too
            (("eval", "1/3"), 10**19),
            (("ivt", "x-0.5", "0", "1"), 10**19),
            (("ivt", "x-0.5", "0", "1"), 10**22),
            (("eval", "2"), 10**19),
        ],
    )
    def test_budget_past_the_machine_exit_2(self, capsys, argv, digits):
        start = time.perf_counter()
        budget = str(10 * digits)
        code, _, err = self.run(capsys, *argv, "--digits", str(digits), "--budget", budget)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("precision out of range") and len(err.splitlines()) == 1

    def test_output_limit_is_the_larger_budget(self, capsys):
        # the largest output the default budget allows, and one digit more
        digits = 3 * DEFAULT_BUDGET // 10
        while bits_for_digits(digits + 1) <= DEFAULT_BUDGET:
            digits += 1
        code, out, _ = self.run(capsys, "eval", "2", "--digits", str(digits), "--budget", "16")
        assert code == 0 and len(out.strip()) == digits + 2
        code, _, err = self.run(capsys, "eval", "2", "--digits", str(digits + 1))
        assert code == 2 and err.startswith("effort exhausted")
        limit = bits_for_digits(digits + 1)
        argv = ("eval", "0.25", "--digits", str(digits + 1), "--budget", str(limit))
        code, out, _ = self.run(capsys, *argv)
        assert code == 0 and out.startswith("0.25000")

    @pytest.mark.parametrize("digits", [5_000, 20_000])
    def test_eval_sqrt2_past_int_str_limit(self, capsys, digits):
        code, out, _ = self.run(capsys, "eval", "sqrt(2)", "--digits", str(digits))
        assert code == 0
        whole, frac = out.strip().split(".")
        assert whole == "1" and len(frac) == digits
        oracle = isqrt(2 * 10 ** (2 * digits))
        # int(Decimal(s)) has no digit limit, unlike int(s)
        assert abs(int(Decimal(whole + frac)) - oracle) <= 2

    @pytest.mark.parametrize(
        "src,value",
        [
            ("+".join(["1"] * 400), "400.000"),
            ("(" * 300 + "1" + ")" * 300, "1.000"),
            ("max(1," * 13 + "1" + ")" * 13, "1.000"),
            ("max(1," * 40 + "1" + ")" * 40, "1.000"),
        ],
        ids=["sum", "parens", "max13", "max40"],
    )
    def test_deep_nesting_evaluates(self, capsys, src, value):
        code, out, _ = self.run(capsys, "eval", src)
        assert code == 0
        assert out.startswith(value)

    @pytest.mark.parametrize(
        "src",
        ["+".join(["1"] * 3000), "(" * 3000 + "1" + ")" * 3000],
        ids=["sum", "parens"],
    )
    def test_deep_nesting_exits_1(self, capsys, src):
        code, _, err = self.run(capsys, "eval", src)
        assert code == 1
        assert err == "expression nests too deeply\n"
        assert "Traceback" not in err

    def test_parse_error_exits_1(self, capsys):
        code, _, err = self.run(capsys, "eval", "1+")
        assert code == 1
        assert "column 3" in err

    @pytest.mark.parametrize(
        "literal", ["1" * 5000, "0." + "1" * 5000], ids=["integer", "fraction"]
    )
    @pytest.mark.parametrize(
        "argv, column",
        [(("eval", "{}"), 1), (("ivt", "x-{}", "0", "1"), 3)],
        ids=["eval", "ivt"],
    )
    def test_literal_past_the_int_str_limit_exits_1(self, capsys, literal, argv, column):
        argv = [arg.format(literal) for arg in argv]
        code, _, err = self.run(capsys, *argv)
        assert code == 1
        assert err == f"parse error: numeric literal has too many digits (column {column})\n"

    def test_unbound_variable_reports_its_column(self, capsys):
        code, _, err = self.run(capsys, "eval", "1+x")
        assert code == 1
        assert err == "parse error: unbound variable 'x' (column 3)\n"

    def test_ivt_linear(self, capsys):
        code, out, _ = self.run(capsys, "ivt", "x-0.5", "0", "1", "--bits", "60")
        assert code == 0
        assert out.startswith("0.5000000")

    def test_ivt_quadratic(self, capsys):
        code, out, _ = self.run(capsys, "ivt", "x*(2-x)-0.5", "0", "1", "--bits", "60")
        assert code == 0
        assert out.startswith("0.2928932188134524")

    def test_ivt_decreasing(self, capsys):
        code, out, _ = self.run(capsys, "ivt", "0.5-x", "0", "1", "--bits", "60")
        assert code == 0
        assert out.startswith("0.5000000")

    def test_ivt_complex_expression_exits_1(self, capsys):
        code, out, err = self.run(capsys, "ivt", "csqrt(x,0)", "0", "1")
        assert code == 1
        assert out == ""
        assert err == "parse error: ivt needs a real-valued expression (column 1)\n"

    def test_ivt_bad_bracket_exits_2(self, capsys):
        code, _, err = self.run(
            capsys, "ivt", "x+1", "0", "1", "--bits", "20", "--budget", "128"
        )
        assert code == 2
        assert "effort" in err

    def test_sqrt_command(self, capsys):
        code, out, _ = self.run(capsys, "eval", "sqrt(2)", "--digits", "10")
        assert code == 0
        assert out.strip() in ("1.4142135623", "1.4142135624")

    def test_csqrt_command(self, capsys):
        code, out, _ = self.run(capsys, "eval", "csqrt(0,2)", "--digits", "8")
        assert code == 0
        re_v, im_v = (Fraction(s) for s in out.strip().splitlines())
        # either root of 2i: (1+i) or -(1+i), up to an ulp in the last place
        ulp = Fraction(2, 10**8)
        assert abs(abs(re_v) - 1) <= ulp and abs(abs(im_v) - 1) <= ulp
        assert (re_v > 0) == (im_v > 0)

    def rejected(self, *argv) -> str:
        """The one-line message of a command that exits 1 before running."""
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    @pytest.mark.parametrize(
        "a,b",
        [("0-1", "1"), ("abc", "1"), ("1", "0"), ("1/3", "1"), ("0", "1e3"), ("0", "1."),
         ("+0", "1"), ("0", "1" * 5000)],
    )
    def test_ivt_invalid_bracket_exits_1(self, a, b):
        assert self.rejected("ivt", "x", a, b).startswith("invalid bracket: ")

    def test_ivt_signed_decimal_bracket(self, capsys):
        code, out, _ = self.run(capsys, "ivt", "x+0.25", "-1.5", "0.75", "--digits", "5")
        assert code == 0
        assert out == "-0.25000\n"

    def test_bench_negative_bits_rejected(self):
        message = self.rejected("bench", "--seed-row", "sqrt2", "--bits", "-3")
        assert message == "--bits must be >= 1"

    def test_bench_zero_repeats_rejected(self):
        assert self.rejected("bench", "--repeats", "0") == "--repeats must be >= 1"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "1"),
            ("ivt", "x", "0", "1"),
            ("eval", "sqrt(2)"),
            ("eval", "csqrt(0, 2)"),
            ("bench", "--seed-row", "maxpi"),
        ],
    )
    def test_negative_budget_rejected(self, argv):
        before = current_budget()
        assert self.rejected(*argv, "--budget", "-1") == "--budget must be >= 0"
        assert current_budget() == before

    def test_bench_seed_row_verifies(self, capsys):
        code, out, _ = self.run(capsys, "bench", "--seed-row", "sqrt2", "--bits", "500")
        assert code == 0
        (row,) = out.strip().splitlines()[1:]
        assert row.split()[:2] == ["sqrt2", "500"] and row.endswith("ok")

    def test_bench_failed_row_exits_1(self, capsys, monkeypatch):
        bits, build, _ = cli._BENCH_ROWS["maxpi"]
        monkeypatch.setitem(cli._BENCH_ROWS, "maxpi", (bits, build, lambda x: x - 1))
        code, out, _ = self.run(capsys, "bench", "--seed-row", "maxpi", "--bits", "50")
        assert code == 1
        assert out.strip().splitlines()[-1].endswith("FAILED")

    def test_bench_unknown_row(self):
        assert "invalid choice: 'nope'" in self.rejected("bench", "--seed-row", "nope")

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            ((), "required: command"),
            (("eval",), "required: expr"),
            (("eval", "1", "--bits", "x"), "invalid int value: 'x'"),
            (("nope",), "invalid choice: 'nope'"),
            (("sqrt", "2"), "invalid choice: 'sqrt'"),
            (("csqrt", "0", "2"), "invalid choice: 'csqrt'"),
        ],
        ids=["no-command", "no-expr", "bits-not-int", "unknown", "sqrt", "csqrt"],
    )
    def test_usage_error_exits_1(self, argv, fragment):
        # exit 2 is left to an exhausted effort budget
        message = self.rejected(*argv)
        assert message.startswith("exactreal") and fragment in message

    def test_exact_rule_rejects_an_interval_that_misses_the_value(self):
        def rejects(row, iv, bits):
            return not cli._verified(iv, bits, cli._BENCH_ROWS[row][2])

        # narrow enough, but wholly above the root 1/2
        half = Dyadic(1, -1)
        above_half = Interval(half + Dyadic(1, -12), half + Dyadic(1, -11))
        assert rejects("ivt-linear", above_half, 10)
        # lo**2 > 2: wholly above sqrt(2), one ulp of 2**-20 past the floor oracle
        r = isqrt(2 << 40)
        above_sqrt2 = Interval(Dyadic(r + 1, -20), Dyadic(r + 2, -20))
        assert Fraction(r + 1, 1 << 20) ** 2 > 2
        assert rejects("sqrt2", above_sqrt2, 20)
        # and accepts the floor oracle's own bracket
        assert not rejects("sqrt2", Interval(Dyadic(r, -20), Dyadic(r + 1, -20)), 20)

    def test_exact_rule_measures_the_width_itself(self, monkeypatch):
        # a width test that passes everything: the rule must not trust it
        monkeypatch.setattr(Interval, "width_at_most", lambda self, n: True)
        r = isqrt(2 << 40)
        p = cli._BENCH_ROWS["sqrt2"][2]
        # two ulps of 2**-20 around sqrt(2): the root is inside, the width is not
        assert not cli._verified(Interval(Dyadic(r, -20), Dyadic(r + 2, -20)), 20, p)
        assert cli._verified(Interval(Dyadic(r, -20), Dyadic(r + 1, -20)), 20, p)

    def test_bench_all_rows_verify_at_small_bits(self, capsys):
        code, out, _ = self.run(capsys, "bench", "--bits", "150")
        assert code == 0
        table = [ln for ln in out.strip().splitlines()[1:]]
        assert len(table) == 6
        assert all(ln.endswith("ok") for ln in table)


def run_python(*argv):
    """``python *argv`` with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_module(*argv):
    return run_python("-m", "exactreal", *argv)


def test_import_loads_no_dataclasses():
    # the import is part of every command's start-up time: the package
    # loads no dataclasses, and with it no inspect, ast or tokenize
    code = (
        "import sys; before = set(sys.modules); import exactreal.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "exactreal.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "tokenize"}


def test_python_m_exactreal_eval():
    proc = run_module("eval", "1+1", "--digits", "3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.000"


def test_python_m_exactreal_usage_error_exits_1():
    proc = run_module("eval")
    assert proc.returncode == 1
    assert proc.stderr.startswith("exactreal eval: ")
    assert len(proc.stderr.splitlines()) == 1


def test_python_m_exactreal_ivt_at_the_budget_exits_2_at_once():
    # 315,652 digits need 1,048,598 bits, the budget itself: the term
    # two bits past it is refused before any trisection step
    start = time.perf_counter()
    proc = run_module(
        "ivt", "x-0.5", "0", "1", "--digits", "315652", "--budget", "1048598"
    )
    assert time.perf_counter() - start < 20
    assert proc.returncode == 2
    assert "effort budget 1048598 exhausted" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_python_m_exactreal_invalid_bracket_exits_1():
    proc = run_module("ivt", "x", "0-1", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("invalid bracket: ")
    assert len(proc.stderr.splitlines()) == 1


def test_python_m_exactreal_wide_bracket_exits_1_at_once():
    # an exponent form is not a decimal of the grammar; as a Fraction,
    # 1e999999 alone took seconds and the trisection ran without end
    start = time.perf_counter()
    proc = run_module("ivt", "x-0.5", "0", "1e999999", "--digits", "5")
    assert time.perf_counter() - start < 20
    assert proc.returncode == 1
    assert proc.stderr == "invalid bracket: '0' '1e999999': need two decimals a < b\n"
