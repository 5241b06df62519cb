"""Command-line front end: expression evaluation, root finding and a
benchmark table whose rows are verified by one exact rule."""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from .algorithms import Complex, ivt_trisect, real_max, real_pi, real_sqrt
from .creal import CReal, bits_for_digits, to_decimal
from .dyadic import Dyadic
from .errors import EffortExhausted, ParseError
from .expr import decimal, evaluate, parse
from .kleenean import DEFAULT_BUDGET, effort_budget


# decimal digits that ``bits`` bits of accuracy carry: 0.30103 <= log10(2)
def _digits_for_bits(bits: int) -> int:
    return max(1, (bits - 2) * 30103 // 100000)


def _digits(args) -> int:
    """The decimal digits to print: --digits, else those --bits carry.

    Output that needs more bits than the larger of --budget and the
    default budget is refused before anything is evaluated: exact
    values answer at every accuracy without a budget check, so the
    decimal conversion itself would be the runaway."""
    if args.digits is not None:
        if args.digits < 1:
            raise SystemExit("--digits must be >= 1")
        digits = args.digits
    else:
        bits = args.bits if args.bits is not None else 200
        if bits < 1:
            raise SystemExit("--bits must be >= 1")
        digits = _digits_for_bits(bits)
    limit = max(args.budget, DEFAULT_BUDGET)
    if bits_for_digits(digits) > limit:
        raise EffortExhausted(limit, f"printing {digits} digits")
    return digits


def _print_value(value, digits: int):
    parts = (value.re, value.im) if isinstance(value, Complex) else (value,)
    # render every part before printing any, so a failure prints nothing
    print("\n".join([to_decimal(part, digits) for part in parts]))


def _cmd_eval(args) -> int:
    digits = _digits(args)
    _print_value(evaluate(parse(args.expr)), digits)
    return 0


def _bracket(a: str, b: str) -> tuple[Fraction, Fraction]:
    """Both ends in the expression grammar's literal form, -?digits[.digits]."""
    try:
        lo, hi = decimal(a), decimal(b)
    except ParseError:
        lo = hi = None
    if lo is None or not lo < hi:
        raise SystemExit(f"invalid bracket: {a!r} {b!r}: need two decimals a < b")
    return lo, hi


def _cmd_ivt(args) -> int:
    digits = _digits(args)
    ast = parse(args.expr)

    def f(x: CReal) -> CReal:
        value = evaluate(ast, env={"x": x})
        if isinstance(value, Complex):
            raise ParseError("ivt needs a real-valued expression", 0)
        return value

    a, b = _bracket(args.a, args.b)
    _print_value(ivt_trisect(f, a, b), digits)
    return 0


# -- benchmark suite ---------------------------------------------------

_HALF = Dyadic(1, -1)

# name -> (bits, build, p).  p is an exact polynomial that increases
# across the row's interval and has the row's value as its root there.
_BENCH_ROWS = {
    "maxpi": (1000, lambda: real_max(0, real_pi() - real_pi()), lambda x: x),
    "sqrt2": (10_000, lambda: real_sqrt(2), lambda x: x * x - 2),
    "sqrtsqrt2": (
        10_000,
        lambda: real_sqrt(real_sqrt(2)),
        lambda x: x * x * x * x - 2,
    ),
    "ivt-linear": (
        1000,
        lambda: ivt_trisect(lambda x: x - Fraction(1, 2), 0, 1),
        lambda x: x - _HALF,
    ),
    "ivt-quadratic": (
        1000,
        lambda: ivt_trisect(lambda x: x * (2 - x) - Fraction(1, 2), 0, 1),
        lambda x: x * (2 - x) - _HALF,
    ),
    "ivt-sqrt": (
        1000,
        lambda: ivt_trisect(lambda x: real_sqrt(x + Fraction(1, 2)) - 1, 0, 1),
        lambda x: x - _HALF,
    ),
}


def _verified(iv, bits: int, p) -> bool:
    """The interval is at most 2**-bits wide, by the exact difference of
    its ends rather than the width test refinement uses, and contains
    the root of p: p increases across it, so that is the exact sign test
    p(lo) <= 0 <= p(hi)."""
    return iv.hi - iv.lo <= Dyadic(1, -bits) and p(iv.lo) <= 0 <= p(iv.hi)


def _cmd_bench(args) -> int:
    if args.bits is not None and args.bits < 1:
        raise SystemExit("--bits must be >= 1")
    if args.repeats < 1:
        raise SystemExit("--repeats must be >= 1")
    print(f"{'row':<15}{'bits':>8}{'mean_s':>12}{'verified':>10}")
    any_failed = False
    for name in [args.seed_row] if args.seed_row else _BENCH_ROWS:
        row_bits, build, p = _BENCH_ROWS[name]
        bits = args.bits or row_bits
        seconds = 0.0
        verified = True
        for _ in range(args.repeats):
            start = time.perf_counter()
            iv = build().approx(bits)
            seconds += time.perf_counter() - start
            verified = _verified(iv, bits, p) and verified
        any_failed = any_failed or not verified
        status = "ok" if verified else "FAILED"
        print(f"{name:<15}{bits:>8}{seconds / args.repeats:>12.4f}{status:>10}")
    return 1 if any_failed else 0


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 with one line, as every invalid argument
    does; exit 2 means only an exhausted effort budget, or a budget so
    large that the precision it allows is out of range.  Subparsers
    inherit the class."""

    def error(self, message):
        raise SystemExit(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactreal",
        description="Exact real evaluation, certified root finding and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *positionals):
        p = sub.add_parser(name, help=summary)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--bits", type=int, help="target accuracy in bits")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="effort budget")
        p.set_defaults(func=func)
        return p

    for p in (
        command("eval", _cmd_eval, "evaluate an expression", "expr"),
        command(
            "ivt", _cmd_ivt, "find the unique zero of f(x) on [a, b]", "expr", "a", "b"
        ),
    ):
        p.add_argument("--digits", type=int, help="decimal digits to print")
    bench = command("bench", _cmd_bench, "run the verified benchmark table")
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--seed-row", choices=list(_BENCH_ROWS), help="run one named row")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.budget < 0:
        raise SystemExit("--budget must be >= 0")
    try:
        with effort_budget(args.budget):
            return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("expression nests too deeply", file=sys.stderr)
        return 1
    except EffortExhausted as exc:
        print(f"effort exhausted: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        # a budget past the dyadic exponent range (ExponentOverflow), the
        # size of an int or the memory
        print(f"precision out of range: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
