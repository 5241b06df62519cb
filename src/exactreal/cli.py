"""Command-line front end: expression evaluation, root finding, square
roots and a benchmark table with verified results."""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from math import isqrt

from .algorithms import Complex, ivt_trisect, real_max, real_pi, real_sqrt
from .creal import CReal, bits_for_digits, to_decimal
from .dyadic import Dyadic
from .errors import EffortExhausted, ParseError
from .expr import Call, evaluate, parse
from .kleenean import DEFAULT_BUDGET, effort_budget


# decimal digits that ``bits`` bits of accuracy carry: 0.30103 <= log10(2)
def _digits_for_bits(bits: int) -> int:
    return max(1, (bits - 2) * 30103 // 100000)


def _resolve_accuracy(args) -> tuple[int, int]:
    """Return (bits, digits) from --bits / --digits, deriving the other."""
    if args.digits is not None:
        if args.digits < 1:
            raise SystemExit("--digits must be >= 1")
        return bits_for_digits(args.digits), args.digits
    bits = args.bits if args.bits is not None else 200
    if bits < 1:
        raise SystemExit("--bits must be >= 1")
    return bits, _digits_for_bits(bits)


def _print_value(value, digits: int):
    if isinstance(value, Complex):
        print(to_decimal(value.re, digits))
        print(to_decimal(value.im, digits))
    else:
        print(to_decimal(value, digits))


def _cmd_eval(args) -> int:
    """Also runs ``sqrt v`` and ``csqrt re im``, as ``eval "sqrt(v)"``
    and ``eval "csqrt(re, im)"``."""
    bits, digits = _resolve_accuracy(args)
    if args.command == "sqrt":
        ast = Call("sqrt", (parse(args.value),))
    elif args.command == "csqrt":
        ast = Call("csqrt", (parse(args.re), parse(args.im)))
    else:
        ast = parse(args.expr)
    value = evaluate(ast)
    for part in (value.re, value.im) if isinstance(value, Complex) else (value,):
        part.approx(bits)
    _print_value(value, digits)
    return 0


def _bracket(a: str, b: str) -> tuple[Fraction, Fraction]:
    try:
        lo, hi = Fraction(a), Fraction(b)
    except (ValueError, ZeroDivisionError):
        lo = hi = None
    if lo is None or not lo < hi:
        raise SystemExit(f"invalid bracket: {a!r} {b!r}: need two numbers a < b")
    return lo, hi


def _cmd_ivt(args) -> int:
    bits, digits = _resolve_accuracy(args)
    ast = parse(args.expr)

    def f(x: CReal) -> CReal:
        value = evaluate(ast, env={"x": x})
        if isinstance(value, Complex):
            raise ParseError("ivt needs a real-valued expression", 0)
        return value

    a, b = _bracket(args.a, args.b)
    root = ivt_trisect(f, a, b)
    root.approx(bits)
    _print_value(root, digits)
    return 0


# -- benchmark suite ---------------------------------------------------


def _verify_contains_zero(iv, bits):
    return iv.contains(Dyadic(0)) and iv.width() <= Dyadic(1, -bits)


def _verify_sqrt2(iv, bits):
    # the floor oracle sits up to one ulp below sqrt(2)
    oracle = Dyadic(isqrt(2 << (2 * bits)), -bits)
    pad = Dyadic(1, -bits)
    return iv.widen(pad).contains(oracle) and iv.width() <= pad


def _verify_sqrtsqrt2(iv, bits):
    # fourth-power check: the interval must bracket the fourth root of 2
    lo, hi = iv.lo, iv.hi
    lo4 = lo * lo * lo * lo
    hi4 = hi * hi * hi * hi
    return lo4 <= Dyadic(2) <= hi4 and iv.width() <= Dyadic(1, -bits)


def _verify_near(oracle_fn):
    def check(iv, bits):
        oracle = oracle_fn(bits + 2)
        mid = iv.midpoint()
        return abs(mid - oracle) <= Dyadic(1, -bits) and iv.width() <= Dyadic(1, -bits)

    return check


def _root_half(prec):
    return Dyadic(1, -1)


def _root_quadratic(prec):
    # 1 - sqrt(2)/2 to 2**-prec
    r = isqrt(2 << (2 * prec))  # floor(sqrt(2) * 2**prec)
    return Dyadic(1) - Dyadic(r, -(prec + 1))


_BENCH_ROWS = {
    "maxpi": {
        "bits": 1000,
        "build": lambda: real_max(0, real_pi() - real_pi()),
        "verify": _verify_contains_zero,
    },
    "sqrt2": {
        "bits": 10_000,
        "build": lambda: real_sqrt(2),
        "verify": _verify_sqrt2,
    },
    "sqrtsqrt2": {
        "bits": 10_000,
        "build": lambda: real_sqrt(real_sqrt(2)),
        "verify": _verify_sqrtsqrt2,
    },
    "ivt-linear": {
        "bits": 1000,
        "build": lambda: ivt_trisect(lambda x: x - Fraction(1, 2), 0, 1),
        "verify": _verify_near(_root_half),
    },
    "ivt-quadratic": {
        "bits": 1000,
        "build": lambda: ivt_trisect(lambda x: x * (2 - x) - Fraction(1, 2), 0, 1),
        "verify": _verify_near(_root_quadratic),
    },
    "ivt-sqrt": {
        "bits": 1000,
        "build": lambda: ivt_trisect(lambda x: real_sqrt(x + Fraction(1, 2)) - 1, 0, 1),
        "verify": _verify_near(_root_half),
    },
}


def _cmd_bench(args) -> int:
    if args.bits is not None and args.bits < 1:
        raise SystemExit("--bits must be >= 1")
    if args.repeats < 1:
        raise SystemExit("--repeats must be >= 1")
    names = [args.seed_row] if args.seed_row else list(_BENCH_ROWS)
    unknown = [n for n in names if n not in _BENCH_ROWS]
    if unknown:
        raise SystemExit(f"unknown benchmark row(s): {', '.join(unknown)}")
    print(f"{'row':<15}{'bits':>8}{'mean_s':>12}{'verified':>10}")
    any_failed = False
    for name in names:
        row = _BENCH_ROWS[name]
        bits = args.bits if args.bits is not None else row["bits"]
        times = []
        verified = True
        for _ in range(args.repeats):
            start = time.perf_counter()
            iv = row["build"]().approx(bits)
            times.append(time.perf_counter() - start)
            if not row["verify"](iv, bits):
                verified = False
        mean = sum(times) / len(times)
        status = "ok" if verified else "FAILED"
        any_failed = any_failed or not verified
        print(f"{name:<15}{bits:>8}{mean:>12.4f}{status:>10}")
        if args.machine:
            print(
                f"name={name} bits={bits} seconds={mean:.6f} "
                f"verified={'true' if verified else 'false'}"
            )
    return 1 if any_failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactreal",
        description="Exact real evaluation, certified root finding and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--bits", type=int, default=None, help="target accuracy in bits")
        p.add_argument("--digits", type=int, default=None, help="decimal digits to print")
        p.add_argument(
            "--budget", type=int, default=DEFAULT_BUDGET, help="effort budget"
        )

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr")
    common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_ivt = sub.add_parser("ivt", help="find the unique zero of f(x) on [a, b]")
    p_ivt.add_argument("expr")
    p_ivt.add_argument("a")
    p_ivt.add_argument("b")
    common(p_ivt)
    p_ivt.set_defaults(func=_cmd_ivt)

    p_sqrt = sub.add_parser("sqrt", help="square root of a nonnegative value")
    p_sqrt.add_argument("value")
    common(p_sqrt)
    p_sqrt.set_defaults(func=_cmd_eval)

    p_csqrt = sub.add_parser("csqrt", help="complex square root of re + i*im")
    p_csqrt.add_argument("re")
    p_csqrt.add_argument("im")
    common(p_csqrt)
    p_csqrt.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench", help="run the verified benchmark table")
    p_bench.add_argument("--bits", type=int, default=None)
    p_bench.add_argument("--repeats", type=int, default=1)
    p_bench.add_argument("--seed-row", default=None, help="run a single named row")
    p_bench.add_argument("--machine", action="store_true", help="key=value output")
    p_bench.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_bench.set_defaults(func=_cmd_bench)

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


if __name__ == "__main__":
    sys.exit(main())
