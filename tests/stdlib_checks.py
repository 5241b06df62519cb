"""The command line on the standard library alone, as one table.

Each row runs one ``python -m exactreal`` command and checks its exit
code and, where the row gives them, its printed parts, each to within
10**-digits of the exact value for the command's ``--digits``.  Only
the standard library is imported, so this runs before any test
dependency is installed; from the repository root:

    PYTHONPATH=src python tests/stdlib_checks.py

It prints one line for each row that fails and exits 1 if any did.
"""

import subprocess
import sys
from decimal import Decimal, localcontext


def sqrt(n) -> Decimal:
    return Decimal(n).sqrt()


# a branch point through a zero hidden behind repeated subtrees: each
# distinct subtree is one node, so its ten pi leaves are one pi
_Z = "(6 + (pi - pi)) - (6 + (pi - pi))"

# (arguments, timeout in seconds or None, exit code, parts or None).
# ``parts`` gives the exact printed values, computed in a decimal
# context 40 digits wider than the output.
ROWS = [
    (["eval", "pi", "--digits", "50"], None, 0, None),
    (["bench", "--seed-row", "maxpi"], None, 0, None),
    # a hidden zero divisor asks pi up to the budget, one division each time, then exits 2
    (["eval", "1/(pi-pi)", "--budget", "262144"], 20, 2, None),
    # output past the budget is refused at once (exit 2), not computed
    (["eval", "2", "--bits", "100000000000"], 20, 2, None),
    (["ivt", "x*(2-x)-0.5", "0", "1", "--digits", "20"], None, 0, None),
    # decimal bracket ends: one denominator 100, so most trisection points are not dyadic
    (["ivt", "x-0.3", "0.1", "0.7", "--digits", "300"], 20, 0, lambda: [Decimal("0.3")]),
    # a falling f: select's orientation test takes its second branch, and
    # each trisection select resumes from the last effort
    (["ivt", "0.7-x", "0", "1", "--digits", "300"], 20, 0, lambda: [Decimal("0.7")]),
    # select_index over four signs, with a hidden-zero imaginary part
    (["eval", "csqrt(0-4, pi-pi)", "--digits", "50"], 20, 0, lambda: [0, 2]),
    (
        ["eval", f"csqrt(sqrt(sqrt({_Z}) - sqrt({_Z})), pi - pi)", "--digits", "2560"],
        20,
        0,
        lambda: [0, 0],
    ),
    # ivt at the budget: the term past it is refused before any trisection
    (["ivt", "x-0.5", "0", "1", "--digits", "315652", "--budget", "1048598"], 20, 2, None),
    # a bracket end outside the literal grammar -?digits[.digits] exits 1 at once
    (["ivt", "x-0.5", "0", "1e999999"], 20, 1, None),
    # a budget whose precision is past the exponent range exits 2 at once
    (["eval", "1/3", "--digits", "10000000000000000000", "--budget", "100000000000000000000"], 20, 2, None),
    # and so does an exact value, which answers at any accuracy
    (["eval", "2", "--digits", "10000000000000000000", "--budget", "100000000000000000000"], 20, 2, None),
    # the interval kernel at benchmark size
    (
        ["eval", "sqrt(sqrt(42) + sqrt(17)) / 17", "--digits", "2400"],
        None,
        0,
        lambda: [(sqrt(42) + sqrt(17)).sqrt() / 17],
    ),
    # exact factors and divisors scale the other operand's interval; the
    # decimal output is formed from two half products
    (
        ["eval", "sqrt(2)*3.7/7 - sqrt(3)*0.25", "--digits", "3000"],
        20,
        0,
        lambda: [sqrt(2) * Decimal("3.7") / 7 - sqrt(3) * Decimal("0.25")],
    ),
    # a negated literal folds into one exact leaf, which scales sqrt(2)
    (["eval", "sqrt(2) * -3.7", "--digits", "2000"], 20, 0, lambda: [-sqrt(2) * Decimal("3.7")]),
    # unary minus on an inexact real: the factor -1, asked at p and not
    # rounded ("--" ends the options, so "-sqrt(2)" is the expression)
    (["eval", "--digits", "2000", "--", "-sqrt(2)"], 20, 0, lambda: [-sqrt(2)]),
    # two dyadic factors, each an exact shift of the other operand's interval
    (
        ["eval", "sqrt(3) / 16 * 1.25", "--digits", "2000"],
        20,
        0,
        lambda: [sqrt(3) / 16 * Decimal("1.25")],
    ),
    # im < 0: the root's imaginary part is the negation of v
    (
        ["eval", "csqrt(0-1, 0-1)", "--digits", "300"],
        20,
        0,
        lambda: [
            ((sqrt(2) - 1) / 2).sqrt(),
            -((sqrt(2) + 1) / 2).sqrt(),
        ],
    ),
    # a negative quotient by an exact divisor, printed with its sign
    (["eval", "0-sqrt(5)/3", "--digits", "400"], 20, 0, lambda: [-sqrt(5) / 3]),
    # radicands that are powers of four past the split size: isqrt_floor's exact comparison
    (["eval", "sqrt(4) + sqrt(0.25)", "--digits", "2400"], 20, 0, lambda: [Decimal("2.5")]),
    # a negative value one digit past the int-to-str limit: decimal_string's sign and halving
    (["eval", "0-1/7", "--digits", "4301"], 20, 0, lambda: [Decimal(-1) / 7]),
    # the Karatsuba root nine levels deep (a 664,000-bit radicand)
    (["eval", "sqrt(2)", "--digits", "100000"], 60, 0, lambda: [sqrt(2)]),
]


def failure(args, timeout, code, parts) -> str | None:
    """Why the row fails, or None when it passes."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "exactreal", *args],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return f"still running after {timeout} s"
    if run.returncode != code:
        return f"exit code {run.returncode}, expected {code}: {run.stderr.strip()[-200:]}"
    if parts is None:
        return None
    digits = int(args[args.index("--digits") + 1])
    with localcontext() as ctx:
        ctx.prec = digits + 40
        exact = parts()
        try:
            printed = [Decimal(line) for line in run.stdout.split()]
        except ArithmeticError:
            return f"not a decimal: {run.stdout[:80]!r}"
        if len(printed) != len(exact):
            return f"{len(printed)} parts printed, expected {len(exact)}"
        error = max(abs(p - q) for p, q in zip(printed, exact))
        if error > Decimal(10) ** -digits:
            return f"off by {error:.3e}"
    return None


def main() -> int:
    failed = 0
    for row in ROWS:
        reason = failure(*row)
        if reason is not None:
            failed += 1
            print(f"FAILED exactreal {' '.join(row[0])!r}: {reason}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
