"""Microbenchmarks of the two scalar layers: Dyadic and Interval ``+``,
``*`` and division at 64, 1,000 and 10,000 bits, timed through their
public operators.

Operands have full ``bits``-bit mantissas.  Division rounds to ``bits``
significant bits (``div_directed`` for Dyadic, ``Interval.div`` for
Interval).  Every case is first calibrated to batches of about
``BATCH_S`` seconds, which also warms it up.  Then ``BATCHES`` rounds
time one batch of every case in turn, so a slow spell of the machine
falls on a few batches of each case rather than on all batches of one.
Each figure is the median per-call time over its batches; its spread is
the distance between the quartiles of the batches as a share of it.
"""

from __future__ import annotations

import operator
import random
import statistics
import time

from exactreal.dyadic import Dyadic, div_directed
from exactreal.interval import Interval

SIZES = (64, 1000, 10000)
BATCH_S = 0.05
BATCHES = 9


def _operand(rng: random.Random, bits: int) -> Dyadic:
    return Dyadic(rng.getrandbits(bits) | 1 | (1 << (bits - 1)), -bits)


def _calls_per_batch(fn, a, b) -> int:
    """Calibrate a batch size; the calls also warm the interpreter up."""
    t0 = time.perf_counter()
    calls = 0
    while time.perf_counter() - t0 < BATCH_S:
        fn(a, b)
        calls += 1
    return calls


def _batch_s(fn, a, b, n) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn(a, b)
    return (time.perf_counter() - t0) / n


def run(seed: int) -> dict:
    """``{"us": median microseconds per call, "spread": ..., "batches": n}``,
    keyed like ``dyadic.mul_us.b1000``."""
    rng = random.Random(f"micro:{seed}")
    cases = {}
    for bits in SIZES:
        a, b = _operand(rng, bits), _operand(rng, bits)
        ulp = Dyadic(1, -bits)
        x, y = Interval(a, a + ulp), Interval(b, b + ulp)
        cases.update({
            f"dyadic.add_us.b{bits}": (operator.add, a, b),
            f"dyadic.mul_us.b{bits}": (operator.mul, a, b),
            f"dyadic.div_us.b{bits}": (
                lambda u, v, bits=bits: div_directed(u, v, bits, False), a, b),
            f"interval.add_us.b{bits}": (operator.add, x, y),
            f"interval.mul_us.b{bits}": (operator.mul, x, y),
            f"interval.div_us.b{bits}": (
                lambda u, v, bits=bits: u.div(v, bits), x, y),
        })
    sized = {name: (*case, _calls_per_batch(*case)) for name, case in cases.items()}
    per_call = {name: [] for name in sized}
    for _ in range(BATCHES):
        for name, case in sized.items():
            per_call[name].append(_batch_s(*case))
    us, spread = {}, {}
    for name, times in per_call.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        us[name] = median * 1e6
        spread[name] = (q3 - q1) / median
    return {"us": us, "spread": spread, "batches": BATCHES}
