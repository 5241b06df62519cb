"""The library side of the benchmark: one fresh interpreter that holds
exactreal and nothing of the harness; ``run.py`` starts and drives it.

The worker imports exactreal from the checkout's ``src`` and prints one
JSON line, ``{"ready": ...}``.  Then it answers one command per line on
standard input with one JSON line on standard output:

- ``{"op": "query", "workload", "kind", "bits", "arg", ...}``: makes the
  query's library calls and answers ``{"t": seconds in the library,
  "out": the encoded result}`` or ``{"t", "error"}``.  A query running
  longer than ``QUERY_LIMIT_S`` is stopped and answered as an error.
- ``{"op": "trace", "on": true}`` installs the tracer (``--trace`` only)
  and starts a traced pass; ``"on": false`` uninstalls it and answers the
  pass's per-layer metrics.
- ``{"op": "micro", "seed"}``: the microbenchmarks (``micro.py``).
- ``{"op": "end", "spans": path or null}``: answers the peak resident
  memory, writes the last traced pass's spans if asked, and exits.

The oracle runs in the parent, so neither the worker's memory nor its
start-up holds the checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import exactreal  # noqa: E402  (from this checkout's src)
import exactreal.algorithms as alg  # noqa: E402
import exactreal.creal as creal  # noqa: E402
import exactreal.expr as expr  # noqa: E402

QUERY_LIMIT_S = 30.0  # a query running longer counts as failed


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout(f"query exceeded {QUERY_LIMIT_S:.0f} s")


def _rss_mb() -> float:
    """Peak resident memory of this process in MB.  Linux's ``VmHWM``
    belongs to this program alone; ``ru_maxrss`` would keep the parent's
    peak across fork and exec, so it is only the fallback."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _interval(iv) -> list:
    """An Interval as ``[lo mantissa hex, lo exponent, hi mantissa hex, hi
    exponent]``; hex keeps 10,000-bit mantissas clear of int-to-str limits."""
    return [hex(iv.lo.mantissa), iv.lo.exponent, hex(iv.hi.mantissa), iv.hi.exponent]


# Library entry points are looked up on their modules at call time, so a
# traced pass sees the wrappers that ``tracing.Tracer`` installs.

def deep_sqrt(msg, wrap):
    x = alg.real_sqrt(Fraction(msg["arg"]))
    if msg["kind"] == "sqrtsqrt":
        x = alg.real_sqrt(x)
    return _interval(x.approx(msg["bits"]))


def trisect(msg, wrap):
    # as ``exactreal ivt`` does: parse once, evaluate at every point
    ast = expr.parse(msg["arg"])

    def f(x):
        return expr.evaluate(ast, env={"x": x})

    if wrap is not None:
        f = wrap(f)
    return _interval(alg.ivt_trisect(f, 0, 1).approx(msg["bits"]))


def print_expr(msg, wrap):
    """``exactreal eval``: the value's parts printed at ``bits`` digits."""
    value = expr.evaluate(expr.parse(msg["arg"]))
    parts = (value.re, value.im) if isinstance(value, alg.Complex) else (value,)
    return [creal.to_decimal(v, msg["bits"]) for v in parts]


RUN = {"deep-sqrt": deep_sqrt, "trisect": trisect, "expr": print_expr}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", action="store_true", help="load the tracer")
    args = ap.parse_args(argv)

    if not Path(exactreal.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"exactreal imported from {exactreal.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    signal.signal(signal.SIGALRM, _on_alarm)

    def reply(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    reply({"ready": True, "import_rss_mb": _rss_mb()})
    traced_queries = 0
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "query":
            wrap = None
            if tracer is not None and tracer.installed:
                tracer.query = traced_queries
                traced_queries += 1
                wrap = tracer.callback
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
                try:
                    out = RUN[msg["workload"]](msg, wrap)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Exception as exc:  # every failure of the library is a failed query
                reply({"t": time.perf_counter() - t0,
                       "error": f"{type(exc).__name__}: {str(exc)[:200]}"})
                continue
            reply({"t": time.perf_counter() - t0, "out": out})
        elif op == "trace" and msg["on"]:
            tracer.reset()
            tracer.install()
            traced_queries = 0
            reply({})
        elif op == "trace":
            tracer.uninstall()
            reply({"layers": tracer.layer_metrics(traced_queries),
                   "spans": len(tracer.span_start)})
        elif op == "micro":
            import micro
            reply(micro.run(msg["seed"]))
        elif op == "end":
            if msg.get("spans"):
                tracer.write_spans(msg["spans"])
            reply({"peak_rss_mb": _rss_mb()})
            return 0
        else:
            print(f"unknown command {op!r}", file=sys.stderr)
            return 2
    return 2  # the parent closed the pipe without "end"


if __name__ == "__main__":
    sys.exit(main())
