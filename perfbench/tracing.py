"""Per-layer tracing of exactreal from outside the library.

``Tracer.install`` replaces the public entry points of each module with
wrappers and ``uninstall`` puts the originals back.  The layers are the
library's modules:

- ``dyadic`` and ``interval``: operators and methods.  They run millions
  of times per second, so they get call counts and accumulated time only.
- ``kleenean``, ``creal``, ``algorithms``, ``expr``: every call is also
  recorded as a span (name, start, end, parent span, query id).  Spans
  stay in memory, in flat arrays, until ``write_spans``.

A call's self time is its duration minus the time of the wrapped calls it
made; each layer sums the self time of its calls.  Work done in closures
the library builds (a limit's term, a comparison's test) is charged to the
nearest wrapped call around it.  ``algorithms.term`` spans wrap the term
functions that algorithms hand to ``limit``, so a trisection or Heron loop
is charged to ``algorithms`` rather than to the ``creal.approx`` that
forces it.  ``callback`` wraps a function the benchmark hands to the
library (the trisection's f) as ``algorithms.f``.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import Counter

import exactreal.algorithms as alg
import exactreal.creal as creal
import exactreal.dyadic as dyadic
import exactreal.expr as expr
import exactreal.interval as interval
import exactreal.kleenean as kleenean

LAYERS = ("dyadic", "interval", "kleenean", "creal", "algorithms", "expr")
_MODULES = (dyadic, interval, kleenean, creal, alg, expr)

_DYADIC_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
    "scale2", "round_down", "round_up", "floor_to_grid", "ceil_to_grid",
    "to_fraction", "to_decimal_string",
)
_INTERVAL_METHODS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__abs__", "__eq__",
    "__repr__", "scale2", "round_out", "round_out_grid", "widen",
    "intersect", "width", "contains", "contains_interval", "midpoint",
)
_CREAL_FUNCTIONS = (
    "less_than", "split", "limit", "limit_refine", "round_nd",
    "dyadic_approx", "to_decimal",
)
_ALGORITHM_FUNCTIONS = (
    "real_max", "real_abs", "real_pi", "ivt_trisect", "heron",
    "sqrt_restricted", "sqrt_scale", "real_sqrt", "csqrt_nonzero", "csqrt",
)


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [0.0]  # child time of each open wrapped call
        self._open_spans = [-1]
        self.counts: Counter = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.settle_efforts: list[int] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.query = -1

    def reset(self):
        """Forget counts, times and spans; wrappers stay installed."""
        self.counts.clear()
        for layer in LAYERS:
            self.self_s[layer] = 0.0
        self.settle_efforts.clear()
        for arr in (self.span_start, self.span_end, self.span_name,
                    self.span_parent, self.span_query):
            del arr[:]

    # -- wrappers -------------------------------------------------------

    def _timed(self, layer, count_key, fn, after=None):
        """Count and time ``fn`` without recording spans."""
        stack, counts, self_s = self._stack, self.counts, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[count_key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self_s[layer] += d - stack.pop()
                stack[-1] += d
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _spanned(self, layer, name, fn, count_key=None, before=None, after=None):
        """Count, time and record one span, named ``name``, per call of
        ``fn``; the count goes to ``count_key``, by default the name."""
        stack, counts, self_s = self._stack, self.counts, self.self_s
        open_spans = self._open_spans
        starts, ends = self.span_start, self.span_end
        names, parents, queries = self.span_name, self.span_parent, self.span_query
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        count_key = count_key or name
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[count_key] += 1
            if before is not None:
                before(args)
            span = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1])
            queries.append(self.query)
            ends.append(0.0)
            open_spans.append(span)
            stack.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                self_s[layer] += d - stack.pop()
                stack[-1] += d
                open_spans.pop()
                if span < len(ends):
                    ends[span] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- hooks that read results ----------------------------------------

    def _mantissa(self, args, result):
        if type(result) is dyadic.Dyadic:
            bits = result.mantissa.bit_length()
            if bits > self.counts["dyadic.mantissa_bits.max"]:
                self.counts["dyadic.mantissa_bits.max"] = bits

    def _straddles(self, args, result):
        if result:
            self.counts["interval.div_straddles"] += 1

    def _at_result(self, args, result):
        if result is kleenean.BOTTOM:
            self.counts["kleenean.at.bottom"] += 1

    def _approx_before(self, args):
        node, p = args[0], max(args[1], 0)
        if node._best_p >= p:
            self.counts["creal.approx.hits"] += 1
        elif node._best is not None:
            self.counts["creal.approx.rewarms"] += 1
        if p > self.counts["creal.precision.max"]:
            self.counts["creal.precision.max"] = p

    def _settled(self, args, result):
        self.counts["kleenean.select.calls"] += 1
        self.settle_efforts.append(result[1])

    def _ast(self, args, result):
        self.counts["expr.ast_nodes"] += _count_nodes(result)

    # -- install / uninstall --------------------------------------------

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_function(self, original, replacement):
        """Rebind every module-level name that refers to ``original``."""
        for mod in _MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        Dyadic, Interval = dyadic.Dyadic, interval.Interval
        for name in _DYADIC_METHODS:
            self._patch(Dyadic, name, self._timed(
                "dyadic", "dyadic.ops", getattr(Dyadic, name), self._mantissa))
        self._patch_function(dyadic.div_directed, self._timed(
            "dyadic", "dyadic.div_directed.calls", dyadic.div_directed,
            self._mantissa))
        for name in _INTERVAL_METHODS:
            self._patch(Interval, name, self._timed(
                "interval", "interval.ops", getattr(Interval, name)))
        self._patch(Interval, "straddles_zero", self._timed(
            "interval", "interval.ops", Interval.straddles_zero, self._straddles))
        self._patch(Interval, "div", self._timed(
            "interval", "interval.div.calls", Interval.div))

        LazyKleenean = kleenean.LazyKleenean
        self._patch(LazyKleenean, "at", self._spanned(
            "kleenean", "kleenean.at", LazyKleenean.at, "kleenean.at.calls",
            after=self._at_result))
        for name in ("select", "select_index"):
            self._patch_function(getattr(kleenean, name), self._spanned(
                "kleenean", f"kleenean.{name}", getattr(kleenean, name)))
        self._patch_function(kleenean._select_with_effort, self._spanned(
            "kleenean", "kleenean._select_with_effort",
            kleenean._select_with_effort, after=self._settled))

        CReal = creal.CReal
        init = CReal.__init__

        def counted_init(node, fn):
            self.counts["creal.nodes"] += 1
            init(node, fn)

        self._patch(CReal, "__init__", counted_init)
        self._patch(CReal, "approx", self._spanned(
            "creal", "creal.approx", CReal.approx, "creal.approx.calls",
            before=self._approx_before))
        for name in _CREAL_FUNCTIONS:
            original = getattr(creal, name)
            self._patch_function(original, self._spanned(
                "creal", f"creal.{name}", original))

        for name in _ALGORITHM_FUNCTIONS:
            original = getattr(alg, name)
            self._patch_function(original, self._spanned(
                "algorithms", f"algorithms.{name}", original, "algorithms.calls"))
        # the term functions algorithms pass to limit are algorithm code
        traced_limit = alg.limit
        term = lambda f: self._spanned("algorithms", "algorithms.term", f)
        self._patch(alg, "limit", lambda f: traced_limit(term(f)))

        self._patch_function(expr.parse, self._spanned(
            "expr", "expr.parse", expr.parse, after=self._ast))
        self._patch_function(expr.evaluate, self._spanned(
            "expr", "expr.evaluate", expr.evaluate))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def callback(self, fn):
        """Wrap a benchmark callback that the library calls (``ivt`` f)."""
        return self._spanned("algorithms", "algorithms.f", fn, "algorithms.f_evals")

    # -- results --------------------------------------------------------

    def span_totals(self) -> dict[str, float]:
        """Summed duration of the spans of each name."""
        totals = dict.fromkeys(self.names, 0.0)
        for name_id, t0, t1 in zip(self.span_name, self.span_start, self.span_end):
            totals[self.names[name_id]] += t1 - t0
        return totals

    def layer_metrics(self, queries: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per query."""
        c = self.counts
        at_calls = c["kleenean.at.calls"]
        approx_calls = c["creal.approx.calls"]
        efforts = self.settle_efforts or [0]
        spans = self.span_totals()
        per_query = {
            "dyadic.ops": c["dyadic.ops"] + c["dyadic.div_directed.calls"],
            "dyadic.div_directed.calls": c["dyadic.div_directed.calls"],
            "interval.ops": (c["interval.ops"] + c["interval.div.calls"]),
            "interval.div.calls": c["interval.div.calls"],
            "interval.div_straddles": c["interval.div_straddles"],
            "kleenean.at.calls": at_calls,
            "kleenean.at.bottom": c["kleenean.at.bottom"],
            "kleenean.select.calls": c["kleenean.select.calls"],
            "creal.nodes": c["creal.nodes"],
            "creal.approx.calls": approx_calls,
            "creal.approx.hits": c["creal.approx.hits"],
            "creal.approx.rewarms": c["creal.approx.rewarms"],
            "algorithms.calls": c["algorithms.calls"],
            "algorithms.f_evals": c["algorithms.f_evals"],
            "expr.ast_nodes": c["expr.ast_nodes"],
            "expr.parse_s": spans.get("expr.parse", 0.0),
            "expr.evaluate_s": spans.get("expr.evaluate", 0.0),
        }
        for layer in LAYERS:
            per_query[f"{layer}.self_s"] = self.self_s[layer]
        out = {k: v / queries for k, v in per_query.items()}
        out["dyadic.mantissa_bits.max"] = c["dyadic.mantissa_bits.max"]
        out["creal.precision.max"] = c["creal.precision.max"]
        out["creal.approx.hit_ratio"] = c["creal.approx.hits"] / max(approx_calls, 1)
        out["kleenean.useful_ratio"] = (
            (at_calls - c["kleenean.at.bottom"]) / max(at_calls, 1))
        out["kleenean.settle_effort.p50"] = statistics.median(efforts)
        out["kleenean.settle_effort.max"] = max(efforts)
        return out

    def write_spans(self, path):
        """Write the recorded spans as gzipped CSV, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,query\n")
            for i, (n, t0, t1, parent, query) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_query)):
                fh.write(f"{i},{self.names[n]},{t0:.9f},{t1:.9f},{parent},{query}\n")


def _count_nodes(node) -> int:
    """Number of nodes in a parsed expression tree."""
    children = [getattr(node, f) for f in ("left", "right", "operand")
                if hasattr(node, f)]
    children.extend(getattr(node, "args", ()))
    return 1 + sum(_count_nodes(c) for c in children)
