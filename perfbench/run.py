"""exactreal benchmark: verified time to certified precision.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep-sqrt --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --self-check

One workload: generates its queries from the seed, has fresh interpreters
(``worker.py``) make the library calls, checks every answer here with an
oracle that does not use exactreal (``workloads.py``), prints every metric
by name with its unit, writes a stamped result file under
``.perfbench_out/`` and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  It exits
1 if any query failed its check.

``--workload all`` runs every workload untraced and traced.
``--self-check`` instead runs each workload with one deliberately wrong
result and passes only if the benchmark counts it as failed and exits
non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = tuple(workloads.WORKLOADS)
SETUPS = 7  # fresh interpreters per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0
MIN_QUERIES = 100
MAX_MEASURE_S = 120.0  # stop early rather than overrun the run's limit
MAX_REPORTED_FAILURES = 20

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# fail_rate is 0 on a correct build; it is printed and stored, and the
# JSON line carries it as attempted/failed.  import_rss_mb is the worker's
# resident memory once exactreal is imported, beside the peak.
REPORTED_ONLY = {"fail_rate": "ratio", "import_rss_mb": "MB"}

_PER_QUERY = "count/query"
PER_LAYER = {
    "dyadic.ops": _PER_QUERY,
    "dyadic.div_directed.calls": _PER_QUERY,
    "dyadic.self_s": "s/query",
    "dyadic.mantissa_bits.max": "bits",
    "interval.ops": _PER_QUERY,
    "interval.div.calls": _PER_QUERY,
    "interval.div_straddles": _PER_QUERY,
    "interval.self_s": "s/query",
    "kleenean.at.calls": _PER_QUERY,
    "kleenean.at.bottom": _PER_QUERY,
    "kleenean.useful_ratio": "ratio",
    "kleenean.select.calls": _PER_QUERY,
    "kleenean.settle_effort.p50": "effort",
    "kleenean.settle_effort.max": "effort",
    "kleenean.self_s": "s/query",
    "creal.nodes": _PER_QUERY,
    "creal.approx.calls": _PER_QUERY,
    "creal.approx.hits": _PER_QUERY,
    "creal.approx.hit_ratio": "ratio",
    "creal.approx.rewarms": _PER_QUERY,
    "creal.precision.max": "bits",
    "creal.self_s": "s/query",
    "algorithms.calls": _PER_QUERY,
    "algorithms.f_evals": _PER_QUERY,
    "algorithms.self_s": "s/query",
    "expr.parse_s": "s/query",
    "expr.evaluate_s": "s/query",
    "expr.ast_nodes": _PER_QUERY,
    **{f"expr.hidden_zero_ms.d{d}": "ms" for d in workloads.HIDDEN_ZERO_DIGITS},
    **{f"{layer}.{op}_us.b{bits}": "us"
       for layer in ("dyadic", "interval")
       for op in ("add", "mul", "div")
       for bits in (64, 1000, 10000)},
    "trace.overhead": "ratio",
}


class RunError(Exception):
    """The benchmark could not produce a result."""


class Worker:
    """A fresh interpreter running ``worker.py``, driven one JSON line at a
    time (see its docstring).  Used as a context manager, it is always
    killed and waited for."""

    def __init__(self, deadline: float, trace: bool = False):
        self.deadline = deadline
        cmd = [sys.executable, str(WORKER)] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)
        self._buf = b""
        try:
            self.ready = self._recv()
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def _recv(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RunError("worker did not answer in time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RunError(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
        except BrokenPipeError:
            raise RunError(f"worker exited with code {self.proc.wait()}") from None
        return self._recv()

    def end(self, spans: str | None = None) -> dict:
        final = self.call({"op": "end", "spans": spans})
        self.proc.wait(timeout=max(self.deadline - time.monotonic(), 0.1))
        return final


class Tally:
    """Queries attempted, and the first failures with their inputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.sample = None  # a verified (query, answer), for the oracle self-test

    def add(self, q, ok, detail):
        self.attempted += 1
        if ok:
            if self.sample is None:
                self.sample = (q, detail)
            return
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append({"query": q.describe(), "error": detail})

    def merge(self, other: "Tally"):
        """Count another tally's queries; keep this tally's sample."""
        self.attempted += other.attempted
        self.failed += other.failed
        room = MAX_REPORTED_FAILURES - len(self.failures)
        self.failures.extend(other.failures[:room])


def verdict(workload, q, reply, inject_fault=False):
    """Check one answer from the worker: (ok, answer or error)."""
    if "error" in reply:
        return False, reply["error"]
    out = workload.decode(q, reply["out"])
    if inject_fault:
        out = workload.corrupt(q, out)
    if not workload.check(q, out):
        return False, "result failed verification"
    return True, out


def attempt(worker, workload, q, tally, inject_fault=False) -> float:
    """Run one query, check it, count it; return its seconds in the library."""
    reply = worker.call({"op": "query", **workload.encode(q)})
    tally.add(q, *verdict(workload, q, reply, inject_fault))
    return reply["t"]


def start(workload, seed, deadline, tally, trace=False):
    """Generate the inputs, start a worker and warm it up.  Returns the
    worker, the rounds and the set-up seconds: generation, interpreter
    start, import and the warm-up queries.  The warm-up answers are checked
    after the clock stops."""
    t0 = time.perf_counter()
    rounds = workload.rounds(seed)
    rounds = itertools.chain([next(rounds)], rounds)
    warmup = workload.warmup(seed)
    worker = Worker(deadline, trace)
    try:
        replies = [worker.call({"op": "query", **workload.encode(q)}) for q in warmup]
        setup = time.perf_counter() - t0
        for q, reply in zip(warmup, replies):
            tally.add(q, *verdict(workload, q, reply))
    except BaseException:
        worker.__exit__()
        raise
    return worker, rounds, setup


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def measure(worker, workload, rounds, seconds, tally, inject_fault, between):
    """The closed loop: whole rounds until ``seconds`` have passed and at
    least ``MIN_QUERIES`` queries were made.  After each round but the last
    it calls ``between(share of seconds gone)``; that time is not measured."""
    latencies = []
    start_t = time.perf_counter()
    verified_before = tally.attempted - tally.failed
    for rnd in rounds:
        for q in rnd:
            latencies.append(attempt(worker, workload, q, tally,
                                     inject_fault and not latencies))
            if time.perf_counter() - start_t > MAX_MEASURE_S:
                break
        elapsed = time.perf_counter() - start_t
        if elapsed >= seconds and (len(latencies) >= MIN_QUERIES
                                   or elapsed > MAX_MEASURE_S):
            break
        paused = time.perf_counter()
        between(elapsed / seconds)
        start_t += time.perf_counter() - paused
    verified = tally.attempted - tally.failed - verified_before
    n = len(latencies)
    metrics = {
        "throughput_qps": verified / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90(latencies) * 1e3,
    }
    samples = {"throughput_qps": n, "latency_p50_ms": n, "latency_p90_ms": n}
    return metrics, samples, {"measured_s": elapsed, "queries": n,
                              "latencies_s": latencies}


def probe(seed, deadline, tally):
    """Microbenchmarks and the hidden-zero probe, in a worker of their own.
    The probe's queries are counted in ``tally`` but are not its sample."""
    metrics, probed = {}, Tally()
    with Worker(deadline) as worker:
        micro = worker.call({"op": "micro", "seed": seed})
        for digits in workloads.HIDDEN_ZERO_DIGITS:
            q = workloads.Query("hidden-zero", digits, None, workloads.HIDDEN_ZERO)
            reply = worker.call({"op": "query", "workload": "expr",
                                 "bits": digits, "arg": q.text})
            if "error" in reply:
                probed.add(q, False, reply["error"])
            elif workloads.hidden_zero_ok(reply["out"], digits):
                probed.add(q, True, reply["out"])
            else:
                probed.add(q, False, "result failed verification")
            metrics[f"expr.hidden_zero_ms.d{digits}"] = reply["t"] * 1e3
        worker.end()
    tally.merge(probed)
    metrics.update(micro["us"])
    samples = {k: 1 for k in metrics}
    samples.update(dict.fromkeys(micro["us"], micro["batches"]))
    return metrics, samples, micro["spread"]


def traced(workload, seed, seconds, deadline, tally, spans_path):
    """The probes, then an untraced and a traced pass over the first round
    in turn, as many as end within ``seconds`` of the start (at least one);
    counts repeat exactly, times are medians."""
    start_t = time.perf_counter()
    metrics, samples, spreads = probe(seed, deadline, tally)
    worker, rounds, _ = start(workload, seed, deadline, tally, trace=True)
    with worker:
        queries = next(rounds)
        plain_s, traced_s, passes = [], [], []
        pass_s = 0.0
        # a traced pass is slow, so stop before one would end past ``seconds``
        while not passes or time.perf_counter() - start_t + pass_s < seconds:
            pass_t = time.perf_counter()
            plain_s.append(sum(attempt(worker, workload, q, tally) for q in queries))
            worker.call({"op": "trace", "on": True})
            traced_s.append(sum(attempt(worker, workload, q, tally) for q in queries))
            passes.append(worker.call({"op": "trace", "on": False}))
            pass_s = time.perf_counter() - pass_t
        worker.end(spans=str(spans_path))
    layers = [p["layers"] for p in passes]
    n = len(passes)
    for k in layers[0]:
        metrics[k] = statistics.median(p[k] for p in layers)
        samples[k] = n
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s)
    samples["trace.overhead"] = n
    return metrics, samples, {"passes": n, "queries_per_pass": len(queries),
                              "spans": passes[-1]["spans"],
                              "spans_file": str(spans_path.relative_to(ROOT)),
                              "micro_spread": spreads}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 inject_fault: bool = False) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[name]
    tally = Tally()
    if trace:
        spans = OUT_DIR / f"spans-{name}-seed{seed}.csv.gz"
        metrics, samples, extra = traced(workload, seed, seconds, deadline,
                                         tally, spans)
    else:
        def another_setup():
            worker, _, setup = start(workload, seed, deadline, tally)
            with worker:
                worker.end()
            setups.append(setup)

        def spread_setups(progress):
            # slow spells of the machine last seconds to minutes, so the
            # set-ups are spread over the run rather than made in a row
            if len(setups) < SETUPS and progress >= len(setups) / SETUPS:
                another_setup()

        worker, rounds, setup = start(workload, seed, deadline, tally)
        setups = [setup]
        with worker:
            metrics, samples, extra = measure(worker, workload, rounds, seconds,
                                              tally, inject_fault, spread_setups)
            final = worker.end()
        while len(setups) < SETUPS:
            another_setup()
        metrics.update({
            "peak_rss_mb": final["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "fail_rate": tally.failed / tally.attempted,
            "import_rss_mb": worker.ready["import_rss_mb"],
        })
        samples.update({"peak_rss_mb": 1, "setup_s": len(setups),
                        "fail_rate": tally.attempted, "import_rss_mb": 1})
        extra["setups_s"] = setups
    # the oracle must reject a wrong answer, or its verdicts mean nothing
    oracle_ok = tally.sample is not None and not workload.check(
        tally.sample[0], workload.corrupt(*tally.sample))
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "oracle_rejects_wrong_answer": oracle_ok,
        "correct": tally.failed == 0 and oracle_ok,
        "metrics": metrics,
        "samples": samples,
        **extra,
    }


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp() -> dict:
    """Where a result came from: code, interpreter and machine."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def units(trace: bool) -> dict[str, str]:
    return PER_LAYER if trace else {**END_TO_END, **REPORTED_ONLY}


def report(name: str, trace: bool, result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    mode = "traced" if trace else "untraced"
    print(f"== {name} ({mode}): {result['attempted']} queries checked, "
          f"{result['failed']} failed")
    spreads = result.get("micro_spread", {})
    for metric, unit in units(trace).items():
        value = result["metrics"][metric]
        spread = f" spread={spreads[metric]:.3f}" if metric in spreads else ""
        print(f"  {metric:<28} {value:>14.6g} {unit:<12} "
              f"n={result['samples'][metric]}{spread}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['query']}: {failure['error']}")
    if not result["oracle_rejects_wrong_answer"]:
        print("  FAILED the oracle accepted a deliberately wrong answer")


def save(tag: str, payload: dict) -> Path:
    path = OUT_DIR / f"{tag}.json"
    path.write_text(json.dumps({"stamp": stamp(), **payload}, indent=1))
    return path


def self_check(seed: int, seconds: float) -> int:
    """Each workload, fed one wrong result, must fail and exit non-zero."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--inject-fault"],
            capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.strip().splitlines()
        line = json.loads(lines[-1]) if proc.returncode == 1 and lines else {}
        caught = line.get("failed") == 1 and line.get("correct") is False
        ok = ok and caught
        print(f"self-check {name}: exit {proc.returncode}, failed "
              f"{line.get('failed')} of {line.get('attempted')}: "
              f"{'ok' if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "exactreal" / "__init__.py").is_file():
        print(f"no exactreal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = {}
    try:
        for name, trace in runs:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  args.inject_fault)
            report(name, trace, result)
            results[f"{name}/{'traced' if trace else 'untraced'}"] = result
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    tag = (f"{args.workload}-trace{args.trace}" if args.workload != "all"
           else "all") + f"-seed{args.seed}"
    path = save(tag, {"seed": args.seed, "seconds": args.seconds,
                      "results": results})
    print(f"result file: {path.relative_to(ROOT)}")

    correct = all(r["correct"] for r in results.values())
    if args.workload != "all":
        (result,) = results.values()
        trace = bool(args.trace)
        metrics = {m: {"value": result["metrics"][m], "unit": u}
                   for m, u in (PER_LAYER if trace else END_TO_END).items()}
        print(json.dumps({"correct": correct, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
