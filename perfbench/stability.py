"""Whether two sets of runs of the same code agree, and the baseline file.

    python3 perfbench/stability.py [--out FILE]

Makes two sets of ``RUNS`` untraced runs of ``run.py`` on every workload in
BENCHMARK.json, with its run length: set 1 with seeds 1..RUNS, set 2 with
seeds RUNS+1..2*RUNS.  The runs alternate between the sets and the
workloads, so a slow spell of the machine falls on both sets.  For every
end-to-end metric it prints each set's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median, and the drift between the sets,
|median 2 - median 1| / median 1, each beside the metric's bound.  With
``--out`` it also makes one traced run per workload (seed 1) and writes
both sets, the per-layer figures and the stamp to FILE, as a baseline to
compare later commits against.

Exits 1 if a run failed, or if a spread or a drift of any metric exceeds
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=run.RUN_LIMIT_S + 10)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    names = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = [[s * RUNS + i + 1 for i in range(RUNS)] for s in range(SETS)]
    lines = {(name, s): [] for name in names for s in range(SETS)}
    for i in range(RUNS):
        for name in names:
            for s in range(SETS):
                lines[name, s].append(one_run(name, seeds[s][i], 0))
                print(f"{name} seed {seeds[s][i]} done", file=sys.stderr, flush=True)

    ok = all(line["correct"] for runs in lines.values() for line in runs)
    baseline = {}
    for name in names:
        entry = {"sets": [{"seeds": seeds[s], "end_to_end": {}} for s in range(SETS)],
                 "drift": {}}
        print(f"== {name}: {SETS} sets of {RUNS} runs")
        for metric, bound in bounds.items():
            sets = [summarize([line["metrics"][metric]["value"]
                               for line in lines[name, s]]) for s in range(SETS)]
            drift = abs(sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            entry["drift"][metric] = drift
            for s, summary in enumerate(sets):
                entry["sets"][s]["end_to_end"][metric] = summary
            over = [f"set {s + 1} spread" for s, summary in enumerate(sets)
                    if summary["spread"] > bound]
            over += ["drift"] if drift > bound else []
            ok = ok and not over
            print(f"  {metric:<16} bound {bound}  drift {drift:.4f}"
                  f"{'  OVER BOUND: ' + ', '.join(over) if over else ''}")
            for s, summary in enumerate(sets):
                print(f"    set {s + 1}: median {summary['median']:12.5g}  "
                      f"q1 {summary['q1']:12.5g}  q3 {summary['q3']:12.5g}  "
                      f"spread {summary['spread']:.4f}")
        if args.out:
            traced = one_run(name, 1, 1)
            entry["per_layer_seed1"] = {m: v["value"]
                                        for m, v in traced["metrics"].items()}
        baseline[name] = entry
    if args.out:
        args.out.write_text(json.dumps({
            "stamp": run.stamp(), "run_seconds": SPEC["run_seconds"],
            "workloads": baseline}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
