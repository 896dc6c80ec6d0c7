"""Run-to-run spread of the end-to-end metrics over two sets of runs, and
the recorded baseline.

    python3 perfbench/spread.py [--baseline perfbench/baseline.json]

Runs two sets, one after the other; a set runs run.py with --trace 0 once
per workload and seed 1..10, one process at a time, with the run_seconds of
BENCHMARK.json.  For each set, workload and metric it prints the median and
the quartile spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound; then, for
each workload and metric, how much worse the second set's median is than
the first's, as a share of the first.  With --baseline it also writes every
run's result there, with provenance.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

SETS = 2
SEEDS = range(1, 11)


def run_set(bench: dict) -> dict | None:
    """One run per (workload, seed); None when a run fails to finish."""
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return None
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            provenance = json.loads(next(line.split(" ", 1)[1] for line in lines
                                         if line.startswith("provenance ")))
            runs[workload].append({"seed": seed, "wall_s": wall,
                                   "provenance": provenance, **result})
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct "
                  f"{result['correct']}, {shown}", flush=True)
    return runs


def _values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs]


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="write every run's result here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for number in range(1, SETS + 1):
        print(f"set {number}", flush=True)
        runs = run_set(bench)
        if runs is None:
            return 1
        sets.append(runs)
    ok = all(r["correct"] for runs in sets for rs in runs.values() for r in rs)
    for number, runs in enumerate(sets, 1):
        for workload, rs in runs.items():
            for name, bound in bounds.items():
                values = _values(rs, name)
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                print(f"set {number}  {workload:<15} {name:<12} median {med:10.4f}"
                      f"  spread {spread:6.3f}  bound {bound}  "
                      f"{'ok' if spread < bound / 3 else 'WIDE'}", flush=True)
    for workload in sets[0]:
        for name, bound in bounds.items():
            first, second = (statistics.median(_values(runs[workload], name))
                             for runs in sets)
            worse = second / first - 1
            print(f"second vs first  {workload:<15} {name:<12} {worse:+7.3f}  "
                  f"bound {bound}  {'ok' if worse <= bound else 'WORSE'}")
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump({"run_seconds": bench["run_seconds"], "sets": sets}, fh,
                      indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
