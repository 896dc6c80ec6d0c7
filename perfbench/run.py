"""hermseq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hermseq is imported from its src/.  Each
repetition of the workload runs in a fresh interpreter (child.py), one at a
time, with HERMSEQ_THREADS unset.  With --trace 0 the run times the
workload's commands and prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions, and prints the per-layer
metrics and the tracing overhead.  Every time is given in reference
seconds: the parent times a fixed calibration loop between children and
scales each child's times by the host speed around it (calibration_s).
Repetitions continue while the next one
is expected to end less than half a repetition past S seconds, with at
least two of each kind.
Every repetition's output is checked (checks.py), and every traced
repetition's exact call counts must equal the first one's.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_output, reference_lines  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    line_for,
    reference_applies,
)

SETUP_RUNS = 21
MIN_REPS = 2  # of each kind a run makes, so a median rests on two samples
CAL_ITERATIONS = 20000
# the calibration loop's time on the host that defines a reference second;
# a host where the loop takes twice as long has its times halved
CAL_REFERENCE_S = 0.05
TIME_LIMIT_S = 170  # the whole run, children included
OUT_DIR = ".perfbench_out"

END_TO_END = (
    ("command_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _self(summary, *names):
    return sum(summary[name]["self_s"] for name in names)


def _calls(summary, *names):
    return sum(summary[name]["calls"] for name in names)


def _per_call(summary, num, den):
    calls = _calls(summary, den)
    return _calls(summary, num) / calls if calls else 0.0


IMPROVES = ("bounds.n_improves", "bounds.l_improves",
            "bounds.l_twopoint_condition", "bounds.l_improves_twopoint")

# (name, unit, value from a span summary); see README.md for the layer map
PER_LAYER = (
    ("field.context_s", "s", lambda s: _self(s, "field.context")),
    ("field.offer_s", "s", lambda s: _self(s, "field.offer")),
    ("field.offer_calls", "count", lambda s: _calls(s, "field.offer")),
    ("field.fiber_s", "s", lambda s: _self(s, "field.fiber")),
    ("complexity.colgen_s", "s", lambda s: _self(s, "complexity.exists")),
    ("complexity.exists_calls", "count", lambda s: _calls(s, "complexity.exists")),
    ("complexity.exists_feasible", "count",
     lambda s: s["complexity.exists"].get("true", 0)),
    ("complexity.columns_per_call", "columns/call",
     lambda s: _per_call(s, "field.offer", "complexity.exists")),
    ("complexity.profile_s", "s", lambda s: _self(s, "complexity.profile")),
    ("complexity.profile_calls", "count", lambda s: _calls(s, "complexity.profile")),
    ("complexity.oracle_s", "s", lambda s: _self(s, "complexity.oracle")),
    ("complexity.oracle_calls", "count", lambda s: _calls(s, "complexity.oracle")),
    ("curve.eval_quotient_s", "s", lambda s: _self(s, "curve.eval_quotient")),
    ("curve.eval_quotient_calls", "count", lambda s: _calls(s, "curve.eval_quotient")),
    ("curve.scale_place_s", "s", lambda s: _self(s, "curve.scale_place")),
    ("curve.affine_places_s", "s", lambda s: _self(s, "curve.affine_places")),
    ("sequence.build_s", "s", lambda s: _self(s, "sequence.build")),
    ("bounds.figure_rows_s", "s", lambda s: _self(s, "bounds.figure_rows")),
    ("bounds.improves_s", "s", lambda s: _self(s, *IMPROVES)),
    ("bounds.improves_calls", "count", lambda s: _calls(s, *IMPROVES)),
    ("verify.field_s", "s", lambda s: _self(s, "verify.field")),
    ("verify.structure_s", "s", lambda s: _self(s, "verify.structure")),
    ("verify.sequence_s", "s",
     lambda s: _self(s, "verify.sequence_layer", "verify.nonzero_terms")),
    ("verify.bound_consistency_s", "s", lambda s: _self(s, "verify.bound_consistency")),
    ("verify.oracle_agreement_s", "s", lambda s: _self(s, "verify.oracle_agreement")),
    ("verify.grids_s", "s", lambda s: _self(s, "verify.n_improvement",
                                             "verify.l_improvement",
                                             "verify.l_twopoint_equivalence")),
    ("verify.figures_s", "s", lambda s: _self(s, "verify.figures")),
    ("verify.suite_s", "s", lambda s: _self(s, "verify.suite")),
    ("cli.self_s", "s", lambda s: _self(s, "cli.main")),
)
OVERHEAD = (("trace.overhead_s", "s"), ("trace.overhead_share", "1"))


def trace_counts(rep) -> dict[str, int]:
    """The exact call counts of one traced repetition."""
    return {name: fn(rep["spans"]) for name, unit, fn in PER_LAYER
            if unit == "count"}


def count_mismatches(traced_reps) -> int:
    """How many traced repetitions after the first made other calls than
    the first: the same inputs must make exactly the same calls."""
    first = trace_counts(traced_reps[0])
    return sum(trace_counts(rep) != first for rep in traced_reps[1:])


class BenchError(Exception):
    """The run cannot produce a result."""


class Runner:
    """Starts child interpreters one at a time, within the run's time limit."""

    def __init__(self, root: str, started: float):
        self.root = root
        self.deadline = started + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("HERMSEQ_THREADS", None)
        self.env["PYTHONHASHSEED"] = "0"
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def child(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{' '.join(args)} exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"child {' '.join(args)} exited with "
                             f"{proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])


def calibration_s() -> float:
    """Time a fixed pure-Python loop shaped like hermseq's field arithmetic
    (table lookups, small tuples, dict access).  It shares no code with
    hermseq, so a change to the program cannot change its time; it tracks
    how fast the shared host runs Python at that moment."""
    start = time.perf_counter()
    exp, x = [], 1
    for _ in range(255):  # GF(256) with the primitive polynomial 0x11d
        exp.append(tuple((x >> b) & 1 for b in range(8)))
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    log = {e: i for i, e in enumerate(exp)}
    acc, kept = exp[0], []
    for i in range(CAL_ITERATIONS):
        c = exp[(log[exp[i % 255]] + log[exp[i * 7 % 255]]) % 255]
        acc = tuple((u + v) % 2 for u, v in zip(acc, c))
        if i % 16 == 0:
            kept.append((acc, c))
    return time.perf_counter() - start


def _to_reference(rep: dict, before: float, after: float) -> None:
    """Scale the repetition's times to reference seconds by the mean of
    the calibrations just before and just after it."""
    rep["calibration_s"] = (before + after) / 2
    factor = CAL_REFERENCE_S / rep["calibration_s"]
    for c in rep["commands"]:
        c["seconds"] *= factor
    for row in rep.get("spans", {}).values():
        row["self_s"] *= factor
        row["total_s"] *= factor


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _git_sha(root: str) -> str:
    """HEAD of the checkout, read without running git; 'unknown' when the
    checkout is not a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 root: str, started: float) -> dict:
    runner = Runner(root, started)
    a = line_for(workload, seed)
    out_dir = os.path.join(root, OUT_DIR, workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    references = {
        cmd.output: (reference_lines(workload.name, cmd.output)
                     if reference_applies(cmd, a) else None)
        for cmd in workload.commands
    }

    runner.child("setup", workload.name)  # compile bytecode, warm the disk cache
    setups = []
    before = calibration_s()
    for _ in range(SETUP_RUNS):
        setup_s = runner.child("setup", workload.name)["setup_s"]
        after = calibration_s()
        setups.append(setup_s * CAL_REFERENCE_S / ((before + after) / 2))
        before = after

    attempted = failed = 0
    notes: list[str] = []
    plain, traced_reps = [], []
    measure_start = time.monotonic()
    while True:
        trace_this = traced and len(traced_reps) < len(plain)
        args = ["run", workload.name, out_dir, "1" if trace_this else "0"]
        outputs = [os.path.join(out_dir, cmd.output) for cmd in workload.commands]
        for path in outputs:  # a command that writes nothing must not pass
            if os.path.exists(path):
                os.remove(path)
        rep_start = time.monotonic()
        rep = runner.child(*args + ([a] if a is not None else []))
        after = calibration_s()
        _to_reference(rep, before, after)
        before = after
        for cmd, path, timing in zip(workload.commands, outputs, rep["commands"]):
            try:
                with open(path, newline="") as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            tally = check_output(cmd.check, text, timing["rc"],
                                 references[cmd.output])
            attempted += tally.attempted
            failed += tally.failed
            notes += [f"{cmd.output}: {note}" for note in tally.notes]
        (traced_reps if trace_this else plain).append(rep)
        # stop when the next repetition would end more than half of one
        # past the measuring time, or could overrun the time limit
        now = time.monotonic()
        rep_seconds = now - rep_start
        done = (now - measure_start + rep_seconds / 2 >= seconds
                or now + 2 * rep_seconds > runner.deadline)
        enough = (len(plain) >= MIN_REPS
                  and (not traced or len(traced_reps) >= MIN_REPS))
        if done and enough:
            break
    if traced:  # each traced repetition after the first is one operation
        mismatches = count_mismatches(traced_reps)
        attempted += len(traced_reps) - 1
        failed += mismatches
        if mismatches:
            notes.append(f"traced counts: {mismatches} of "
                         f"{len(traced_reps) - 1} repetitions differ from the first")

    return {"a": a, "setups": setups, "plain": plain, "traced": traced_reps,
            "attempted": attempted, "failed": failed, "notes": notes}


def _command_seconds(rep) -> float:
    return sum(c["seconds"] for c in rep["commands"])


def _by_metric(rep) -> dict[str, float]:
    out: dict[str, float] = {}
    for c in rep["commands"]:
        out[c["metric"]] = out.get(c["metric"], 0.0) + c["seconds"]
    return out


def report(workload, seed: int, traced: bool, result: dict, root: str) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    plain = result["plain"]
    print(f"workload {workload.name}  seed {seed}  line a = "
          f"{result['a'] or 'default (epsilon)'}")
    print("provenance " + json.dumps({
        "python": platform.python_version(), "cores": os.cpu_count(),
        "git_sha": _git_sha(root), "setup_runs": len(result["setups"]),
        "untraced_reps": len(plain), "traced_reps": len(result["traced"]),
        "calibration_s": statistics.median(
            rep["calibration_s"] for rep in plain + result["traced"]),
        "cal_reference_s": CAL_REFERENCE_S,
    }))
    end_to_end = {
        "command_s": statistics.median(_command_seconds(rep) for rep in plain),
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
    }
    for metric in _by_metric(plain[0]):
        values = [_by_metric(rep)[metric] for rep in plain]
        q1, q3 = _quartiles(values)
        print(f"  {metric:<16} {statistics.median(values):10.4f} s   "
              f"quartiles {q1:.4f} .. {q3:.4f}  over {len(values)} reps")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {end_to_end[name]:10.4f} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"  ops_failed_ratio {ratio:10.4f}      "
          f"({result['failed']} of {result['attempted']} operations)")
    for note in result["notes"][:10]:
        print(f"  FAILED {note}")

    if not traced:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        metrics = _per_layer(workload, result)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _per_layer(workload, result: dict) -> dict:
    summaries = [rep["spans"] for rep in result["traced"]]
    values = {name: statistics.median(fn(s) for s in summaries)
              for name, _, fn in PER_LAYER}
    untraced = statistics.median(_command_seconds(r) for r in result["plain"])
    traced = statistics.median(_command_seconds(r) for r in result["traced"])
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_share"] = (traced - untraced) / untraced
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update(OVERHEAD)

    repeat = count_mismatches(result["traced"]) == 0
    print(f"  traced counts repeat exactly over {len(summaries)} reps: "
          f"{'yes' if repeat else 'NO'}")
    if result["a"] is None:  # a note only: later changes may lower them
        counts = trace_counts(result["traced"][0])
        for name, want in workload.seed_counts:
            got = counts[name]
            print(f"  {name} = {got}  (seed commit: {want}"
                  f"{'' if got == want else ', DIFFERS'})")
    print(f"  tracing overhead {values['trace.overhead_s']:.4f} s "
          f"= {values['trace.overhead_share']:.2%} of {untraced:.4f} s untraced")
    for name in units:
        print(f"  {name:<30} {values[name]:12.6f} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hermseq", "__init__.py")):
        print(f"error: no hermseq sources under {root}/src; run from the root "
              "of a hermseq checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), root, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(workload, args.seed, bool(args.trace), result, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
