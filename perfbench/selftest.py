"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the output checkers accept the reference outputs and count a
corrupted row as a failed operation, that span self times are computed
correctly, that traced repetitions whose call counts differ are caught,
that seeds map to inputs deterministically, that BENCHMARK.json
names exactly the metrics run.py prints, and that run.py fails without a
result when the hermseq sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from checks import check_output, reference_lines  # noqa: E402
from spans import TRACED, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, line_for  # noqa: E402


def _reference_text(workload: str, output: str) -> str:
    return "\n".join(reference_lines(workload, output)) + "\n"


def _replace_line(text: str, index: int, new: str) -> str:
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


class CheckerTest(unittest.TestCase):
    def test_reference_outputs_pass(self):
        for workload in WORKLOADS.values():
            for cmd in workload.commands:
                ref = reference_lines(workload.name, cmd.output)
                text = _reference_text(workload.name, cmd.output)
                for reference in (ref, None):
                    tally = check_output(cmd.check, text, 0, reference)
                    self.assertGreater(tally.attempted, 0)
                    self.assertEqual(tally.failed, 0, (cmd.output, tally.notes))

    def test_corrupted_row_against_reference_fails(self):
        for workload in WORKLOADS.values():
            for cmd in workload.commands:
                ref = reference_lines(workload.name, cmd.output)
                text = _replace_line(_reference_text(workload.name, cmd.output),
                                     5, ref[5] + "9")
                tally = check_output(cmd.check, text, 0, ref)
                self.assertGreater(tally.failed / tally.attempted, 0, cmd.output)

    def test_seed_independent_rules(self):
        seq = _reference_text("emit-q32", "sequence.csv")
        zero = ":".join(["0"] * 10)
        tally = check_output("sequence", _replace_line(seq, 3, f"3,1,3,{zero}"), 0, None)
        self.assertEqual(tally.failed, 1)
        short = "\n".join(seq.splitlines()[:-1]) + "\n"
        self.assertEqual(check_output("sequence", short, 0, None).failed, 32704)

        cx = _reference_text("profile-q4", "complexity.csv")
        row = cx.splitlines()[-1].split(",")
        bracket = ",".join(row[:3] + ["bracket"] + row[4:])
        self.assertEqual(check_output("complexity", _replace_line(cx, -1, bracket),
                                      0, None).failed, 1)
        below = ",".join(row[:4] + ["1", "1"])
        self.assertGreaterEqual(check_output("complexity", _replace_line(cx, -1, below),
                                             0, None).failed, 1)

        fig = _reference_text("emit-q32", "fig1.csv")
        last = fig.splitlines()[-1].split(",")
        moved = ",".join(last[:3] + ["1/2", last[4]])
        self.assertEqual(check_output("fig1", _replace_line(fig, -1, moved),
                                      0, None).failed, 1)

        verify = _reference_text("prove-q4", "verify.txt")
        failing = verify.replace("PASS", "FAIL", 1)
        self.assertEqual(check_output("verify", failing, 1, None).failed,
                         check_output("verify", failing, 1, None).attempted)
        self.assertEqual(check_output("verify", failing, 0, None).failed, 1)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda x: x)
        outer = tracer.wrap("outer", lambda: inner(True) and inner(False))
        self.assertFalse(outer())
        # outer spans ticks 0..5; the inner calls span 1..2 and 3..4
        summary = tracer.summary()
        self.assertEqual(summary["outer"], {"calls": 1, "self_s": 3.0, "total_s": 5.0})
        self.assertEqual(summary["inner"], {"calls": 2, "self_s": 2.0, "total_s": 2.0})
        self.assertEqual(list(tracer.span_parent), [-1, 0, 0])


class TraceCountTest(unittest.TestCase):
    def test_differing_counts_are_mismatches(self):
        def rep(offers):
            spans = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                     for name in TRACED}
            spans["field.offer"]["calls"] = offers
            return {"spans": spans}

        self.assertEqual(run.count_mismatches([rep(5), rep(5), rep(5)]), 0)
        self.assertEqual(run.count_mismatches([rep(5), rep(6), rep(5)]), 1)


class SeedTest(unittest.TestCase):
    def test_seed_gives_same_line(self):
        profile = WORKLOADS["profile-q4"]
        self.assertIsNone(line_for(profile, DEFAULT_SEED))
        self.assertIsNone(line_for(WORKLOADS["prove-q4"], 5))
        for seed in range(1, 30):
            a = line_for(profile, seed)
            self.assertEqual(a, line_for(profile, seed))
            self.assertEqual(len(a.split(":")), 4)
            self.assertTrue(any(c != "0" for c in a.split(":")))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        per_layer = [(name, unit) for name, unit, _ in run.PER_LAYER]
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         per_layer + list(run.OVERHEAD))

    def test_child_setup_reports_a_time(self):
        runner = run.Runner(ROOT, run.time.monotonic())
        self.assertGreater(runner.child("setup", "emit-q32")["setup_s"], 0)

    def test_run_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "prove-q4",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
