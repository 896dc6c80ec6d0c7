"""Output checks that share no code with hermseq.

An operation is one verify check or one CSV row.  Each checker returns a
Tally of operations attempted and failed.  The seed-independent rules
apply on every seed; when the command ran on the inputs its reference
output was recorded from, every row is also compared with that reference.
"""

from __future__ import annotations

import csv
import gzip
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

SEQUENCE_ROWS = 32704  # q * (q^2 - 2) at q = 32
FIGURE_ROWS = 32704 - 1023 + 1
FIGURE_ENDPOINTS = {
    "fig1": (Fraction(32673, 192), Fraction(31682, 341)),
    "fig2": (Fraction(32653, 652), Fraction(31062, 651)),
}
PROFILE = {"q": 4, "ell": 4, "ks": (1, 2), "ns": range(1, 57)}

_CHECK_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)  ")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(note)


def reference_lines(workload: str, output: str) -> list[str]:
    path = os.path.join(REFERENCE_DIR, workload, output + ".gz")
    with gzip.open(path, "rt", newline="") as fh:
        return fh.read().splitlines()


def _compare(lines: list[str], reference: Optional[list[str]], tally: Tally,
             bad: set[int], start: int = 1) -> None:
    """Mark every line from `start` on (1 skips a CSV header) that differs
    from the reference, or that one side lacks, as failed; bad holds the
    indices other rules already failed."""
    if reference is None:
        return
    tally.attempted = max(tally.attempted, len(reference) - start)
    for i in range(start, max(len(lines), len(reference))):
        got = lines[i] if i < len(lines) else None
        want = reference[i] if i < len(reference) else None
        if got != want and i not in bad:
            bad.add(i)
            tally.fail(f"line {i + 1} differs from reference: {got!r} != {want!r}")


def check_verify(text: str, rc: int, reference: Optional[list[str]] = None) -> Tally:
    """One operation per check line; a check fails if it reports FAIL or the
    command exits nonzero."""
    checks = [line for line in text.splitlines() if _CHECK_LINE.match(line)]
    tally = Tally(attempted=max(len(checks), 1))
    if not checks:
        tally.fail("no check lines in verify output")
        return tally
    if rc != 0:
        tally.fail(f"verify exited with {rc}", count=len(checks))
        return tally
    bad = set()
    for i, line in enumerate(checks):
        if _CHECK_LINE.match(line).group(2) == "FAIL":
            bad.add(i)
            tally.fail(line)
    if reference is not None:
        reference = [line for line in reference if _CHECK_LINE.match(line)]
    _compare(checks, reference, tally, bad, start=0)
    return tally


def _ceil_collinear_l_bound(n: int, q: int, k: int, ell: int) -> int:
    """ceil of the collinear total-degree bound
    (r2 (q^2-2) - (ell-1) - k((q-ell)(q+1)+1)) / (r2 + k(ell-1)), r2 = n // (q^2-2)."""
    r2 = n // (q * q - 2)
    num = r2 * (q * q - 2) - (ell - 1) - k * ((q - ell) * (q + 1) + 1)
    den = r2 + k * (ell - 1)
    return -(-num // den)


def check_complexity(text: str, reference: Optional[list[str]] = None) -> Tally:
    """profile-q4 rows: exact, at least the collinear total-degree bound,
    and nondecreasing in n for each k."""
    q, ell = PROFILE["q"], PROFILE["ell"]
    lines = text.splitlines()
    expected = [(n, k) for n in PROFILE["ns"] for k in PROFILE["ks"]]
    tally = Tally(attempted=len(expected))
    bad: set[int] = set()
    if lines[:1] != ["n,k,mode,result_kind,value_or_lo,hi"]:
        tally.fail("missing complexity header", count=len(expected))
        return tally
    last: dict[int, int] = {}
    for i, row in enumerate(csv.reader(lines[1:]), start=1):
        try:
            n, k = int(row[0]), int(row[1])
            kind, value = row[3], int(row[4])
        except (IndexError, ValueError):
            bad.add(i)
            tally.fail(f"malformed row {row}")
            continue
        if i - 1 >= len(expected) or (n, k) != expected[i - 1]:
            problem = f"unexpected row for n={n} k={k}"
        elif kind != "exact":
            problem = f"n={n} k={k}: {kind}"
        elif value < _ceil_collinear_l_bound(n, q, k, ell):
            problem = f"n={n} k={k}: {value} is below the collinear bound"
        elif value < last.get(k, 0):
            problem = f"n={n} k={k}: {value} decreases from {last[k]}"
        else:
            problem = None
        last[k] = value
        if problem:
            bad.add(i)
            tally.fail(problem)
    missing = len(expected) - (len(lines) - 1)
    if missing > 0:
        tally.fail(f"{missing} rows missing", count=missing)
    _compare(lines, reference, tally, bad)
    return tally


def check_sequence(text: str, reference: Optional[list[str]] = None) -> Tally:
    """q = 32 sequence rows: 32,704 of them, no term zero."""
    lines = text.splitlines()
    tally = Tally(attempted=SEQUENCE_ROWS)
    if lines[:1] != ["index,i,j,value"] or len(lines) - 1 != SEQUENCE_ROWS:
        tally.fail(f"{len(lines) - 1} sequence rows, expected {SEQUENCE_ROWS}",
                   count=SEQUENCE_ROWS)
        return tally
    bad = set()
    for i in range(1, len(lines)):
        value = lines[i].rsplit(",", 1)[-1]
        if not value.strip("0:"):
            bad.add(i)
            tally.fail(f"zero term in row {lines[i]}")
    _compare(lines, reference, tally, bad)
    return tally


def check_figure(text: str, preset: str, reference: Optional[list[str]] = None) -> Tally:
    """Figure rows: n = 1023..32704 and the exact endpoint values."""
    lines = text.splitlines()
    tally = Tally(attempted=FIGURE_ROWS)
    rows = list(csv.reader(lines[1:]))
    bad = set()
    missing = FIGURE_ROWS - len(rows)
    if missing > 0:
        tally.fail(f"{missing} {preset} rows missing", count=missing)
    if rows:
        last = rows[-1]
        try:
            ends = (int(last[0]), Fraction(last[3]), Fraction(last[4]))
        except (IndexError, ValueError, ZeroDivisionError):
            ends = None
        if ends != (32704,) + FIGURE_ENDPOINTS[preset]:
            bad.add(len(rows))
            tally.fail(f"{preset} endpoint row {last}")
    _compare(lines, reference, tally, bad)
    return tally


def check_output(check: str, text: str, rc: int,
                 reference: Optional[list[str]]) -> Tally:
    """Run the checker named by Command.check; a CSV command that exits
    nonzero fails every row."""
    if check == "verify":
        return check_verify(text, rc, reference)
    if check == "complexity":
        tally = check_complexity(text, reference)
    elif check == "sequence":
        tally = check_sequence(text, reference)
    else:
        tally = check_figure(text, check, reference)
    if rc != 0:
        tally.fail(f"exit code {rc}", count=tally.attempted)
    tally.failed = min(tally.failed, tally.attempted)
    return tally
