"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import gzip
import math
from fractions import Fraction
from pathlib import Path

import pytest

from hermseq.bounds import bound
from hermseq.cli import EXIT_OK, main
from hermseq.complexity import PerVariable, TotalDegree, nonlinear_complexity
from hermseq.field import FieldContext
from hermseq.sequence import build_sequence
from hermseq.verify import (
    check_field,
    check_l_improvement,
    check_l_twopoint_equivalence,
    check_n_improvement,
    check_oracle_agreement,
    check_sequence_layer,
    check_structure,
    check_bound_consistency,
)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def _contexts():
    return {2: FieldContext(2, 1), 3: FieldContext(3, 1)}


def _bound_criterion(num: int, kind: str, name: str, mode_cls, desc: str):
    failures = []
    grid_points = 0
    for q, ctx in _contexts().items():
        for ell in range(2, q + 1):
            seq = build_sequence(ctx, ell)
            result, = (r for r in check_bound_consistency(ctx, seq, ell)
                       if r.name.startswith(f"bound-{kind}["))
            if not result.passed:
                failures.append(f"q={q} ell={ell}: {result.detail}")
            grid_points += (q * q - 2) * len(seq)
    # exact-value subsample on top of the infeasibility proofs
    exact_checked = 0
    for q, ctx in _contexts().items():
        ks = (1, 2) if q == 2 else (1, 2, 3)
        ns = range(1, 5) if q == 2 else (7, 14, 21)
        for ell in range(2, q + 1):
            seq = build_sequence(ctx, ell)
            for k in ks:
                for n in ns:
                    ceiling = math.ceil(bound(name, q, k, ell, n))
                    achieved = nonlinear_complexity(ctx, seq[:n], mode_cls(k))
                    exact_checked += 1
                    if achieved < ceiling:
                        failures.append(
                            f"exact q={q} ell={ell} k={k} n={n}: "
                            f"{achieved} < {ceiling}"
                        )
    _report(num, desc, not failures,
            failures[0] if failures
            else f"{grid_points} grid points, {exact_checked} exact values")


def test_criterion_1_per_variable_bound():
    _bound_criterion(
        1, "per-variable", "N_collinear", PerVariable,
        "per-variable complexities respect the collinear bound at q in {2,3}",
    )


def test_criterion_2_total_degree_bound():
    _bound_criterion(
        2, "total-degree", "L_collinear", TotalDegree,
        "total-degree complexities respect the collinear bound at q in {2,3}",
    )


def test_criterion_3_oracle_equivalence():
    ctx = FieldContext(2, 1)
    result = check_oracle_agreement(ctx)
    _report(3, "solver agrees with the brute-force oracle",
            result.passed, result.detail)


def test_criterion_4_structural_suite():
    failures = []
    details = []
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        ctx = FieldContext(p, e)
        for result in [check_field(ctx), check_structure(ctx)] + \
                check_sequence_layer(ctx):
            if not result.passed:
                failures.append(f"{result.name}: {result.detail}")
        details.append(f"q={ctx.q}")
    _report(4, "structural suite for q in {2,3,4,5}", not failures,
            failures[0] if failures else ", ".join(details))


def test_criterion_5_n_bound_dominance():
    result = check_n_improvement()
    _report(5, "collinear per-variable bound dominates the refined two-point "
               "bound on the claimed grid", result.passed, result.detail)


def test_criterion_6_l_bound_dominance():
    result = check_l_improvement()
    _report(6, "collinear total-degree bound dominates the refined two-point "
               "bound on its claimed set", result.passed, result.detail)


def test_criterion_7_quadratic_equivalence():
    result = check_l_twopoint_equivalence()
    _report(7, "quadratic predictor matches the exact two-point comparison",
            result.passed, result.detail)


def test_criterion_8_figure_regeneration(tmp_path):
    expected = {
        "fig1": (Fraction(32673, 192), Fraction(31682, 341)),
        "fig2": (Fraction(32653, 652), Fraction(31062, 651)),
    }
    failures = []
    for preset, (own_end, rival_end) in expected.items():
        path = tmp_path / f"{preset}.csv"
        code = main(["figures", "--preset", preset, "--out", str(path)])
        if code != EXIT_OK:
            failures.append(f"{preset}: exit {code}")
            continue
        reference = (Path(__file__).resolve().parent.parent / "perfbench"
                     / "reference" / "emit-q32" / f"{preset}.csv.gz")
        if path.read_bytes() != gzip.decompress(reference.read_bytes()):
            failures.append(f"{preset}: differs from {reference.name}")
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        body = rows[1:]
        ns = [int(r[0]) for r in body]
        if ns != list(range(1023, 32705)):
            failures.append(f"{preset}: incomplete n coverage")
        own = [Fraction(r[3]) for r in body]
        rival = [Fraction(r[4]) for r in body]
        if any(a <= b for a, b in zip(own, rival)):
            failures.append(f"{preset}: dominance fails on some row")
        if own != sorted(own) or rival != sorted(rival):
            failures.append(f"{preset}: a bound column decreases")
        if own[-1] != own_end or rival[-1] != rival_end:
            failures.append(f"{preset}: endpoint mismatch")
        # decimal column is the 6-place rendering of the exact one
        from hermseq.bounds import decimal_string
        if any(r[1] != decimal_string(a) for r, a in zip(body, own)):
            failures.append(f"{preset}: decimal column inconsistent")
    _report(8, "figure presets regenerate with coverage, monotonicity, "
               "dominance and exact endpoints", not failures,
            failures[0] if failures else "fig1.csv and fig2.csv verified")
