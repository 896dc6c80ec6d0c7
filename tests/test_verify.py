import math
from fractions import Fraction

import pytest

from hermseq import bounds, verify
from hermseq.field import FieldContext
from hermseq.sequence import build_sequence
from hermseq.verify import (
    CheckResult,
    _result,
    check_n_improvement,
    check_nonzero_terms,
    check_bound_consistency,
    run_suite,
)


@pytest.fixture(scope="module")
def f9():
    return FieldContext(3, 1)


def test_intact_sequence_passes(f9):
    seq = build_sequence(f9, 3)
    assert check_nonzero_terms(f9, seq, 3).passed
    assert check_bound_consistency(f9, seq, 3, "per-variable").passed
    assert check_bound_consistency(f9, seq, 3, "total-degree").passed


def test_corrupt_constant_sequence_breaks_bound_check(f9):
    # a constant sequence has complexity 1 everywhere, far below the bounds
    corrupted = (f9.one,) * len(build_sequence(f9, 3))
    result = check_bound_consistency(f9, corrupted, 3, "per-variable")
    assert not result.passed
    result = check_bound_consistency(f9, corrupted, 3, "total-degree")
    assert not result.passed


def test_corrupt_zero_term_breaks_term_check(f9):
    terms = list(build_sequence(f9, 2))
    terms[5] = f9.zero
    result = check_nonzero_terms(f9, tuple(terms), 2)
    assert not result.passed
    assert "positions [5]" in result.detail


def test_bound_check_kind_validated(f9):
    seq = build_sequence(f9, 2)
    with pytest.raises(ValueError):
        check_bound_consistency(f9, seq, 2, "cubic")


def test_bound_properties_hold_for_every_a(f9):
    # terms depend on the line chosen; the verified bound properties do not
    for a in f9.elements:
        if a == f9.zero:
            continue
        for ell in (2, 3):
            seq = build_sequence(f9, ell, a)
            assert check_bound_consistency(f9, seq, ell, "per-variable",
                                           ks=(1, 2)).passed
            assert check_bound_consistency(f9, seq, ell, "total-degree",
                                           ks=(1, 2)).passed


def test_bound_consistency_q5_slowest_rows():
    # a slice of `verify --p 5`, ell = q = 5 with k = 1, 2, 3 in both kinds,
    # so that exact bound verification at q = 5 stays in the fast suite
    ctx = FieldContext(5, 1)
    seq = build_sequence(ctx, 5)
    for kind in ("per-variable", "total-degree"):
        assert check_bound_consistency(ctx, seq, 5, kind, ks=(1, 2, 3)).passed


def test_bound_check_proves_at_the_ceiling(f9, monkeypatch):
    # every infeasibility proof runs at window ceil(bound) - 1 of its prefix,
    # so a weaker obligation, such as a floor in place of the ceiling, fails
    calls = []
    real = verify.exists_recurrence

    def spy(ctx, terms, m, mode):
        calls.append((len(terms), m, mode.k))
        return real(ctx, terms, m, mode)

    monkeypatch.setattr(verify, "exists_recurrence", spy)
    for ell in (2, 3):
        seq = build_sequence(f9, ell)
        for kind, name in (("per-variable", "N_collinear"),
                           ("total-degree", "L_collinear")):
            calls.clear()
            assert check_bound_consistency(f9, seq, ell, kind).passed
            assert calls
            for n, m, k in calls:
                assert m == math.ceil(bounds.bound(name, 3, k, ell, n)) - 1, (kind, ell, k, n)


def test_suite_single_field():
    results = run_suite(field_specs=[(3, 1)])
    assert results
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "structure[q=3]" in names
    assert "figure-presets" in names


# ---------------------------------------------------------------------------
# the failure policy: read at most seven failures, show four
# ---------------------------------------------------------------------------

def test_result_reads_no_eighth_failure():
    def failures():
        yield from (f"f{i}" for i in range(7))
        raise AssertionError("an eighth failure was read")

    assert _result("demo", failures(), "ok") == CheckResult(
        "demo", False, "f0; f1; f2; f3; ... stopped after 7 failures")
    assert _result("demo", iter(()), "ok") == CheckResult("demo", True, "ok")
    assert _result("demo", iter(["f0", "f1"]), "ok").detail == "f0; f1"


@pytest.mark.parametrize("kind", ["per-variable", "total-degree"])
@pytest.mark.parametrize("value", ["zero", "one"])
def test_bound_check_stops_after_seven_failures(f9, kind, value):
    # the zero sequence fails on every prefix without a solver call, the
    # constant one on solver calls; both stop at the seventh failure
    terms = (getattr(f9, value),) * len(build_sequence(f9, 3))
    result = check_bound_consistency(f9, terms, 3, kind)
    assert not result.passed
    shown, tail = result.detail.rsplit("; ... ", 1)
    assert tail == "stopped after 7 failures"
    assert len(shown.split("; ")) == 4


def test_substitution_failures_do_not_stop_sampling(f9, monkeypatch):
    # every sample fails; only _result caps them, and no sample is missing
    monkeypatch.setattr(verify, "eval_quotient", lambda fam, ell, pl: f9.zero)
    result = verify.check_structure(f9)
    assert result.detail.endswith("; ... stopped after 7 failures")
    assert "substitution samples found" not in result.detail


def test_grid_counts_failures_below_the_cap(monkeypatch):
    # the fake fails the whole (r1, r2) = (1, 1) class at q = 3, k = 2,
    # n = 8..13; the grid asks once per class and names each of its n
    original = bounds.n_bound_improves
    bad = {(3, 2, n) for n in range(8, 14)}
    calls = []

    def fake(q, k, n):
        calls.append((q, k, n))
        return (q, k, n) not in bad and original(q, k, n)

    monkeypatch.setattr(bounds, "n_bound_improves", fake)
    result = check_n_improvement()
    assert not result.passed
    assert result.detail == ("q=3 k=2 n=8; q=3 k=2 n=9; q=3 k=2 n=10; "
                             "q=3 k=2 n=11; ... 6 failures total")
    assert len(calls) == 520
    # q = 3 grid, n = 8..21: classes (1, 1), (1, 2), (2, 2) and (2, 3)
    assert [c for c in calls if c[:2] == (3, 2)] == [(3, 2, 8), (3, 2, 14),
                                                      (3, 2, 16), (3, 2, 21)]


# ---------------------------------------------------------------------------
# the bound grids: one predicate call per (q, k, r1, r2) class
# ---------------------------------------------------------------------------

GRIDS = [
    (verify.check_n_improvement, "n_bound_improves", 10912, 520),
    (verify.check_l_improvement, "l_bound_improves", 11269, 580),
    (verify.check_l_twopoint_equivalence, "l_twopoint_condition", 1330, 995),
]


@pytest.mark.parametrize("check,predicate,points,classes", GRIDS,
                         ids=[g[1] for g in GRIDS])
def test_grid_calls_its_predicate_once_per_class(check, predicate, points,
                                                 classes, monkeypatch):
    original = getattr(bounds, predicate)
    calls = []
    monkeypatch.setattr(bounds, predicate,
                        lambda q, k, n: calls.append((q, k, n)) or original(q, k, n))
    result = check()
    assert result.passed
    assert result.detail.startswith(f"{points} points ")
    assert len(calls) == classes
    keys = [(q, k, n // (q * q - 1), n // (q * q - 2)) for q, k, n in calls]
    assert len(set(keys)) == classes


@pytest.mark.parametrize("check,predicate,points,classes", GRIDS,
                         ids=[g[1] for g in GRIDS])
def test_grid_predicates_are_constant_on_each_class(check, predicate, points,
                                                    classes, monkeypatch):
    # the per-point reference: at every grid point, the predicate at n equals
    # the predicate at the first n of its (r1, r2) class, found here from the
    # floor ratios alone
    captured = []
    monkeypatch.setattr(verify, "_grid", lambda name, rows, holds, verb:
                        captured.append((rows, holds)))
    check()
    (rows, holds), = captured
    seen, first = 0, {}
    for q, k, ns in rows:
        assert list(ns) == sorted(set(ns))
        for n in ns:
            value = holds(q, k, n)
            key = (q, k, n // (q * q - 1), n // (q * q - 2))
            assert first.setdefault(key, value) == value, f"q={q} k={k} n={n}"
            seen += 1
    assert (seen, len(first)) == (points, classes)


def test_figures_name_the_first_failing_n(monkeypatch):
    original = bounds.figure_rows

    def broken(name):
        preset, classes = original(name)
        if name == "fig1":
            # columns swapped from the (r1, r2) = (1, 2) class on, which
            # starts at n = 2044
            classes = [(ns, rival, own) if ns[0] >= 2044 else (ns, own, rival)
                       for ns, own, rival in classes]
        else:
            # the (5, 5) class, n = 5115..6131, dips below its predecessor
            # (4, 5), whose total-degree collinear bound it shares
            at = next(i for i, (ns, _, _) in enumerate(classes) if ns[0] == 5115)
            ns, own, rival = classes[at]
            classes[at] = (ns, own - Fraction(1, 10 ** 9), rival)
        return preset, classes

    monkeypatch.setattr(bounds, "figure_rows", broken)
    result = verify.check_figures()
    assert not result.passed
    assert result.detail == ("fig1: no dominance at n=2044; "
                             "fig1: endpoint values drifted; "
                             "fig2: column decreases at n=5115")
