import collections
import itertools
import math
from fractions import Fraction

import pytest

from hermseq import bounds, cli, complexity, verify
from hermseq.complexity import PerVariable, TotalDegree, exists_recurrence
from hermseq.field import FieldContext
from hermseq.sequence import build_sequence
from hermseq.verify import (
    CheckResult,
    _result,
    check_n_improvement,
    check_nonzero_terms,
    check_bound_consistency,
)


def test_corrupt_constant_sequence_breaks_bound_check(f9):
    # a constant sequence has complexity 1 everywhere, far below the bounds
    corrupted = (f9.one,) * len(build_sequence(f9, 3))
    assert not any(r.passed for r in check_bound_consistency(f9, corrupted, 3))


def test_corrupt_zero_term_breaks_term_check(f9):
    terms = list(build_sequence(f9, 2))
    terms[5] = f9.zero
    result = check_nonzero_terms(f9, tuple(terms), 2)
    assert not result.passed
    assert "positions [5]" in result.detail


def test_bound_check_names_both_kinds(f9):
    seq = build_sequence(f9, 2)
    assert [r.name for r in check_bound_consistency(f9, seq, 2)] == [
        "bound-per-variable[q=3,ell=2]", "bound-total-degree[q=3,ell=2]"]


def test_bound_properties_hold_for_every_a(f9):
    # terms depend on the line chosen; the verified bound properties do not
    for a in f9.elements:
        if a == f9.zero:
            continue
        for ell in (2, 3):
            seq = build_sequence(f9, ell, a)
            assert all(r.passed for r in check_bound_consistency(f9, seq, ell,
                                                                 ks=(1, 2)))


def test_bound_consistency_q5_slowest_rows():
    # a slice of `verify --p 5`, ell = q = 5 with k = 1, 2, 3 in both kinds,
    # so that exact bound verification at q = 5 stays in the fast suite
    ctx = FieldContext(5, 1)
    seq = build_sequence(ctx, 5)
    assert all(r.passed for r in check_bound_consistency(ctx, seq, 5, ks=(1, 2, 3)))


@pytest.mark.parametrize("mode_cls,name", [(PerVariable, "N_collinear"),
                                           (TotalDegree, "L_collinear")],
                         ids=["per-variable", "total-degree"])
def test_exact_complexity_meets_the_collinear_bound(mode_cls, name):
    # exact values on top of verify's infeasibility proofs: on every ell at
    # q = 2 and 3, sampled prefixes reach the ceiling of the bound
    for p, ks, ns in ((2, (1, 2), range(1, 5)), (3, (1, 2, 3), (7, 14, 21))):
        ctx = FieldContext(p, 1)
        for ell in range(2, ctx.q + 1):
            seq = build_sequence(ctx, ell)
            for k, n in itertools.product(ks, ns):
                want = math.ceil(bounds.bound(name, ctx.q, k, ell, n))
                got = complexity.nonlinear_complexity(ctx, seq[:n], mode_cls(k))
                assert got >= want, (ctx.q, ell, k, n)


def test_bound_check_proves_at_the_ceiling(f9, monkeypatch):
    # every walk of the infeasibility proofs serves each k to window
    # ceil(bound) - 1 of k's own longest maximal prefix, for the bound of
    # the walk's own kind, and runs on the longest of those prefixes, so a
    # weaker obligation, such as a floor in place of the ceiling, fails for
    # any k.  A proof may discharge obligations of the other kind too, so
    # the kinds are not checked apart
    calls = _spy_walk(monkeypatch)
    pinned = {2: {PerVariable: {1: 2, 2: 1}, TotalDegree: {1: 3}},
              3: {PerVariable: {1: 3, 2: 2, 3: 1, 5: 1}}}
    for ell in (2, 3):
        calls.clear()
        seq = build_sequence(f9, ell)
        assert all(r.passed for r in check_bound_consistency(f9, seq, ell))
        _, maximal = verify.bound_obligations(3, seq, ell)
        assert len(calls) == len(pinned[ell])  # one walk per kind
        assert {kind: tops for _, kind, tops in calls} == pinned[ell]
        for t, kind, tops in calls:
            name = "N_collinear" if kind is PerVariable else "L_collinear"

            def window(k, n):
                return math.ceil(bounds.bound(name, 3, k, ell, n)) - 1

            longest = {}  # k -> its longest maximal prefix under this kind
            for o_kind, k, _, n in maximal:
                if (o_kind == "per-variable") == (kind is PerVariable):
                    longest[k] = max(longest.get(k, 0), n)
            assert tops.keys() == longest.keys(), (ell, kind)
            assert len(t) == max(longest.values()), (ell, kind)
            for k, top in tops.items():
                assert top == window(k, longest[k]), (ell, kind, k)
            assert any(top == window(k, len(t)) for k, top in tops.items()), (ell, kind)


@pytest.mark.parametrize("argv,built", [
    ([], [(2, 2), (3, 2), (3, 3)]),
    (["--p", "2", "--e", "2"], [(4, 2), (4, 3), (4, 4)]),
    (["--p", "5"], [(5, 2), (5, 3), (5, 4), (5, 5)]),
], ids=["default", "q4", "q5"])
def test_suite_builds_each_sequence_once(monkeypatch, capsys, argv, built):
    # run_suite builds each (q, ell) sequence its field's checks read, once,
    # and hands it to every check that reads it
    calls = []
    original = verify.build_sequence
    monkeypatch.setattr(verify, "build_sequence",
                        lambda ctx, ell: calls.append((ctx.q, ell)) or original(ctx, ell))
    assert cli.main(["verify", *argv]) == cli.EXIT_OK
    assert calls == built


# ---------------------------------------------------------------------------
# each check's failure text, from a corrupted input
# ---------------------------------------------------------------------------

def test_sequence_layer_names_a_wrong_corner_term(f9):
    terms = list(build_sequence(f9, 2))
    terms[-1] = f9.mul(terms[-1], f9.epsilon)  # the corner (i, j) = (q, q^2 - 2)
    assert verify.check_sequence_layer(f9, {2: tuple(terms)}) == [
        CheckResult("sequence-terms[q=3,ell=2]", True, "21 nonzero terms"),
        CheckResult("sequence-layout[q=3,ell=2]", False, "corner term (3, 7) disagrees")]


def test_short_sequence_breaks_term_check(f9):
    assert check_nonzero_terms(f9, build_sequence(f9, 2)[:-1], 2) == CheckResult(
        "sequence-terms[q=3,ell=2]", False, "length 20, expected 21")


def test_bound_check_names_a_bound_above_the_prefix(f9, monkeypatch):
    # a per-variable pair whose ceiling is 7 on the first class, n = 1..6,
    # asks for a window no prefix there has room for
    pair, gap = bounds.BOUNDS["N_collinear"]
    monkeypatch.setitem(bounds.BOUNDS, "N_collinear", (
        lambda q, k, ell, r1, r2: (7, 1) if (r1, r2) == (0, 0) else pair(q, k, ell, r1, r2),
        gap))
    assert check_bound_consistency(f9, build_sequence(f9, 2), 2, ks=(1,)) == (
        CheckResult("bound-per-variable[q=3,ell=2]", False, "; ".join(
            f"k=1 n={n}: bound 7 exceeds n-1" for n in range(1, 5))
            + "; ... 6 failures total"),
        CheckResult("bound-total-degree[q=3,ell=2]", True, "21 grid points"))


@pytest.mark.parametrize("fiber,detail", [
    (lambda ys: ys[:-1], "fiber above 3 is not 3 distinct points"),
    (lambda ys: ys + ys[:1], "fibers cover 28 pairs, expected 27"),
], ids=["lost-point", "repeated-point"])
def test_field_check_names_a_wrong_fiber(fiber, detail):
    # a context of its own, so the shared fixture stays whole
    ctx = FieldContext(3, 1)
    original = ctx.hermitian_fiber
    ctx.hermitian_fiber = lambda a: fiber(original(a)) if a == ctx.one else original(a)
    assert verify.check_field(ctx) == CheckResult("field[q=3]", False, detail)


def test_field_check_names_an_imprimitive_epsilon():
    ctx = FieldContext(3, 1)
    ctx.epsilon = ctx.one
    assert verify.check_field(ctx) == CheckResult("field[q=3]", False,
                                                  "epsilon is not primitive")


def test_structure_check_names_short_orbits(f9, monkeypatch):
    # every orbit loses its first place, which the family orbits then miss
    original = verify.orbit
    monkeypatch.setattr(verify, "orbit", lambda ctx, pl: original(ctx, pl)[1:])
    assert verify.check_structure(f9) == CheckResult("structure[q=3]", False, "; ".join(
        [f"orbit of AffinePlace(x=4, y={y}) has 7 places" for y in (3, 4, 5)]
        + ["orbits do not miss exactly the x = 0 places"]))


def test_figures_name_a_lost_class(monkeypatch):
    # fig1 without its first class, n = 1023..2043
    original = bounds.figure_rows

    def broken(name):
        preset, classes = original(name)
        return preset, classes[1:] if name == "fig1" else classes

    monkeypatch.setattr(bounds, "figure_rows", broken)
    assert verify.check_figures() == CheckResult(
        "figure-presets", False, "fig1: range 2044..32704; fig1: 30661 rows")


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
    result, = (r for r in check_bound_consistency(f9, terms, 3)
               if r.name.startswith(f"bound-{kind}["))
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
    # floor ratios alone, not from the classes the rows carry
    captured = []
    monkeypatch.setattr(verify, "_grid", lambda name, rows, holds, verb:
                        captured.append((rows, holds)))
    check()
    (rows, holds), = captured
    seen, first = 0, {}
    for q, k, row in rows:
        ns = [n for _, _, run in row for n in run]
        assert ns == sorted(set(ns))
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


# ---------------------------------------------------------------------------
# oracle agreement: one solver answer per distinct question, and one oracle
# answer for each that no earlier answer on the same sequence settles
# ---------------------------------------------------------------------------

def _spy(monkeypatch, name, flip=lambda t, m, mode: False):
    """Record each call of verify's `name`, flipping the answers flip marks."""
    original, calls = getattr(verify, name), []

    def spy(ctx, t, m, mode):
        calls.append((t, m, mode))
        return original(ctx, t, m, mode) != flip(t, m, mode)

    monkeypatch.setattr(verify, name, spy)
    return calls


def _spy_walk(monkeypatch, corrupt=lambda t, kind, k, m, reach: reach):
    """Record each walk (t, kind, tops) the solver starts, from verify or
    through exists_recurrence, passing the reach of each k at each m
    through corrupt."""
    original, calls = complexity.reaches, []

    def spy(ctx, t, kind, tops):
        calls.append((t, kind, tops))
        return ({k: corrupt(t, kind, k, m, reach) for k, reach in step.items()}
                for m, step in enumerate(original(ctx, t, kind, tops), 1))

    monkeypatch.setattr(complexity, "reaches", spy)
    monkeypatch.setattr(verify, "reaches", spy)
    return calls


def _oracle_agreement(ctx):
    return verify.check_oracle_agreement(ctx, build_sequence(ctx, 2))


def test_oracle_agreement_answers_each_question_once(monkeypatch):
    # the solver walks each distinct (sequence, kind) once, 314 walks over
    # the 157 distinct sequences, serving each k to the largest window asked
    # of it: window 2 where the sequence has three terms or more, but under
    # PerVariable(2) only on the 36 sequences that every fourth draw asks it
    solver = _spy_walk(monkeypatch)
    oracle = _spy(monkeypatch, "brute_force_oracle")
    result = _oracle_agreement(FieldContext(2, 1))
    assert result == CheckResult("oracle-agreement", True,
                                 "1313 comparisons over 200 sequences")
    walks = [(t, kind, tuple(tops.items())) for t, kind, tops in solver]
    assert (len(walks), len(set(walks))) == (314, 314)
    assert collections.Counter((kind, tops) for _, kind, tops in walks) == {
        (TotalDegree, ((1, 2), (2, 2))): 141, (TotalDegree, ((1, 1), (2, 1))): 16,
        (PerVariable, ((1, 2), (2, 2))): 36, (PerVariable, ((1, 2), (2, 1))): 105,
        (PerVariable, ((1, 1), (2, 1))): 16}
    assert all(max(tops.values()) == min(2, len(t) - 1) for t, _, tops in solver)
    assert (len(oracle), len(set(oracle))) == (427, 427)


@pytest.mark.parametrize("p,enumerated", [(2, 427), (3, 516)])
def test_oracle_agreement_settles_exactly(monkeypatch, p, enumerated):
    # with a direct enumeration as the solver, the check passes only if the
    # answer it uses for each distinct question, enumerated or settled by
    # another, is the one the oracle gives when asked that question
    def enumerated_walk(ctx, t, kind, tops):
        """All of t at each window with a recurrence, else the window."""
        return ({k: len(t) if complexity.brute_force_oracle(ctx, t, m, kind(k)) else m
                 for k, top in tops.items() if m <= top}
                for m in range(1, max(tops.values()) + 1))

    oracle = _spy(monkeypatch, "brute_force_oracle")
    monkeypatch.setattr(verify, "reaches", enumerated_walk)
    assert _oracle_agreement(FieldContext(p, 1)).passed
    assert len(oracle) == enumerated


def test_oracle_agreement_in_odd_characteristic(f9):
    # the byte form's guard-bit mod-p arithmetic against the oracle
    assert _oracle_agreement(f9) == CheckResult(
        "oracle-agreement", True, "1335 comparisons over 200 sequences")


def test_oracle_agreement_calls_no_mode_hash_or_eq(monkeypatch):
    # the memos key a mode by its class and k: a frozen dataclass's generated
    # __hash__ and __eq__ are Python calls, one or more per lookup
    calls = {"__hash__": 0, "__eq__": 0}
    for name in calls:
        def counted(*args, name=name, method=getattr(complexity._Degree, name)):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(complexity._Degree, name, counted)
    assert _oracle_agreement(FieldContext(2, 1)).passed
    assert calls == {"__hash__": 0, "__eq__": 0}


@pytest.mark.parametrize("question,failures", [
    # (3, 3, 2) is drawn three times, so its window-2 questions repeat
    (((3, 3, 2), 2, 1), ["disagree on (3, 3, 2) m=2 TotalDegree(k=1)"] * 3),
    # (2, 0) is drawn seven times; at m = 1 one oracle answer serves both
    # modes with k = 1, so the flip fails 14 comparisons and the cap stops
    # the report
    (((2, 0), 1, 1), ["disagree on (2, 0) m=1 PerVariable(k=1)",
                      "disagree on (2, 0) m=1 TotalDegree(k=1)"] * 2
     + ["... stopped after 7 failures"]),
])
def test_oracle_agreement_fails_at_each_repeat(monkeypatch, question, failures):
    # the flipped oracle answer is asked once but counts at every occurrence
    def flip(t, m, mode):
        return ((t, m, mode.k) == question
                and (m == 1 or isinstance(mode, TotalDegree)))

    oracle = _spy(monkeypatch, "brute_force_oracle", flip)
    result = _oracle_agreement(FieldContext(2, 1))
    assert result == CheckResult("oracle-agreement", False, "; ".join(failures))
    assert sum(flip(*call) for call in oracle) == 1


def test_oracle_agreement_fails_where_the_truth_was_settled(monkeypatch):
    # (0, 3, 0), drawn three times, has a window-1 recurrence of degree 1,
    # which settles its window-2 questions, and PerVariable(1)'s answer at
    # m = 1 settles TotalDegree(1)'s: the oracle never enumerates them, and
    # a walk corrupted to reach 2 at m = 1 under TotalDegree(1), so that it
    # finds no recurrence, still fails both its questions at each repeat
    def flip(t, kind, k):
        return t == (0, 3, 0) and (kind, k) == (TotalDegree, 1)

    solver = _spy_walk(monkeypatch,
                       lambda t, kind, k, m, reach: 2 if flip(t, kind, k) and m == 1 else reach)
    oracle = _spy(monkeypatch, "brute_force_oracle")
    result = _oracle_agreement(FieldContext(2, 1))
    failures = [f"disagree on (0, 3, 0) m={m} TotalDegree(k=1)" for m in (1, 2)] * 2
    assert result == CheckResult("oracle-agreement", False,
                                 "; ".join(failures) + "; ... 6 failures total")
    assert sum(flip(t, kind, 1) and 1 in tops for t, kind, tops in solver) == 1
    assert [(m, mode) for t, m, mode in oracle if t == (0, 3, 0)] == [(1, PerVariable(1))]


# ---------------------------------------------------------------------------
# bound consistency: proofs only at the maximal obligations
# ---------------------------------------------------------------------------

def _obligations(q, ell, length):
    """(mode class, k, m, n) for a sequence with no zero term: each window
    length m = ceil(bound) - 1 >= 1 of each kind and k, at the first prefix
    n with m <= n - 1, from bounds.bound alone."""
    first = {}
    for mode_cls, name in ((PerVariable, "N_collinear"), (TotalDegree, "L_collinear")):
        for k in range(1, q * q - 1):
            for n in range(1, length + 1):
                ceiling = math.ceil(bounds.bound(name, q, k, ell, n))
                if 2 <= ceiling <= n:
                    first.setdefault((mode_cls, k, ceiling - 1), n)
    return [(mode_cls, k, m, n) for (mode_cls, k, m), n in first.items()]


def _covers(a, b):
    """A proof at a discharges the obligation b: a shorter prefix, a window
    no shorter, and more degree in the same mode or a per-variable one; a
    total-degree proof covers a per-variable obligation when its degree is
    at least m times the obligation's k."""
    (A, K, M, N), (B, k, m, n) = a, b
    degree = m * k if (A, B) == (TotalDegree, PerVariable) else k
    return K >= degree and M >= m and N <= n


def _maximal(obligations, covers):
    """The obligations no other one covers; of two that cover each other
    (equal monomial sets at the same n), the per-variable one."""
    return {o for o in obligations
            if not any(covers(b, o) and (not covers(o, b) or o[0] is TotalDegree)
                       for b in obligations if b != o)}


def _padded(width, m, per_variable, k):
    """The exponent vectors of a shape's monomials, left-padded with zeros to
    width variables, so a shorter window's set reads its last variables."""
    return frozenset((0,) * (width - m) + a
                     for a in itertools.product(range(k + 1), repeat=m)
                     if per_variable or sum(a) <= k)


def test_within_is_padded_monomial_inclusion():
    shapes = [(m, per_variable, k) for m in range(1, 5)
              for per_variable in (True, False) for k in range(1, 5)]
    sets = {shape: _padded(4, *shape) for shape in shapes}
    pairs = list(itertools.product(shapes, repeat=2))
    assert len(pairs) == 1024
    for a, b in pairs:
        assert verify._within(a, b) == (sets[a] <= sets[b]), (a, b)


_KIND_CLASS = {"per-variable": PerVariable, "total-degree": TotalDegree}


@pytest.mark.parametrize("p,e,proofs", [(3, 1, 10), (2, 2, 44), (5, 1, 114)])
def test_bound_obligations_by_explicit_monomial_sets(p, e, proofs, monkeypatch):
    # the maximal list asks the solver nothing, and equals the obligations
    # no other one covers by inclusion of explicit monomial sets
    def refuse(*args):
        raise AssertionError("bound_obligations asked the solver")

    monkeypatch.setattr(verify, "exists_recurrence", refuse)
    monkeypatch.setattr(verify, "reaches", refuse)
    ctx = FieldContext(p, e)
    for ell in range(2, ctx.q + 1):
        seq = build_sequence(ctx, ell)
        _, maximal = verify.bound_obligations(ctx.q, seq, ell)
        obligations = _obligations(ctx.q, ell, len(seq))
        width = max(m for _, _, m, _ in obligations)
        sets = {o: _padded(width, o[2], o[0] is PerVariable, o[1]) for o in obligations}
        want = _maximal(obligations, lambda a, b: a[3] <= b[3] and sets[b] <= sets[a])
        got = [(_KIND_CLASS[kind], k, m, n) for kind, k, m, n in maximal]
        assert (len(got), set(got)) == (len(want), want), ell
        proofs -= len(got)
    assert proofs == 0


@pytest.mark.parametrize("p,e,chains,proofs", [(3, 1, 3, 10), (2, 2, 6, 44)],
                         ids=["3-1-10", "2-2-44"])
def test_bound_check_proves_only_the_maximal_obligations(p, e, chains, proofs, monkeypatch):
    # on the passing path the proofs read are exactly bound_obligations'
    # maximal list, the obligations that no other one covers (84 window
    # lengths at q = 4 take 44 proofs), and they take one walk per kind, on
    # that kind's longest prefix, serving each k to its largest window
    calls = _spy_walk(monkeypatch)
    ctx = FieldContext(p, e)
    for ell in range(2, ctx.q + 1):
        calls.clear()
        seq = build_sequence(ctx, ell)
        assert all(r.passed for r in check_bound_consistency(ctx, seq, ell))
        maximal = _maximal(_obligations(ctx.q, ell, len(seq)), _covers)
        listed = [(_KIND_CLASS[kind], k, m, n)
                  for kind, k, m, n in verify.bound_obligations(ctx.q, seq, ell)[1]]
        assert (len(listed), set(listed)) == (len(maximal), maximal)
        groups = {PerVariable: {}, TotalDegree: {}}
        for mode_cls, k, m, n in listed:
            groups[mode_cls].setdefault(k, []).append((m, n))
        walked = [(kind, tops, len(t)) for t, kind, tops in calls]
        assert walked == [(kind, {k: max(m for m, _ in obs) for k, obs in ks.items()},
                           max(n for obs in ks.values() for _, n in obs))
                          for kind, ks in groups.items() if ks]
        assert all(t == seq[:len(t)] for t, _, _ in calls)
        chains -= len(walked)
        proofs -= len(listed)
    assert (chains, proofs) == (0, 0)



@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_bound_check_answers_equal_exists_recurrence(p, e, monkeypatch):
    # each maximal obligation's answer, read off its kind's walk on the
    # kind's longest prefix, equals exists_recurrence on its own prefix, on
    # every ell's sequence, where no recurrence exists, and on its period-5
    # copy, where some do; the check passes exactly when none is found
    original, walks = complexity.reaches, {}

    def recorded(ctx, t, kind, tops):
        walk = walks[kind] = list(original(ctx, t, kind, tops))
        return iter(walk)

    monkeypatch.setattr(verify, "reaches", recorded)
    ctx, found = FieldContext(p, e), set()
    for ell in range(2, ctx.q + 1):
        seq = build_sequence(ctx, ell)
        for terms in (seq, tuple(seq[i % 5] for i in range(len(seq)))):
            walks.clear()
            results = check_bound_consistency(ctx, terms, ell)
            reads = []
            for kind, k, m, n in verify.bound_obligations(ctx.q, terms, ell)[1]:
                mode = _KIND_CLASS[kind](k)
                reads.append(max(step.get(k, 0) for step in walks[type(mode)][:m]) >= n)
                assert reads[-1] == exists_recurrence(ctx, terms[:n], m, mode), (ell, kind, k, m, n)
            assert all(r.passed for r in results) == (not any(reads)), ell
            found.update(reads)
    assert found == {True, False}


def test_bound_check_reproves_what_a_failed_maximal_proof_covered(f9, monkeypatch):
    # a recurrence planted at the maximal per-variable obligation k = 3,
    # m = 1, n = 14 of q = 3, ell = 3, by a walk that reaches 14 at window 1
    # under PerVariable(3): the obligations it covered fall through to
    # proofs of their own, and the failure names the same n as a proof at
    # every point would
    seq = build_sequence(f9, 3)
    planted = (PerVariable, 3, 1, 14)
    listed = verify.bound_obligations(3, seq, 3)[1]
    assert planted in [(_KIND_CLASS[kind], k, m, n) for kind, k, m, n in listed]
    chains = _spy_walk(monkeypatch)
    check_bound_consistency(f9, seq, 3)
    monkeypatch.undo()

    def corrupt(t, kind, k, m, reach):
        return max(reach, 14) if (kind, k, m) == planted[:3] else reach

    calls = _spy_walk(monkeypatch, corrupt)
    assert check_bound_consistency(f9, seq, 3) == (
        CheckResult("bound-per-variable[q=3,ell=3]", False,
                    "k=3 n=14: recurrence of length 1 exists below bound"),
        CheckResult("bound-total-degree[q=3,ell=3]", True, "147 grid points"))
    assert calls[:len(chains)] == chains
    singles = [(kind, k, top, len(t)) for t, kind, tops in calls[len(chains):]
               for k, top in tops.items()]
    covered = [o for o in _obligations(3, 3, len(seq)) if o != planted and _covers(planted, o)]
    assert len(covered) == 3
    for mode_cls, k, m, n in covered:
        # proven at its own point, in its own mode or per-variable, which
        # also discharges the total-degree obligation at the same point
        assert {(mode_cls, k, m, n), (PerVariable, k, m, n)} & set(singles), (mode_cls, k)
    # and nothing is proven again outside what the planted obligation covered
    assert all(_covers(planted, o) for o in singles)


def _four_of_seven(first, text):
    return "; ".join(f"k=1 n={n}: {text}" for n in range(first, first + 4)) + \
        "; ... stopped after 7 failures"


@pytest.mark.parametrize("ell,value,details", [
    (2, "zero", [_four_of_seven(7, "zero prefix but bound 1")] * 2),
    (3, "zero", [_four_of_seven(7, "zero prefix but bound 2")] * 2),
    (2, "one", [_four_of_seven(14, "recurrence of length 1 exists below bound"),
                _four_of_seven(14, "recurrence of length 2 exists below bound")]),
    (3, "one", [_four_of_seven(7, "recurrence of length 1 exists below bound")] * 2),
])
def test_bound_check_failure_text(f9, ell, value, details):
    # the per-variable and total-degree details of a constant sequence, as
    # the check gave them when it proved every window length of every k
    terms = (getattr(f9, value),) * len(build_sequence(f9, ell))
    assert [r.detail for r in check_bound_consistency(f9, terms, ell)] == details


def test_bound_check_names_a_lone_failure():
    # a period-5 sequence at q = 4, ell = 2: seven of the eleven maximal
    # proofs find a recurrence, and the per-variable bound breaks only at
    # k = 1 on the last prefix
    ctx = FieldContext(2, 2)
    seq = build_sequence(ctx, 2)
    terms = tuple(seq[i % 5] for i in range(len(seq)))
    assert [r.detail for r in check_bound_consistency(ctx, terms, 2)] == [
        "k=1 n=56: recurrence of length 3 exists below bound",
        _four_of_seven(28, "recurrence of length 5 exists below bound")]


def test_bound_check_asks_each_question_once(monkeypatch):
    # the same period-5 sequence: a maximal proof that finds a recurrence
    # keeps its answer, so the walk that reaches that point asks nothing
    # again.  Its two walks, one per kind, and eight fallback walks are all
    # distinct, and (28, 5, TotalDegree(1)), refuted on the total-degree walk
    # over all 56 terms, starts no walk of its own ((56, 3, PerVariable(1)) and
    # (28, 5, TotalDegree(1)) were asked twice, in 19 calls, when each
    # proof was its own call)
    ctx = FieldContext(2, 2)
    seq = build_sequence(ctx, 2)
    terms = tuple(seq[i % 5] for i in range(len(seq)))
    calls = _spy_walk(monkeypatch)
    check_bound_consistency(ctx, terms, 2)
    asked = [(len(t), kind, tuple(tops.items())) for t, kind, tops in calls]
    assert (len(asked), len(set(asked))) == (10, 10)
    assert {(56, PerVariable, ((1, 3),)), (56, TotalDegree, ((1, 8), (2, 5), (3, 3)))} <= set(asked)
    assert not any(n == 28 and kind is TotalDegree for n, kind, _ in asked)
