"""Executable self-checks for every layer of the package.

Each check returns a CheckResult instead of asserting, so the same engine
backs both the `verify` CLI subcommand (pass/fail table, exit status) and
the pytest acceptance suite (which asserts on the results).  Each check
runs one fixed grid, stated in its docstring; the randomized checks use
fixed seeds and are fully reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import bounds as bnd
from .complexity import (
    PerVariable,
    TotalDegree,
    brute_force_oracle,
    exists_recurrence,
)
from .curve import (
    affine_places,
    collinear_family,
    eval_quotient,
    eval_tangent,
    on_curve,
    orbit,
    scale_place,
    zero_set,
)
from .field import Element, FieldContext, _prime_factors
from .sequence import build_sequence, full_length


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: Iterable[str], ok_detail: str) -> CheckResult:
    """The one failure policy: read at most seven failures from the stream
    (a lazy one stops its check there) and show the first four."""
    seen = list(itertools.islice(failures, 7))
    if not seen:
        return CheckResult(name, True, ok_detail)
    shown = "; ".join(seen[:4])
    if len(seen) == 7:
        shown += "; ... stopped after 7 failures"
    elif len(seen) > 4:
        shown += f"; ... {len(seen)} failures total"
    return CheckResult(name, False, shown)


# ---------------------------------------------------------------------------
# field layer
# ---------------------------------------------------------------------------

def check_field(ctx: FieldContext) -> CheckResult:
    name = f"field[q={ctx.q}]"
    failures: list[str] = []
    if ctx.multiplicative_order(ctx.epsilon) != ctx.order - 1:
        failures.append("epsilon is not primitive")
    for a in ctx.elements:
        if a == ctx.zero:
            continue
        if ctx.pow(a, ctx.order - 1) != ctx.one:
            failures.append(f"unit-group order fails at {a}")
            break
    for a in ctx.elements:
        t, nm = ctx.rel_trace(a), ctx.rel_norm(a)
        if ctx.pow(t, ctx.q) != t or ctx.pow(nm, ctx.q) != nm:
            failures.append(f"trace/norm leaves subfield at {a}")
            break
    total = 0
    for a in ctx.elements:
        fiber = ctx.hermitian_fiber(a)
        if len(set(fiber)) != ctx.q:
            failures.append(f"fiber above {a} is not {ctx.q} distinct points")
            break
        total += len(fiber)
    if not failures and total != ctx.q ** 3:
        failures.append(f"fibers cover {total} pairs, expected {ctx.q ** 3}")
    return _result(name, failures, f"{ctx.order} elements checked")


# ---------------------------------------------------------------------------
# curve layer
# ---------------------------------------------------------------------------

def check_structure(ctx: FieldContext) -> CheckResult:
    """Places, the exact order of the scaling action, the q family orbits,
    the zero sets of the tangents, of x - a and of y, and the substitution
    identity on 100 random samples (seed 0)."""
    name = f"structure[q={ctx.q}]"
    failures: list[str] = []
    q, n_order = ctx.q, ctx.order - 1

    places = affine_places(ctx)
    if len(set(places)) != q ** 3:
        failures.append(f"{len(set(places))} affine places, expected {q ** 3}")
    if any(not on_curve(ctx, pl) for pl in places):
        failures.append("an enumerated place is off the curve")

    # exact order of the scaling action on every place with nonzero x:
    # fixed by q^2-1 and by no proper divisor
    prime_divs = _prime_factors(n_order)
    for pl in places:
        if pl.x == ctx.zero:
            continue
        if scale_place(ctx, pl, n_order) != pl:
            failures.append(f"scaling^{n_order} moves {pl}")
            break
        if any(scale_place(ctx, pl, n_order // r) == pl for r in prime_divs):
            failures.append(f"scaling order divides a proper factor at {pl}")
            break

    fam = collinear_family(ctx, ctx.epsilon)
    orbits = []
    for pl in fam.places:
        orb = set(orbit(ctx, pl))
        if len(orb) != n_order:
            failures.append(f"orbit of {pl} has {len(orb)} places")
        orbits.append(orb)
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            if orbits[i] & orbits[j]:
                failures.append(f"orbits {i + 1} and {j + 1} intersect")
    union = set().union(*orbits)
    missed = set(places) - union
    expected_missed = {pl for pl in places if pl.x == ctx.zero}
    if missed != expected_missed:
        failures.append("orbits do not miss exactly the x = 0 places")

    for i in range(1, q + 1):
        if zero_set(ctx, lambda pl: eval_tangent(fam, i, pl)) != (fam.place(i),):
            failures.append(f"tangent {i} zero set is not its own place")
    if set(zero_set(ctx, lambda pl: ctx.sub(pl.x, fam.a))) != set(fam.places):
        failures.append("vertical-line zero set is not the family")
    if zero_set(ctx, lambda pl: pl.y) != ((ctx.zero, ctx.zero),):
        failures.append("y zero set is not the origin place")

    failures.extend(_substitution_failures(ctx, fam))
    return _result(name, failures, f"{q ** 3} places, {q} orbits checked")


def _substitution_failures(ctx: FieldContext, fam) -> list[str]:
    """Evaluating the quotient at a scaled place must equal evaluating the
    coordinate-substituted quotient (x -> eps^-j x, y -> eps^-(q+1)j y) at
    the original place; 100 random samples, seed 0."""
    samples = 100
    rng = random.Random(0)
    n_order = ctx.order - 1
    failures = []
    checked = 0
    attempts = 0
    while checked < samples and attempts < 50 * samples:
        attempts += 1
        ell = rng.randrange(2, ctx.q + 1)
        pole_set = set(fam.places[: ell - 1])
        base = fam.place(rng.randrange(1, ctx.q + 1))
        t = rng.randrange(1, n_order)
        j = rng.randrange(1, n_order)
        place = scale_place(ctx, base, t)
        moved = scale_place(ctx, place, j)
        if place in pole_set or moved in pole_set:
            continue
        xs = ctx.mul(ctx.pow(ctx.epsilon, -j), place.x)
        ys = ctx.mul(ctx.pow(ctx.epsilon, -(ctx.q + 1) * j), place.y)
        shift = ctx.sub(xs, fam.a)
        den = ctx.one
        for i in range(1, ell):
            den = ctx.mul(den, ctx.sub(ctx.sub(ys, fam.b_list[i - 1]),
                                       ctx.mul(fam.a_pow_q, shift)))
        rhs = ctx.mul(ctx.pow(shift, ctx.q), ctx.inv(den))
        if eval_quotient(fam, ell, moved) != rhs:
            failures.append(f"substitution identity fails at {place}, j={j}")
        checked += 1
    if checked < samples:
        failures.append(f"only {checked} substitution samples found")
    return failures


# ---------------------------------------------------------------------------
# sequence layer
# ---------------------------------------------------------------------------

def check_nonzero_terms(ctx: FieldContext, terms: Sequence[Element],
                        ell: int) -> CheckResult:
    name = f"sequence-terms[q={ctx.q},ell={ell}]"
    failures = []
    if len(terms) != full_length(ctx.q):
        failures.append(f"length {len(terms)}, expected {full_length(ctx.q)}")
    zeros = [idx for idx, t in enumerate(terms) if t == ctx.zero]
    if zeros:
        failures.append(f"zero terms at positions {zeros[:5]}")
    return _result(name, failures, f"{len(terms)} nonzero terms")


def check_sequence_layer(ctx: FieldContext) -> list[CheckResult]:
    """Nonzero terms and recomputed corner terms of the sequence at every
    ell in 2..q for q <= 5, and at ell in {2, q} above that."""
    ells = range(2, ctx.q + 1) if ctx.q <= 5 else (2, ctx.q)
    fam = collinear_family(ctx, ctx.epsilon)
    steps = ctx.order - 2
    results = []
    for ell in ells:
        terms = build_sequence(ctx, ell)
        results.append(check_nonzero_terms(ctx, terms, ell))
        mismatch = None
        for i in (1, ctx.q):
            for j in (1, steps):
                want = eval_quotient(fam, ell, scale_place(ctx, fam.place(i), j))
                if terms[(i - 1) * steps + (j - 1)] != want:
                    mismatch = (i, j)
        results.append(_result(
            f"sequence-layout[q={ctx.q},ell={ell}]",
            [f"corner term {mismatch} disagrees"] if mismatch else [],
            "corner terms recomputed",
        ))
    return results


# ---------------------------------------------------------------------------
# complexity layer: bound consistency and oracle agreement
# ---------------------------------------------------------------------------

def check_bound_consistency(ctx: FieldContext, terms: Sequence[Element],
                            ell: int, kind: str,
                            ks: Optional[Iterable[int]] = None) -> CheckResult:
    """Every prefix/degree point must respect the matching collinear bound.

    kind selects the degree discipline: "per-variable" pairs with the
    per-variable bound, "total-degree" with the total-degree bound.  The
    proof obligation N >= ceil(bound) is discharged by a single infeasibility
    check at window length ceil-1 (recurrence feasibility is monotone in the
    window length).

    Feasibility is also monotone in the prefix length: a recurrence on a
    longer prefix holds on every shorter one.  So for each k one proof per
    distinct window length m serves every longer prefix whose obligation is
    the same m, and those prefixes make no further call.  The bound reads n
    only through its (r1, r2) class, so it is evaluated once per class.
    """
    if kind == "per-variable":
        (pair, gap), mode_cls = bnd.BOUNDS["N_collinear"], PerVariable
    elif kind == "total-degree":
        (pair, gap), mode_cls = bnd.BOUNDS["L_collinear"], TotalDegree
    else:
        raise ValueError(f"unknown kind {kind!r}")
    q = ctx.q
    ks = tuple(range(1, q * q - 1) if ks is None else ks)
    # terms[:n] is all zero exactly when n <= zeros
    zeros = next((i for i, t in enumerate(terms) if t != ctx.zero), len(terms))

    def failures():
        for k in ks:
            mode = mode_cls(k)
            proven: set[int] = set()  # window lengths infeasible on a shorter prefix
            for r1, r2, run in bnd.n_classes(q, range(1, len(terms) + 1)):
                bnd.check_point(q, k, ell, run[0], q * q - gap)
                num, den = pair(q, k, ell, r1, r2)
                ceiling = -(-num // den)
                if ceiling < 1:
                    continue
                m = ceiling - 1
                for n in run:
                    if n <= zeros:
                        yield f"k={k} n={n}: zero prefix but bound {ceiling}"
                        continue
                    if ceiling == 1:
                        continue  # any nonzero prefix has complexity >= 1
                    if m > n - 1:
                        yield f"k={k} n={n}: bound {ceiling} exceeds n-1"
                        continue
                    if m in proven:
                        continue
                    if exists_recurrence(ctx, terms[:n], m, mode):
                        yield f"k={k} n={n}: recurrence of length {m} exists below bound"
                    else:
                        proven.add(m)

    return _result(f"bound-{kind}[q={q},ell={ell}]", failures(),
                   f"{len(ks) * len(terms)} grid points")


def check_oracle_agreement(ctx: FieldContext) -> CheckResult:
    """Solver vs brute-force oracle on 200 random sequences (seed 2024;
    n <= 6, m <= 2, k <= 2, both modes) and on the full constructed ell = 2
    sequence.

    Every sequence runs window 1 under all four modes and window 2 under
    three; per-variable k=2 at window 2, the largest case (9 monomial
    columns), runs on every fourth sequence.  The oracle meets in the
    middle over spans, so even that case tabulates at most 4^4 sums a half.
    """
    sequences = 200
    rng = random.Random(2024)
    cases = []
    for case in range(sequences):
        n = rng.randrange(2, 7)
        t = tuple(rng.choice(ctx.elements) for _ in range(n))
        for k in (1, 2):
            cases += [(t, 1, PerVariable(k)), (t, 1, TotalDegree(k))]
        if n >= 3:
            cases += [(t, 2, TotalDegree(1)), (t, 2, TotalDegree(2)),
                      (t, 2, PerVariable(1))]
            if case % 4 == 0:
                cases.append((t, 2, PerVariable(2)))
    constructed = build_sequence(ctx, 2)
    for m in (1, 2):
        for k in (1, 2):
            cases += [(constructed, m, PerVariable(k)),
                      (constructed, m, TotalDegree(k))]
    failures = (f"disagree on {t} m={m} {mode}" for t, m, mode in cases
                if exists_recurrence(ctx, t, m, mode)
                != brute_force_oracle(ctx, t, m, mode))
    return _result("oracle-agreement", failures,
                   f"{len(cases)} comparisons over {sequences} sequences")


# ---------------------------------------------------------------------------
# bound improvement grids
# ---------------------------------------------------------------------------

def _k_grid(q: int) -> list[int]:
    top = q * q - 2
    return sorted({2, 3, (top + 1) // 2, top})


def _n_grid(q: int) -> list[int]:
    return [*range(q * q - 1, q * (q * q - 2), q if q >= 16 else 1), q * (q * q - 2)]


def _grid(name: str, rows: Sequence[tuple[int, int, Sequence[int]]], holds,
          verb: str) -> CheckResult:
    """Check holds(q, k, n) at every n of each (q, k, ns) row, in order.
    holds reads n only through its (r1, r2) class, so it is called once per
    class, at its first n, and a failing class fails at each of its n."""
    failures = (f"q={q} k={k} n={n}" for q, k, ns in rows
                for _, _, run in bnd.n_classes(q, ns) if not holds(q, k, run[0])
                for n in run)
    return _result(name, failures, f"{sum(len(ns) for _, _, ns in rows)} points {verb}")


def check_n_improvement() -> CheckResult:
    """Collinear per-variable bound beats the refined two-point bound on the
    claimed grid: q in {3, 4, 5, 7, 8, 9, 16, 32} on the _k_grid x _n_grid
    points."""
    rows = [(q, k, _n_grid(q)) for q in (3, 4, 5, 7, 8, 9, 16, 32) for k in _k_grid(q)]
    return _grid("n-bound-improvement", rows, bnd.n_bound_improves, "dominated")


def check_l_improvement() -> CheckResult:
    """Collinear total-degree bound beats the refined two-point bound on its
    claimed set: q in {5, 7, 8, 9, 16, 32} on the _k_grid x _n_grid points,
    and the q=3 / q=4 special cases: every k on the classes whose two floor
    ratios differ, and k >= 4 (q = 3) or k >= 3 (q = 4) where r1 = r2.

    The claimed set starts at k = 2.  At k = 1 the claim fails at every
    q, exactly where r1 = r2 is q-2 or q-1 (at q = 5, n = 72..91 and
    96..114); at k = 2 it fails only at q = 3 on r1 = r2 = 2 (n = 16..20),
    inside the q = 3 exception.  test_l_improvement_at_small_k pins both."""
    rows = [(q, k, _n_grid(q)) for q in (5, 7, 8, 9, 16, 32) for k in _k_grid(q)]
    for q, k_equal in ((3, 4), (4, 3)):
        classes = list(bnd.n_classes(q, range(q * q - 1, q * (q * q - 2) + 1)))
        rows += [(q, k, [n for r1, r2, run in classes if r1 != r2 or k >= k_equal
                         for n in run]) for k in range(1, q * q - 1)]
    return _grid("l-bound-improvement", rows, bnd.l_bound_improves, "dominated")


def check_l_twopoint_equivalence() -> CheckResult:
    """The quadratic predictor and the exact comparison against the original
    two-point total-degree bound must agree pointwise: at every prime power
    q in 3..32, k in _k_grid(q) and k = 1, six fixed prefix lengths and ten
    random ones (seed 99)."""
    rng = random.Random(99)
    rows = []
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        top_n = q * (q * q - 2)
        ns = {1, q * q - 2, q * q - 1, 2 * (q * q - 2), top_n // 2, top_n}
        ns.update(rng.randrange(1, top_n + 1) for _ in range(10))
        rows += [(q, k, sorted(ns)) for k in sorted(set(_k_grid(q)) | {1})]
    condition, exact = bnd.l_twopoint_condition, bnd.l_bound_improves_twopoint
    return _grid("l-twopoint-equivalence", rows,
                 lambda q, k, n: condition(q, k, n) == exact(q, k, n), "agree")


def check_figures() -> CheckResult:
    """Both figure presets: full n coverage, monotone columns, dominance on
    every (r1, r2) class, named at its first n, and exact endpoint values."""
    name = "figure-presets"
    failures = []
    expected_ends = {
        "fig1": (Fraction(32673, 192), Fraction(31682, 341)),
        "fig2": (Fraction(32653, 652), Fraction(31062, 651)),
    }
    for preset_name, (own_end, rival_end) in expected_ends.items():
        _, classes = bnd.figure_rows(preset_name)
        first, last = classes[0][0][0], classes[-1][0][-1]
        if first != 1023 or last != 32704:
            failures.append(f"{preset_name}: range {first}..{last}")
        rows = sum(len(ns) for ns, _, _ in classes)
        if rows != 32704 - 1023 + 1:
            failures.append(f"{preset_name}: {rows} rows")
        _, prev_own, prev_rival = classes[0]
        for ns, own, rival in classes:
            if own <= rival:
                failures.append(f"{preset_name}: no dominance at n={ns[0]}")
                break
            if own < prev_own or rival < prev_rival:
                failures.append(f"{preset_name}: column decreases at n={ns[0]}")
                break
            prev_own, prev_rival = own, rival
        if classes[-1][1:] != (own_end, rival_end):
            failures.append(f"{preset_name}: endpoint values drifted")
    return _result(name, failures, "fig1 and fig2 regenerated and dominated")


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------

def run_suite(field_specs: Optional[Sequence[tuple[int, int]]] = None) -> list[CheckResult]:
    """The default verification suite: per-field checks at the configured
    (p, e) pairs plus the global bound grids and figure regeneration.

    Bound-consistency checks run only for q <= 5, where exact recurrence
    infeasibility is computable at every grid point.
    """
    if field_specs is None:
        field_specs = [(2, 1), (3, 1)]
    results: list[CheckResult] = []
    for p, e in field_specs:
        ctx = FieldContext(p, e)
        results.append(check_field(ctx))
        results.append(check_structure(ctx))
        results.extend(check_sequence_layer(ctx))
        if ctx.q == 2:
            results.append(check_oracle_agreement(ctx))
        if ctx.q <= 5:
            for ell in range(2, ctx.q + 1):
                terms = build_sequence(ctx, ell)
                results.append(check_bound_consistency(ctx, terms, ell, "per-variable"))
                results.append(check_bound_consistency(ctx, terms, ell, "total-degree"))
    for check in (check_n_improvement, check_l_improvement,
                  check_l_twopoint_equivalence, check_figures):
        results.append(check())
    return results
