"""Executable self-checks for every layer of the package.

Each check returns a CheckResult instead of asserting, so the same engine
backs both the `verify` CLI subcommand (pass/fail table, exit status) and
the pytest acceptance suite (which asserts on the results at its own pinned
parameter grids).  All randomized checks take explicit seeds and are fully
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence as SeqT

from . import bounds as bnd
from .complexity import (
    PerVariable,
    TotalDegree,
    brute_force_oracle,
    exists_recurrence,
)
from .curve import (
    TangentLine,
    VerticalLine,
    YCoordinate,
    affine_places,
    collinear_family,
    eval_quotient,
    on_curve,
    orbit,
    scale_place,
    zero_set,
)
from .field import FieldContext, _least_prime_factor
from .sequence import Sequence, build_sequence, full_length


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], ok_detail: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... {len(failures)} failures total"
        return CheckResult(name, False, shown)
    return CheckResult(name, True, ok_detail)


def _prime_factors(n: int) -> list[int]:
    out = []
    while n > 1:
        f = _least_prime_factor(n)
        out.append(f)
        while n % f == 0:
            n //= f
    return out


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

def check_structure(ctx: FieldContext, seed: int = 0,
                    substitution_samples: int = 100) -> CheckResult:
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
        if zero_set(ctx, TangentLine(fam, i)) != (fam.place(i),):
            failures.append(f"tangent {i} zero set is not its own place")
    if set(zero_set(ctx, VerticalLine(fam.a))) != set(fam.places):
        failures.append("vertical-line zero set is not the family")
    if zero_set(ctx, YCoordinate()) != ((ctx.zero, ctx.zero),):
        failures.append("y zero set is not the origin place")

    failures.extend(
        _substitution_failures(ctx, fam, substitution_samples, seed)
    )
    return _result(name, failures, f"{q ** 3} places, {q} orbits checked")


def _substitution_failures(ctx: FieldContext, fam, samples: int,
                           seed: int) -> list[str]:
    """Evaluating the quotient at a scaled place must equal evaluating the
    coordinate-substituted quotient (x -> eps^-j x, y -> eps^-(q+1)j y) at
    the original place."""
    rng = random.Random(seed)
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
            if len(failures) > 3:
                break
        checked += 1
    if checked < samples:
        failures.append(f"only {checked} substitution samples found")
    return failures


# ---------------------------------------------------------------------------
# sequence layer
# ---------------------------------------------------------------------------

def check_nonzero_terms(ctx: FieldContext, seq: Sequence) -> CheckResult:
    name = f"sequence-terms[q={ctx.q},ell={seq.meta.ell}]"
    failures = []
    if len(seq) != full_length(ctx.q):
        failures.append(f"length {len(seq)}, expected {full_length(ctx.q)}")
    zeros = [idx for idx, t in enumerate(seq) if t == ctx.zero]
    if zeros:
        failures.append(f"zero terms at positions {zeros[:5]}")
    return _result(name, failures, f"{len(seq)} nonzero terms")


def check_sequence_layer(ctx: FieldContext, ells: Optional[SeqT[int]] = None) -> list[CheckResult]:
    if ells is None:
        ells = range(2, ctx.q + 1) if ctx.q <= 5 else (2, ctx.q)
    results = []
    for ell in ells:
        seq = build_sequence(ctx, ell)
        results.append(check_nonzero_terms(ctx, seq))
        fam = collinear_family(ctx, seq.meta.a)
        steps = ctx.order - 2
        mismatch = None
        for i in (1, ctx.q):
            for j in (1, steps):
                want = eval_quotient(fam, ell, scale_place(ctx, fam.place(i), j))
                if seq[(i - 1) * steps + (j - 1)] != want:
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

def check_bound_consistency(ctx: FieldContext, seq: Sequence, kind: str,
                            ks: Optional[Iterable[int]] = None) -> CheckResult:
    """Every prefix/degree point must respect the matching collinear bound.

    kind selects the degree discipline: "per-variable" pairs with the
    per-variable bound, "total-degree" with the total-degree bound.  The
    proof obligation N >= ceil(bound) is discharged by a single infeasibility
    check at window length ceil-1 (recurrence feasibility is monotone in the
    window length).
    """
    if kind == "per-variable":
        bound_fn, mode_cls = bnd.collinear_n_bound, PerVariable
    elif kind == "total-degree":
        bound_fn, mode_cls = bnd.collinear_l_bound, TotalDegree
    else:
        raise ValueError(f"unknown kind {kind!r}")
    q, ell = seq.meta.q, seq.meta.ell
    if ks is None:
        ks = range(1, q * q - 1)
    name = f"bound-{kind}[q={q},ell={ell}]"
    failures = []
    checked = 0
    for k in ks:
        mode = mode_cls(k)
        for n in range(1, len(seq) + 1):
            ceiling = bound_fn(bnd.BoundParams(n=n, q=q, k=k, ell=ell)).ceiling
            checked += 1
            if ceiling < 1:
                continue
            prefix = seq.terms[:n]
            if all(t == ctx.zero for t in prefix):
                failures.append(f"k={k} n={n}: zero prefix but bound {ceiling}")
                continue
            if ceiling == 1:
                continue  # any nonzero prefix has complexity >= 1
            m = ceiling - 1
            if m > n - 1:
                failures.append(f"k={k} n={n}: bound {ceiling} exceeds n-1")
                continue
            if exists_recurrence(ctx, prefix, m, mode):
                failures.append(
                    f"k={k} n={n}: recurrence of length {m} exists below bound"
                )
            if len(failures) > 6:
                return _result(name, failures, "")
    return _result(name, failures, f"{checked} grid points")


def check_oracle_agreement(ctx: FieldContext, sequences: int = 200,
                           seed: int = 2024,
                           heavy_stride: int = 4) -> CheckResult:
    """Solver vs brute-force oracle on random sequences (n <= 6, m <= 2,
    k <= 2, both modes) and on the full constructed q=2 sequence.

    Every sequence runs all cheap configurations; the expensive per-variable
    k=2, m=2 enumeration (4^9 candidates) runs on every heavy_stride-th one.
    """
    name = "oracle-agreement"
    rng = random.Random(seed)
    failures = []
    compared = 0

    def compare(t, m, mode):
        nonlocal compared
        got = exists_recurrence(ctx, t, m, mode)
        want = brute_force_oracle(ctx, t, m, mode)
        compared += 1
        if got != want:
            failures.append(f"disagree on {t} m={m} {mode}")

    for case in range(sequences):
        n = rng.randrange(2, 7)
        t = tuple(rng.choice(ctx.elements) for _ in range(n))
        for k in (1, 2):
            compare(t, 1, PerVariable(k))
            compare(t, 1, TotalDegree(k))
        if n >= 3:
            compare(t, 2, TotalDegree(1))
            compare(t, 2, TotalDegree(2))
            compare(t, 2, PerVariable(1))
            if case % heavy_stride == 0:
                compare(t, 2, PerVariable(2))
        if failures:
            return _result(name, failures, "")
    constructed = build_sequence(ctx, 2)
    for m in (1, 2):
        for k in (1, 2):
            compare(constructed.terms, m, PerVariable(k))
            compare(constructed.terms, m, TotalDegree(k))
    return _result(name, failures, f"{compared} comparisons over {sequences} sequences")


# ---------------------------------------------------------------------------
# bound improvement grids
# ---------------------------------------------------------------------------

def _k_grid(q: int) -> list[int]:
    top = q * q - 2
    return sorted({2, 3, (top + 1) // 2, top})


def _n_grid(q: int) -> list[int]:
    start, stop = q * q - 1, q * (q * q - 2)
    stride = q if q >= 16 else 1
    ns = list(range(start, stop + 1, stride))
    if ns[-1] != stop:
        ns.append(stop)
    return ns


def check_n_improvement(qs: SeqT[int] = (3, 4, 5, 7, 8, 9, 16, 32)) -> CheckResult:
    """Collinear per-variable bound beats the refined two-point bound on the
    whole claimed grid (q >= 3, k >= 2)."""
    name = "n-bound-improvement"
    failures = []
    checked = 0
    for q in qs:
        for k in _k_grid(q):
            for n in _n_grid(q):
                checked += 1
                if not bnd.n_bound_improves(q, k, n):
                    failures.append(f"q={q} k={k} n={n}")
                    if len(failures) > 6:
                        return _result(name, failures, "")
    return _result(name, failures, f"{checked} points dominated")


def check_l_improvement(qs_large: SeqT[int] = (5, 7, 8, 9, 16, 32)) -> CheckResult:
    """Collinear total-degree bound beats the refined two-point bound on its
    claimed set: q >= 5 with k >= 2, and the q=3 / q=4 special cases split
    by whether the two floor ratios agree (lam = 0) or differ (lam = 1)."""
    name = "l-bound-improvement"
    failures = []
    checked = 0

    def run(q, k, n):
        nonlocal checked
        checked += 1
        if not bnd.l_bound_improves(q, k, n):
            failures.append(f"q={q} k={k} n={n}")

    for q in qs_large:
        for k in _k_grid(q):
            for n in _n_grid(q):
                run(q, k, n)
                if len(failures) > 6:
                    return _result(name, failures, "")
    for q, k_zero_lam in ((3, 4), (4, 3)):
        top = q * q - 2
        for n in range(q * q - 1, q * (q * q - 2) + 1):
            lam = bnd.BoundParams(n=n, q=q, k=1, ell=q).lam
            k_min = k_zero_lam if lam == 0 else 1
            for k in range(k_min, top + 1):
                run(q, k, n)
                if len(failures) > 6:
                    return _result(name, failures, "")
    return _result(name, failures, f"{checked} points dominated")


def check_l_twopoint_equivalence(
        qs: SeqT[int] = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32),
        seed: int = 99) -> CheckResult:
    """The quadratic predictor and the exact comparison against the original
    two-point total-degree bound must agree pointwise."""
    name = "l-twopoint-equivalence"
    rng = random.Random(seed)
    failures = []
    checked = 0
    for q in qs:
        top_n = q * (q * q - 2)
        ns = {1, q * q - 2, q * q - 1, 2 * (q * q - 2), top_n // 2, top_n}
        ns.update(rng.randrange(1, top_n + 1) for _ in range(10))
        ks = set(_k_grid(q)) | {1}
        for k in sorted(ks):
            for n in sorted(n for n in ns if 1 <= n <= top_n):
                checked += 1
                if bnd.l_twopoint_condition(q, k, n) != \
                        bnd.l_bound_improves_twopoint(q, k, n):
                    failures.append(f"q={q} k={k} n={n}")
                    if len(failures) > 6:
                        return _result(name, failures, "")
    return _result(name, failures, f"{checked} points agree")


def check_figures() -> CheckResult:
    """Both figure presets: full n coverage, monotone columns, dominance on
    every row, and exact endpoint values."""
    name = "figure-presets"
    failures = []
    expected_ends = {
        "fig1": (Fraction(32673, 192), Fraction(31682, 341)),
        "fig2": (Fraction(32653, 652), Fraction(31062, 651)),
    }
    for preset_name, (own_end, rival_end) in expected_ends.items():
        preset, rows = bnd.figure_rows(preset_name)
        if rows[0][0] != 1023 or rows[-1][0] != 32704:
            failures.append(f"{preset_name}: range {rows[0][0]}..{rows[-1][0]}")
        if len(rows) != 32704 - 1023 + 1:
            failures.append(f"{preset_name}: {len(rows)} rows")
        prev_own = prev_rival = None
        for n, own, rival in rows:
            if own.value <= rival.value:
                failures.append(f"{preset_name}: no dominance at n={n}")
                break
            if prev_own is not None and (own.value < prev_own or rival.value < prev_rival):
                failures.append(f"{preset_name}: column decreases at n={n}")
                break
            prev_own, prev_rival = own.value, rival.value
        if rows[-1][1].value != own_end or rows[-1][2].value != rival_end:
            failures.append(f"{preset_name}: endpoint values drifted")
    return _result(name, failures, "fig1 and fig2 regenerated and dominated")


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------

def run_suite(field_specs: Optional[SeqT[tuple[int, int]]] = None) -> list[CheckResult]:
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
                seq = build_sequence(ctx, ell)
                results.append(check_bound_consistency(ctx, seq, "per-variable"))
                results.append(check_bound_consistency(ctx, seq, "total-degree"))
    for check in (check_n_improvement, check_l_improvement,
                  check_l_twopoint_equivalence, check_figures):
        results.append(check())
    return results
