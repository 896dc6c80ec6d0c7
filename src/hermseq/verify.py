"""Executable self-checks for every layer of the package.

Each check returns a CheckResult instead of asserting, so the same engine
backs both the `verify` CLI subcommand (pass/fail table, exit status) and
the tests (which assert on the results).  Each check runs one fixed grid,
stated in its docstring; the randomized checks use fixed seeds and are
fully reproducible.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from . import bounds as bnd
from .complexity import (
    PerVariable,
    TotalDegree,
    _exponents,
    _within,
    dense_reference,
    exists_recurrence,
    reaches,
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


def check_sequence_layer(ctx: FieldContext,
                         sequences: Mapping[int, Sequence[Element]]) -> list[CheckResult]:
    """Nonzero terms and recomputed corner terms of each constructed
    sequence, given by its ell."""
    fam = collinear_family(ctx, ctx.epsilon)
    steps = ctx.order - 2
    results = []
    for ell, terms in sequences.items():
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
# complexity layer: bound consistency and reference agreement
# ---------------------------------------------------------------------------

def _covered(proofs, kind: str, k: int, m: int, n: int) -> bool:
    """Does a proof in proofs, (kind, k, m, n) each, cover this obligation?"""
    shape = (m, kind == "per-variable", k)
    return any(N <= n and _within(shape, (M, A == "per-variable", K))
               for A, K, M, N in proofs)


_KINDS = {"per-variable": (PerVariable, "N_collinear"),
          "total-degree": (TotalDegree, "L_collinear")}


def bound_obligations(q: int, terms: Sequence[Element], ell: int,
                      ks: Optional[Iterable[int]] = None) -> tuple[dict, list]:
    """(grids, maximal) for the bound check, asking the solver nothing.

    grids maps each kind to (k, run, ceiling) rows for k in ks (default
    1..q^2-2): ceiling = ceil(bound) on the (r1, r2) class whose prefix
    lengths are run.  complexity >= ceiling at (k, n) is a proof that
    terms[:n] has no window-(ceiling - 1) recurrence, listed once per
    (kind, k, m) at the first n that needs it.  maximal lists as
    (kind, k, m, n) those no other one covers (_covered), in one greedy
    pass sorted by (-k, -m, n, kind): a strict coverer comes first, and of
    two that cover each other, the per-variable one.
    """
    ks = tuple(range(1, q * q - 1) if ks is None else ks)
    # terms[:n] is all zero exactly when n <= zeros (zero's code is 0)
    zeros = next((i for i, t in enumerate(terms) if t), len(terms))
    classes = list(bnd.n_classes(q, range(1, len(terms) + 1)))

    def ceilings(name):
        pair, gap = bnd.BOUNDS[name]
        for k in ks:
            for r1, r2, run in classes:
                bnd.check_point(q, k, ell, run[0], q * q - gap)
                num, den = pair(q, k, ell, r1, r2)
                yield k, run, -(-num // den)

    grids = {kind: list(ceilings(name)) for kind, (_, name) in _KINDS.items()}
    first: dict[tuple[str, int, int], int] = {}  # (kind, k, m) -> the first n
    for kind, grid in grids.items():
        for k, run, ceiling in grid:
            n = max(run[0], zeros + 1, ceiling)  # nonzero prefix, m <= n - 1
            if ceiling >= 2 and n <= run[-1]:
                first.setdefault((kind, k, ceiling - 1), n)
    maximal: list[tuple[str, int, int, int]] = []
    for kind, k, m, n in sorted(((*o, n) for o, n in first.items()),
                                key=lambda o: (-o[1], -o[2], o[3], o[0])):
        if not _covered(maximal, kind, k, m, n):
            maximal.append((kind, k, m, n))
    return grids, maximal


def check_bound_consistency(ctx: FieldContext, terms: Sequence[Element], ell: int,
                            ks: Optional[Iterable[int]] = None
                            ) -> tuple[CheckResult, CheckResult]:
    """Every prefix/degree point must respect the collinear bound of both
    degree disciplines: one CheckResult each, per-variable first.

    Only bound_obligations' maximal list is proven, by one walk per kind
    serving each k to its largest window, on the kind's longest prefix:
    (m, n) is refuted iff some m' <= m reaches n under k.
    Each kind's grid is then walked in order, asking about a point only where
    no proof covers it (_covered): never on the passing path, and below a
    maximal proof that found a recurrence, at every other obligation it
    covered, so the failures read as if every point were proven.  Such an
    obligation is read off its kind's walk where the walk served its k to
    its window on a prefix at least as long, and proven by exists_recurrence
    only elsewhere.
    """
    grids, maximal = bound_obligations(ctx.q, terms, ell, ks)
    zeros = next((i for i, t in enumerate(terms) if t), len(terms))
    walks = {}  # kind -> (prefix length, the walk's {k: reach} per window)
    for kind, (cls, _) in _KINDS.items():
        group = [o for o in maximal if o[0] == kind]
        if group:  # a k's first obligation has its largest m and n
            tops = {k: m for _, k, m, _ in reversed(group)}
            length = max(o[3] for o in group)
            walks[kind] = length, list(reaches(ctx, terms[:length], cls, tops))

    def recurs(kind: str, k: int, m: int, n: int) -> Optional[bool]:
        """Does terms[:n] admit a window-m recurrence under kind(k), read
        off the kind's walk; None where the walk cannot tell."""
        length, walk = walks.get(kind, (0, []))
        if n > length:
            return None
        if max((step.get(k, 0) for step in walk[:m]), default=0) >= n:
            return True
        return False if m <= len(walk) and k in walk[m - 1] else None

    proven = [o for o in maximal if not recurs(*o)]

    def failures(kind):
        settled: set[tuple[int, int]] = set()  # (k, m) covered on a shorter prefix
        for k, run, ceiling in grids[kind]:
            if ceiling < 1:
                continue
            m = ceiling - 1
            for n in run:
                if n <= zeros:
                    yield f"k={k} n={n}: zero prefix but bound {ceiling}"
                elif ceiling == 1:
                    continue  # any nonzero prefix has complexity >= 1
                elif m > n - 1:
                    yield f"k={k} n={n}: bound {ceiling} exceeds n-1"
                elif (k, m) not in settled:
                    if not _covered(proven, kind, k, m, n):
                        found = recurs(kind, k, m, n)
                        if found is None:
                            found = exists_recurrence(ctx, terms[:n], m, _KINDS[kind][0](k))
                        if found:
                            yield f"k={k} n={n}: recurrence of length {m} exists below bound"
                            continue
                        proven.append((kind, k, m, n))
                    settled.add((k, m))

    return tuple(_result(f"bound-{kind}[q={ctx.q},ell={ell}]", failures(kind),
                         f"{sum(len(run) for _, run, _ in grids[kind])} grid points")
                 for kind in _KINDS)


@functools.lru_cache(maxsize=16)  # the oracle-agreement check asks 3 sets
def _nested_columns(shapes: tuple) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of the shapes (m, per_variable, k) of one window
    in order of size, each shape's listed before the rest of the next, so
    the first len(_exponents(*shape)) columns are exactly its monomials.
    Raises if a shape does not contain the one before it."""
    columns: list[tuple[int, ...]] = []
    for shape in sorted(shapes, key=lambda shape: len(_exponents(*shape))):
        exponents, listed = _exponents(*shape), set(columns)
        columns += [a for a in exponents if a not in listed]
        if len(columns) != len(exponents):
            raise ValueError(f"shape {shape} does not contain the shape before it")
    return tuple(columns)


def check_oracle_agreement(ctx: FieldContext, constructed: Sequence[Element]) -> CheckResult:
    """Solver vs dense reference on 200 random sequences (seed 2024;
    n <= 6, m <= 2, k <= 2, both modes) and on the constructed ell = 2
    sequence, which the caller builds.

    Every sequence runs window 1 under all four modes and window 2 under
    three; per-variable k=2 at window 2, the largest case (9 monomial
    columns), runs on every fourth sequence.  The modes asked at one window
    are nested monomial sets (TD(1) in PV(1) in TD(2) in PV(2) at m = 2,
    and PV(k) = TD(k) at m = 1), so one dense_reference call per distinct
    (sequence, window), on columns listed in that order (_nested_columns),
    answers them all: a set of s monomials is feasible iff the answer is at
    most s.  The solver side groups the distinct sequences into prefix
    families: in sorted order a sequence's extensions come right after it,
    so it joins the family of the next one when that one extends it.  One
    walk per (family, kind), on the longest member, serves each k to the
    largest window any member asks, and a member t answers (m, k) iff some
    step <= m reaches len(t).  Over GF(4) the 1,313 comparisons take 214
    walks over 107 families and 298 reference calls.
    """
    sequences = 200
    modes = [cls(k) for k in (1, 2) for cls in (PerVariable, TotalDegree)]
    per1, tot1, per2, tot2 = modes
    rng = random.Random(2024)
    cases = []
    for case in range(sequences):
        n = rng.randrange(2, 7)
        t = tuple(rng.choice(ctx.elements) for _ in range(n))
        cases += [(t, 1, mode) for mode in modes]
        if n >= 3:
            cases += [(t, 2, tot1), (t, 2, tot2), (t, 2, per1)]
            if case % 4 == 0:
                cases.append((t, 2, per2))
    cases += [(constructed, m, mode) for m in (1, 2) for mode in modes]

    # the distinct questions on each sequence as shapes (m, per_variable, k),
    # plain values: a mode's dataclass hash and eq run in Python
    asked: dict = {}  # t -> {shape}
    for t, m, mode in cases:
        asked.setdefault(t, set()).add((m, type(mode) is PerVariable, mode.k))
    disagree = set()  # (t, shape)
    distinct, family = sorted(asked), []
    for t, after in zip(distinct, distinct[1:] + [()]):
        family.append(t)
        if after[:len(t)] == t:
            continue  # after extends t, so t is not its family's longest
        tops: dict = {}  # per_variable -> {k: the largest window any member asks}
        for member in family:
            for m, per_variable, k in asked[member]:
                top = tops.setdefault(per_variable, {})
                top[k] = max(top.get(k, 0), m)
        walks = {pv: list(reaches(ctx, t, PerVariable if pv else TotalDegree, top))
                 for pv, top in tops.items()}
        for member in family:
            for m in {m for m, _, _ in asked[member]}:
                shapes = sorted(shape for shape in asked[member] if shape[0] == m)
                least = dense_reference(ctx, member, m, _nested_columns(tuple(shapes)))
                for shape in shapes:
                    _, per_variable, k = shape
                    solved = any(step.get(k, 0) >= len(member) for step in walks[per_variable][:m])
                    feasible = least is not None and least <= len(_exponents(*shape))
                    if solved != feasible:
                        disagree.add((member, shape))
        family = []

    failures = ("disagree on {} m={} {}".format(t, m, mode) for t, m, mode in cases
                if (t, (m, type(mode) is PerVariable, mode.k)) in disagree)
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


def _class_rows(q: int, ks: Iterable[int], ns: Sequence[int]) -> list:
    """(q, k, classes) for each k, sharing one bnd.n_classes(q, ns) list."""
    classes = list(bnd.n_classes(q, ns))
    return [(q, k, classes) for k in ks]


def _grid(name: str, rows: Sequence[tuple[int, int, list]], holds,
          verb: str) -> CheckResult:
    """Check holds(q, k, n) at every n of each (q, k, classes) row, in order.
    holds reads n only through its (r1, r2, run) class, so it is called once
    per class, at its first n, and a failing class fails at each of its n."""
    failures = (f"q={q} k={k} n={n}" for q, k, classes in rows
                for _, _, run in classes if not holds(q, k, run[0])
                for n in run)
    points = sum(len(run) for _, _, classes in rows for _, _, run in classes)
    return _result(name, failures, f"{points} points {verb}")


def check_n_improvement() -> CheckResult:
    """Collinear per-variable bound beats the refined two-point bound on the
    claimed grid: q in {3, 4, 5, 7, 8, 9, 16, 32} on the _k_grid x _n_grid
    points."""
    rows = [row for q in (3, 4, 5, 7, 8, 9, 16, 32)
            for row in _class_rows(q, _k_grid(q), _n_grid(q))]
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
    rows = [row for q in (5, 7, 8, 9, 16, 32)
            for row in _class_rows(q, _k_grid(q), _n_grid(q))]
    for q, k_equal in ((3, 4), (4, 3)):
        classes = list(bnd.n_classes(q, _n_grid(q)))
        unequal = [(r1, r2, run) for r1, r2, run in classes if r1 != r2]
        rows += [(q, k, classes if k >= k_equal else unequal)
                 for k in range(1, q * q - 1)]
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
        rows += _class_rows(q, sorted(set(_k_grid(q)) | {1}), sorted(ns))
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

    Each field's plan is stated here, and each sequence it reads is built
    once: every ell in 2..q for q <= 5 and ell in {2, q} above that, the
    oracle comparison at q = 2, and bound consistency for q <= 5, where
    exact recurrence infeasibility is computable at every grid point.  It
    gives both kinds' results per ell, so one proof can discharge the
    obligations of both kinds.
    """
    if field_specs is None:
        field_specs = [(2, 1), (3, 1)]
    results: list[CheckResult] = []
    for p, e in field_specs:
        ctx = FieldContext(p, e)
        ells = range(2, ctx.q + 1) if ctx.q <= 5 else (2, ctx.q)
        sequences = {ell: build_sequence(ctx, ell) for ell in ells}
        results.append(check_field(ctx))
        results.append(check_structure(ctx))
        results.extend(check_sequence_layer(ctx, sequences))
        if ctx.q == 2:
            results.append(check_oracle_agreement(ctx, sequences[2]))
        if ctx.q <= 5:
            for ell, terms in sequences.items():
                results.extend(check_bound_consistency(ctx, terms, ell))
    for check in (check_n_improvement, check_l_improvement,
                  check_l_twopoint_equivalence, check_figures):
        results.append(check())
    return results
