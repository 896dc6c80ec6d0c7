"""Shortest-recurrence complexity of sequences over GF(q^2).

Two degree disciplines are supported for the recurrence polynomial
f(x_1, .., x_m) with t_{i+m} = f(t_i, .., t_{i+m-1}) on every window:

  * PerVariable(k): degree at most k in each variable;
  * TotalDegree(k): total degree at most k.

The complexity is the least window length m admitting such an f; 0 is
reserved for the all-zero sequence and a single nonzero term has complexity
1; complexity_profile gives it for every prefix in one pass.  Existence of
f for fixed m is a linear-consistency question with one equation per
window.  Its unknowns are not the monomial coefficients, of which there
are (k+1)^m in per-variable mode, but the coefficients of a
chain of suffix levels (_Chain) that spans the same functions on the
windows with at most k+1 columns per distinct window.  Terms are int codes
(see field); the solver builds every column and reduces it with the
incremental span tracker in the context's vector form: one lane of F_p
digits per row, a byte for q in {2, 3, 4, 5, 7, 8} and wider elsewhere.
Every reader walks one chain (reaches), whose steps each build a level and
read the longest prefix its window length covers in one elimination.  A
brute-force oracle provides an independent ground truth at small sizes: it
searches every coefficient assignment of the full monomial basis, meeting
in the middle between the spans of two halves of the columns, without
elimination, on tables of the field's log and Zech mul and add
(FieldContext.mul_add_tables), so it shares no arithmetic with the solver.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import getitem, ne
from typing import Union

from .field import FieldContext, SpanTracker


@dataclass(frozen=True)
class _Degree:
    """A degree parameter k >= 1; the subclass says what k bounds."""
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"degree parameter must be >= 1, got {self.k}")


class PerVariable(_Degree):
    """Recurrence polynomials of degree at most k in each variable."""


class TotalDegree(_Degree):
    """Recurrence polynomials of total degree at most k."""


DegreeMode = Union[PerVariable, TotalDegree]


def _within(a: tuple[int, bool, int], b: tuple[int, bool, int]) -> bool:
    """Does shape a's monomial set lie in shape b's, read in b's last
    variables?  A shape (m, per_variable, k) admits the monomials in m
    variables of degree at most k in each variable, or in total.

    The one law by which a feasibility answer settles another: a window-m
    recurrence over a's set is a window-M one over b's, and one on a prefix
    holds on every shorter one, so none at b on terms[:N] means none at a
    on terms[:n] for any n >= N.  a's set holds x_1, so m <= M, and its
    largest degree must fit: k <= K, or m*k <= K (x_1^k..x_m^k) for a
    per-variable a in a total-degree b.
    """
    (m, per_variable, k), (M, per_variable_b, K) = a, b
    return m <= M and k * (m if per_variable and not per_variable_b else 1) <= K


class _Chain:
    """Suffix levels of one code sequence under one degree kind, for every k.

    Level L describes the polynomials in L variables on the windows
    codes[j:j+L] of codes[:-1]: at[j] is the point number of window j (equal
    windows share a point), and basis holds (degree tag, values on the
    points) for a basis of those functions.  Level 0 is the constant 1 on
    the empty window, tagged 0.  Level L+1 is spanned by x_1^a * h for h in
    level L, tagged a + tag(h) in total degree and max(a, tag(h)) per
    variable and offered lowest tag first, so its vectors tagged <= k span
    the polynomials of degree <= k: each kind is nested in k, and every k
    reads one chain's low-degree part.  Exponents above q^2-1 never yield
    new functions (x^(q^2) = x pointwise), so they are capped; the degree
    constraint itself is unchanged by this.
    """

    def __init__(self, ctx: FieldContext, codes: list[int], kind: type):
        self.ctx, self.codes, self.per_variable = ctx, codes, kind is PerVariable
        self.at = [0] * len(codes)
        self.basis = [(0, ctx.vector_form().unit)]  # 1 on the empty window

    def products(self, points, top: int):
        """(tag, column) of every x_1^a * h tagged at most top, with h in the
        current level, lowest tag first, on points given as (code of x_1,
        point number of the suffix window)."""
        cap, pv, basis = min(top, self.ctx.order - 1), self.per_variable, self.basis
        column = self.ctx.vector_form().monomials(points, cap, [h for _, h in basis])
        for tag, a, j in sorted((d, a, j) for a in range(cap + 1) for j, (tag, _) in enumerate(basis)
                                if (d := max(a, tag) if pv else a + tag) <= top):
            yield tag, column(a, j)

    def step(self, ks: list[int]) -> list[int]:
        """Build the next level, m, and return the reach at window m of each
        k in ks, ascending: m + R for the largest R such that codes[:m+R]
        admits a window-m recurrence of degree k.

        A point's target is codes[j+m] at its first window j, and stop is the
        first window whose target differs from its point's.  One tracker on
        the point targets keeps the level's basis, and each k reads its
        spanned_prefix() once the stream passes tag k.  The stream stops at
        full rank, or once the target is spanned if stop is n-m, as every k
        still unread then reaches all of codes.  Points are numbered by first
        appearance, so the first R windows cover the points below the one at
        window R, and R is the lesser of stop and the first window on point
        spanned_prefix().
        """
        codes, n = self.codes, len(self.codes)
        number: dict[tuple[int, int], int] = {}
        self.at = at = [number.setdefault(window, len(number))
                        for window in zip(codes, self.at[1:])]
        m, rows = n - len(at), len(number)
        first = dict(zip(reversed(at), reversed(codes[m:])))  # a point's first target
        target = list(map(first.__getitem__, range(rows)))
        disagree = map(ne, map(target.__getitem__, at), codes[m:])
        stop = next(itertools.compress(itertools.count(), disagree), n - m)
        whole = stop == n - m  # no target disagrees
        tracker, basis, covered, unread = SpanTracker(self.ctx, target), [], [], iter(ks)
        stream = () if whole and tracker.spanned_prefix() == rows else self.products(list(number), ks[-1])
        k = next(unread)
        for degree, col in stream:
            while degree > k:  # the stream passes k, never the last
                covered.append(tracker.spanned_prefix())
                k = next(unread)
            if (vec := tracker.offer(col)) is not None:
                basis.append((degree, vec))
                if len(basis) == rows or whole and tracker.spanned_prefix() == rows:
                    break
        self.basis = basis
        covered += [tracker.spanned_prefix()] * (len(ks) - len(covered))
        return [m + min(stop, at.index(c) if c < rows else n - m) for c in covered]


def reaches(ctx: FieldContext, t, kind: type, tops: dict[int, int]):
    """The reach (_Chain.step) of each k in tops at window m = 1, 2, .., as
    one {k: reach} a window, off one chain over t: a k is served to its top
    window tops[k], or until it covers t, as t[:n] admits a window-m
    recurrence iff some m' <= m reaches n (_within)."""
    codes, m, step = list(t), 1, {}
    chain, live = _Chain(ctx, codes, kind), sorted(tops)
    while live := [k for k in live if tops[k] >= m and step.get(k, 0) < len(codes)]:
        step = dict(zip(live, chain.step(live)))
        yield step
        m += 1


def exists_recurrence(ctx: FieldContext, t, m: int, mode: DegreeMode) -> bool:
    """Is there a recurrence polynomial of window length m under `mode`?

    One equation per window; the unknowns are the coefficients of x_1^a * h
    with h running over level m-1 of the suffix chain (_Chain).
    """
    codes = list(t)
    n = len(codes)
    if not 1 <= m <= n - 1:
        raise ValueError(f"window length must be in 1..{n - 1}, got {m}")
    return any(step[mode.k] == n for step in reaches(ctx, codes, type(mode), {mode.k: m}))


def complexity_profiles(ctx: FieldContext, t, kind: type, ks) -> dict[int, list[int]]:
    """Complexities of every prefix under kind(k) for each k in ks: entry n-1
    of a k's profile is the complexity of t[:n].

    A prefix that is all zero has complexity 0 and a single nonzero term 1.
    The complexity of t[:n] is the least m whose reach is at least n, and
    one walk on the whole of t serves every prefix and every k, as its
    levels restrict to each prefix's.  It ends by m = max(len(t)-1, 1),
    where the constant recurrence covers every prefix.
    """
    codes = list(t)
    # the all-zero prefixes; every later one has complexity >= 1
    zeros = next((i for i, c in enumerate(codes) if c), len(codes))
    profiles = {kind(k).k: [0] * zeros for k in ks}  # a mode checks its k
    if zeros < len(codes):
        tops = dict.fromkeys(ks, max(len(codes) - 1, 1))
        for m, step in enumerate(reaches(ctx, codes, kind, tops), 1):
            for k, reach in step.items():
                profiles[k] += [m] * (reach - len(profiles[k]))  # nothing if covered
    return profiles


def complexity_profile(ctx: FieldContext, t, mode: DegreeMode) -> list[int]:
    """Complexities of every prefix under mode (complexity_profiles)."""
    return complexity_profiles(ctx, t, type(mode), [mode.k])[mode.k]


def nonlinear_complexity(ctx: FieldContext, t, mode: DegreeMode) -> int:
    """Least window length admitting a recurrence under `mode`, as an int.

    Returns 0 for the all-zero sequence and 1 for a single nonzero term;
    this is the last entry of complexity_profile (0 for an empty t).
    """
    profile = complexity_profile(ctx, t, mode)
    return profile[-1] if profile else 0


@functools.lru_cache(maxsize=64)  # the verify suite asks 8 shapes
def _exponents(m: int, per_variable: bool, k: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of every monomial in m variables of degree at
    most k in each variable or in total, uncapped: the oracle's full basis
    (at most 33 monomials), keyed by plain values, as a mode's dataclass
    hash runs in Python."""
    return tuple(a for a in itertools.product(range(k + 1), repeat=m)
                 if per_variable or sum(a) <= k)


def brute_force_oracle(ctx: FieldContext, t, m: int, mode: DegreeMode) -> bool:
    """Ground truth for exists_recurrence by exhaustive search.

    Builds one column per monomial of the full (uncapped) monomial basis
    (_exponents) on every window, and decides whether some
    coefficient assignment sums the columns to the target t[m:].  Its
    arithmetic is lookups in ctx.mul_add_tables(), rows built from the
    field's log and Zech mul and add, never the solver's vector form, and
    each column, multiple or sum is one C-level map over those rows.  The
    search meets in the middle: it looks up target + s in the left half's
    span for each s in the right half's span, which holds -s too, so it
    stays exhaustive and free of elimination at |F|^min(half, r) sums a
    half (4^4, not 4^9, for k = 2 per variable, m = 2, six terms, GF(4)).
    A half's span grows one column at a time; the zero vector's sums with
    the column's multiples are the multiples themselves, so they go in as
    they are.  A column's multiples are read off the mul rows of its own
    entries, so the tables hold the rows the question reads, not the field's
    square.  Refuses, before listing a monomial, when a half has more
    than 16 columns or the larger half's table of |F|^min(half, r) sums
    exceeds 2**16.  The answer depends on t, m and the monomial set alone,
    so verify's oracle-agreement check settles questions by _within.
    """
    terms = tuple(t)
    n = len(terms)
    if not 1 <= m <= n - 1:
        raise ValueError(f"window length must be in 1..{n - 1}, got {m}")
    per_variable = isinstance(mode, PerVariable)
    count = (mode.k + 1) ** m if per_variable else math.comb(m + mode.k, mode.k)
    half, r = count // 2, n - m
    # a larger half of more than 16 columns is refused by its count, before
    # any monomial is listed; a smaller one spans at most r dimensions, so
    # its table holds |F|^min(columns, r) sums
    dims = count - half if count - half > 16 else min(count - half, r)
    if count - half > 16 or ctx.order ** dims > 1 << 16:
        raise ValueError(f"enumeration too large: a table of {ctx.order}^{dims} sums")
    mul, add = ctx.mul_add_tables()
    muls, adds = mul.__getitem__, add.__getitem__

    def times(u, v) -> tuple:
        """The entrywise product of two columns."""
        return tuple(map(getitem, map(muls, u), v))

    power = [(ctx.one,) * (n - 1)]  # power[a]: x^a for each x in terms[:-1]
    for _ in range(mode.k):
        power.append(times(power[-1], terms[:-1]))
    powers = [[xa[j:j + r] for xa in power] for j in range(m)]  # x_{j+1}^a by window
    columns = [functools.reduce(times, map(getitem, powers, alpha))
               for alpha in _exponents(m, per_variable, mode.k)]
    full, origin = ctx.order ** r, (ctx.zero,) * r

    def sums(cols) -> set:
        """Every sum of c_i * col_i, a subspace: a column in it adds nothing."""
        acc = {origin}
        for col in cols:
            if len(acc) < full and col not in acc:
                multiples = list(zip(*map(muls, col)))[1:]  # c * col for c != 0
                acc |= {tuple(map(getitem, rows, v))
                        for rows in [list(map(adds, s)) for s in acc if s != origin]
                        for v in multiples}
                acc.update(multiples)
        return acc

    left, target = sums(columns[:half]), list(map(adds, terms[m:]))  # target's add rows
    return (len(left) == full or terms[m:] in left
            or any(tuple(map(getitem, target, s)) in left for s in sums(columns[half:])))
