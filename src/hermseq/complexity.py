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
incremental span tracker in the context's vector form: one byte per row
for q in {2, 3, 4, 5, 7, 8}, wider lanes of F_p digits elsewhere.  Both
exists_recurrence and complexity_profile ask one question of the chain,
spanned_rows(m): the longest prefix that a window-m recurrence covers,
with the columns streamed until the target is spanned.  A brute-force
oracle provides an independent ground truth at small sizes: it searches
every coefficient assignment of the full monomial basis, meeting in the
middle between the spans of two halves of the columns, without
elimination, on tables of the field's log and Zech mul and add
(FieldContext.mul_add_tables), so it shares no arithmetic with the
solver's vector form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import getitem
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


class _Chain:
    """Suffix levels of one code sequence under one degree mode.

    Level L describes the admissible polynomials in L variables on the
    windows codes[j:j+L] of codes[:-1]: at[j] is the point number of window
    j (equal windows share a point), and basis holds (degree tag, values on
    the points) for a basis of those functions.  Level 0 is the constant 1
    on the empty window.  Level L+1 is spanned by x_1^a * h for
    a <= min(k, q^2-1) and h in level L; in total-degree mode only
    a + tag(h) <= k is offered, lowest degree first, so the vectors tagged
    <= d span the polynomials of degree <= d.  A level stops once its rank
    equals its number of points.  Exponents above q^2-1 never yield new
    functions (x^(q^2) = x pointwise), so they are capped; the degree
    constraint itself is unchanged by this.  The one question a chain
    answers about its target is spanned_rows(m).
    """

    def __init__(self, ctx: FieldContext, codes: list[int], mode: DegreeMode):
        self.ctx, self.codes, self.mode = ctx, codes, mode
        self.top = min(mode.k, ctx.order - 1)
        self.at = [0] * len(codes)
        self.basis = [(0, ctx.vector_form().unit)]  # 1 on the empty window

    def products(self, points):
        """(degree, column) of every admissible x_1^a * h with h in the
        current level, lowest degree first, on points given as (code of x_1,
        point number of the suffix window)."""
        column = self.ctx.vector_form().monomials(
            points, self.top, [h for _, h in self.basis])
        if isinstance(self.mode, PerVariable):
            for a in range(self.top + 1):
                for j in range(len(self.basis)):
                    yield 0, column(a, j)
            return
        for degree, a, j in sorted((a + tag, a, j) for a in range(self.top + 1)
                                   for j, (tag, _) in enumerate(self.basis)
                                   if a + tag <= self.mode.k):
            yield degree, column(a, j)

    def grow(self) -> None:
        """Replace the current level by the next one."""
        number: dict[tuple[int, int], int] = {}
        self.at = [number.setdefault(window, len(number))
                   for window in zip(self.codes, self.at[1:])]
        tracker = SpanTracker(self.ctx, [0] * len(number))
        basis = []
        for degree, col in self.products(list(number)):
            vec = tracker.insert(col)
            if vec is not None:
                basis.append((degree, vec))
                if len(basis) == len(number):
                    break
        self.basis = basis

    def spanned_rows(self, m: int) -> int:
        """Taking the current level as level m-1: the largest R such that
        the products x_1^a * h on the first R windows codes[i:i+m] span the
        target codes[m:m+R], that is, such that the prefix codes[:m+R]
        admits a recurrence of window length m.  The stream of products
        stops once the whole target is spanned."""
        tracker = SpanTracker(self.ctx, self.codes[m:])
        if tracker.spanned_prefix() < len(self.codes) - m:  # else the target is zero
            for _, col in self.products(list(zip(self.codes, self.at[1:]))):
                if tracker.offer(col):
                    break
        return tracker.spanned_prefix()


def exists_recurrence(ctx: FieldContext, t, m: int, mode: DegreeMode) -> bool:
    """Is there a recurrence polynomial of window length m under `mode`?

    One equation per window; the unknowns are the coefficients of x_1^a * h
    with h running over level m-1 of the suffix chain (_Chain).
    """
    codes = list(t)
    n = len(codes)
    if not 1 <= m <= n - 1:
        raise ValueError(f"window length must be in 1..{n - 1}, got {m}")
    chain = _Chain(ctx, codes, mode)
    for _ in range(m - 1):
        chain.grow()
    return m + chain.spanned_rows(m) == n


def complexity_profile(ctx: FieldContext, t, mode: DegreeMode) -> list[int]:
    """Complexities of every prefix: entry n-1 is the complexity of t[:n].

    A prefix that is all zero has complexity 0 and a single nonzero term 1.
    Feasibility at window m is monotone in the prefix length, so each m has
    a longest feasible prefix, of length m + _Chain.spanned_rows(m) (or the
    whole of t); the complexity of t[:n] is the least m whose longest
    feasible prefix reaches n.  One suffix chain on the whole of t serves
    every prefix, since its levels restrict to each prefix's levels, so the
    profile costs about as much as the complexity of t alone.  The walk
    ends by m = max(len(t)-1, 1), where the constant recurrence covers
    every prefix.
    """
    codes = list(t)
    # the all-zero prefixes; every later one has complexity >= 1
    profile = [0] * next((i for i, c in enumerate(codes) if c), len(codes))
    if len(profile) == len(codes):
        return profile
    chain = _Chain(ctx, codes, mode)
    m = 1
    while True:
        reach = m + chain.spanned_rows(m)
        profile += [m] * (reach - len(profile))  # nothing if reach is covered
        if reach == len(codes):
            return profile
        chain.grow()
        m += 1


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
    so verify's oracle-agreement check settles questions by verify._within,
    the inclusion of those sets.
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
