"""Shortest-recurrence complexity of sequences over GF(q^2).

Two degree disciplines are supported for the recurrence polynomial
f(x_1, .., x_m) with t_{i+m} = f(t_i, .., t_{i+m-1}) on every window:

  * PerVariable(k): degree at most k in each variable;
  * TotalDegree(k): total degree at most k.

The complexity is the least window length m admitting such an f; 0 is
reserved for the all-zero sequence and a single nonzero term has complexity
1.  Existence of f for fixed m is a linear-consistency question in the
monomial coefficients, solved by streaming one column per admissible
monomial into the incremental span tracker, with one row per window.  The
solver maps the terms to integer codes once (FieldContext.code) and builds
every power and column with the context's code tables.  A brute-force
oracle that enumerates entire coefficient assignments provides an
independent ground truth at tiny sizes, and the classical iterative
synthesis algorithm computes plain linear complexity for sanity relations;
both stay on tuple arithmetic, so they share no arithmetic with the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

from .field import FieldContext, SpanTracker

DEFAULT_MONOMIAL_BUDGET = 1 << 22


@dataclass(frozen=True)
class PerVariable:
    """Recurrence polynomials of degree at most k in each variable."""
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"degree parameter must be >= 1, got {self.k}")


@dataclass(frozen=True)
class TotalDegree:
    """Recurrence polynomials of total degree at most k."""
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"degree parameter must be >= 1, got {self.k}")


DegreeMode = Union[PerVariable, TotalDegree]


@dataclass(frozen=True)
class Exact:
    value: int


@dataclass(frozen=True)
class Bracket:
    """The true complexity lies in [lo, hi]; everything below lo is proven
    infeasible, hi = n-1 is the unconditional upper end."""
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty bracket [{self.lo}, {self.hi}]")


ComplexityResult = Union[Exact, Bracket]


def _sum_bounded_vectors(m: int, per_cap: int, total: int) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of length m, entries <= per_cap, sum <= total, in
    lexicographic order."""
    if m == 0:
        yield ()
        return
    for first in range(min(per_cap, total) + 1):
        for rest in _sum_bounded_vectors(m - 1, per_cap, total - first):
            yield (first,) + rest


def _exponent_vectors(mode: DegreeMode, m: int, cap: int) -> Iterator[tuple[int, ...]]:
    # exponents above q^2-1 never yield new functions (x^(q^2) = x pointwise),
    # so they are capped; the degree constraint itself is unchanged by this
    if isinstance(mode, PerVariable):
        return itertools.product(range(min(mode.k, cap) + 1), repeat=m)
    return _sum_bounded_vectors(m, min(mode.k, cap), mode.k)


def monomial_count(mode: DegreeMode, m: int, cap: int) -> int:
    """Number of admissible exponent vectors for window length m."""
    if isinstance(mode, PerVariable):
        return (min(mode.k, cap) + 1) ** m
    c = min(mode.k, cap)
    k = mode.k
    # bounded-entry compositions with one unconstrained slack variable
    total = 0
    for j in range(k // (c + 1) + 1):
        total += (-1) ** j * math.comb(m, j) * math.comb(m + k - j * (c + 1), m)
    return total


def _power_table(ctx: FieldContext, terms, up_to: int) -> list[list]:
    table = []
    for t in terms:
        powers = [ctx.one]
        for _ in range(up_to):
            powers.append(ctx.mul(powers[-1], t))
        table.append(powers)
    return table


def exists_recurrence(ctx: FieldContext, t, m: int, mode: DegreeMode) -> bool:
    """Is there a recurrence polynomial of window length m under `mode`?

    One linear unknown per admissible monomial, one equation per window;
    columns are streamed so only a row-bounded basis is ever held.  The
    column of monomial alpha holds prod_j t_{i+j}^alpha_j at window i, in
    codes.
    """
    code = ctx.code
    codes = [code(v) for v in t]
    n = len(codes)
    if not 1 <= m <= n - 1:
        raise ValueError(f"window length must be in 1..{n - 1}, got {m}")
    r = n - m
    tracker = SpanTracker(ctx, codes[m:])
    if tracker.consistent:
        return True
    cap = ctx.order - 1
    mul = ctx.code_tables()[0]
    # powers[a][i] is the code of t_i^a over the first n - 1 terms, so
    # variable j of window i reads powers[a][i + j]
    powers = [[code(ctx.one)] * (n - 1)]
    for _ in range(min(mode.k, cap)):
        powers.append([mul[v][w] for v, w in zip(powers[-1], codes)])
    for alpha in _exponent_vectors(mode, m, cap):
        col = None
        for j, a_j in enumerate(alpha):
            if a_j:
                factor = powers[a_j][j:j + r]
                col = factor if col is None else [mul[v][w] for v, w in zip(col, factor)]
        if tracker.offer(powers[0][:r] if col is None else col):
            return True
    return False


def nonlinear_complexity(ctx: FieldContext, t, mode: DegreeMode,
                         monomial_budget: int = DEFAULT_MONOMIAL_BUDGET) -> ComplexityResult:
    """Least window length admitting a recurrence under `mode`.

    Returns Exact(0) for the all-zero sequence and Exact(1) for a single
    nonzero term.  The search walks m upward; if the monomial count for the
    next m would exceed the budget the result so far is returned as
    Bracket(m, n-1): everything below m was fully proven infeasible.
    """
    if monomial_budget < 1:
        raise ValueError("monomial budget must be >= 1")
    terms = tuple(t)
    n = len(terms)
    if all(v == ctx.zero for v in terms):
        return Exact(0)
    if n == 1:
        return Exact(1)
    cap = ctx.order - 1
    for m in range(1, n):
        if monomial_count(mode, m, cap) > monomial_budget:
            if m == n - 1:
                # the constant polynomial f = t_n always realizes m = n-1
                return Exact(n - 1)
            return Bracket(m, n - 1)
        if exists_recurrence(ctx, terms, m, mode):
            return Exact(m)
    raise AssertionError("m = n-1 always admits the constant recurrence")


def brute_force_oracle(ctx: FieldContext, t, m: int, mode: DegreeMode) -> bool:
    """Ground truth for exists_recurrence by trying every polynomial.

    Enumerates every coefficient assignment over the full (uncapped)
    monomial basis of the mode and tests the recurrence on all windows.
    Refuses when the candidate count exceeds 2**24.
    """
    terms = tuple(t)
    n = len(terms)
    if not 1 <= m <= n - 1:
        raise ValueError(f"window length must be in 1..{n - 1}, got {m}")
    if isinstance(mode, PerVariable):
        monos = list(itertools.product(range(mode.k + 1), repeat=m))
    else:
        monos = list(_sum_bounded_vectors(m, mode.k, mode.k))
    candidates = ctx.order ** len(monos)
    if candidates > 1 << 24:
        raise ValueError(
            f"enumeration too large: {candidates} candidate polynomials"
        )
    r = n - m
    powtab = _power_table(ctx, terms[: n - 1], mode.k)
    mul, add, one, zero = ctx.mul, ctx.add, ctx.one, ctx.zero
    columns = []
    for alpha in monos:
        col = []
        for i in range(r):
            v = one
            for j, a_j in enumerate(alpha):
                if a_j:
                    v = mul(v, powtab[i + j][a_j])
            col.append(v)
        columns.append(tuple(col))
    target = tuple(terms[m:])
    zeros = (zero,) * r

    def search(idx: int, partial: tuple) -> bool:
        if idx == len(columns):
            return partial == target
        col = columns[idx]
        for c in ctx.elements:
            if c == zero:
                nxt = partial
            else:
                nxt = tuple(add(x, mul(c, y)) for x, y in zip(partial, col))
            if search(idx + 1, nxt):
                return True
        return False

    return search(0, zeros)


def linear_complexity(ctx: FieldContext, t) -> int:
    """Length of the shortest homogeneous linear recurrence generating t,
    by the classical iterative synthesis algorithm."""
    terms = tuple(t)
    n = len(terms)
    zero, one = ctx.zero, ctx.one
    conn = [one]          # connection polynomial, constant term first
    prev = [one]
    length = 0
    shift = 1
    last_disc = one
    for i in range(n):
        disc = terms[i]
        for j in range(1, length + 1):
            if j < len(conn) and conn[j] != zero:
                disc = ctx.add(disc, ctx.mul(conn[j], terms[i - j]))
        if disc == zero:
            shift += 1
            continue
        coef = ctx.mul(disc, ctx.inv(last_disc))
        update = list(conn)
        needed = len(prev) + shift
        if len(update) < needed:
            update.extend([zero] * (needed - len(update)))
        for idx, pv in enumerate(prev):
            update[idx + shift] = ctx.sub(update[idx + shift], ctx.mul(coef, pv))
        if 2 * length <= i:
            prev = conn
            last_disc = disc
            length = i + 1 - length
            shift = 1
        else:
            shift += 1
        conn = update
    return length
