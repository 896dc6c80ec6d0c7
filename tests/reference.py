"""Reference linear algebra for the solver tests, on the field's scalar
arithmetic (ctx.add, ctx.mul, ctx.inv, ctx.pow) only: no vector form, code
table, span tracker or suffix chain."""

import itertools

from hermseq.complexity import PerVariable, _exponents


def dense_rank(ctx, vectors):
    """Rank of vectors (equal-length sequences of codes) by Gaussian
    elimination on the whole matrix."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != ctx.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ctx.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            f = ctx.mul(rows[i][col], inv)
            if f != ctx.zero:
                rows[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def enumerated_span_contains(ctx, columns, target):
    """Whether some coefficient tuple, tried one at a time over every
    element, combines columns into target: no elimination at all."""
    rows = list(zip(*columns)) if columns else [()] * len(target)
    for coeffs in itertools.product(ctx.elements, repeat=len(columns)):
        for row, want in zip(rows, target):
            got = ctx.zero
            for c, v in zip(coeffs, row):
                got = ctx.add(got, ctx.mul(c, v))
            if got != want:
                break
        else:
            return True
    return False


def monomial_columns(ctx, terms, m, mode):
    """One column per admissible monomial of mode in m variables, in the
    order _exponents lists them: its values on the windows terms[i:i + m],
    i = 0 .. len(terms) - m - 1, computed with ctx.pow and ctx.mul.  A
    recurrence of window m exists iff terms[m:] lies in their span."""
    columns = []
    for alpha in _exponents(m, isinstance(mode, PerVariable), mode.k):
        column = []
        for i in range(len(terms) - m):
            v = ctx.one
            for x, a in zip(terms[i:i + m], alpha):
                v = ctx.mul(v, ctx.pow(x, a))
            column.append(v)
        columns.append(column)
    return columns
