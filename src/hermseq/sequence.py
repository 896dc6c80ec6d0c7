"""Sequence construction: tangent-quotient values along the scaling orbits.

The full sequence has q*(q^2 - 2) terms, laid out row-major: the i-th row
(i = 1..q) holds the quotient values at the 1st through (q^2-2)-th orbit
steps of the i-th family place.  No term is ever zero: the quotient only
vanishes at family places themselves (orbit step 0), which the step range
1..q^2-2 never revisits.  A sequence is the plain tuple of its terms; the
caller already holds the field, ell and the line that produced it.

The builder reads tables, not curve.eval_quotient.  Every tangent is
Y - b_i for the one field value Y = y - a^q (x - a), so the quotient's
denominator is the polynomial P(Y) = (Y - b_1) ... (Y - b_(ell-1)), and 1/P
is tabulated once over all q^2 values of Y.  The b_i are q - 1 of the q
roots of the trace polynomial Y^q + Y - a^(q+1), the curve on the line
x = a, so the table takes one field row per root of P, or, when the
omitted roots are fewer, the trace row over one row per omitted root: at
the paper's ell = q, two rows.  All family places share x = a, so the j-th
orbit step moves every row to the same x_j = eps^-j a, and (x_j - a)^q and
a^q (x_j - a) are tabulated once per step; the y factor eps^-(q+1)j lies in
F_q and repeats with period q - 1.  Each family place then takes whole
rows: Y from one add_rows, 1/P(Y) from the table and the terms from sums
of log rows, with no Python call per term.  curve.eval_quotient stays the
reference evaluator: the checks and tests compare the builder with it, so
the two share no shortcut.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

from .curve import PoleError, collinear_family
from .field import Element, FieldContext


def full_length(q: int) -> int:
    return q * (q * q - 2)


def _inverse_product_table(ctx: FieldContext, fiber: Sequence[Element],
                           ell: int) -> list[Optional[Element]]:
    """Entry Y (a code) is 1 / P(Y), P(Y) = prod(Y - b for b in roots) and
    roots = fiber[:ell-1], or None at the roots, where P is zero.

    The fiber is every root of Y^q + Y - c, c = a^(q+1), so P times the
    omitted factors Y - b, b in fiber[ell-1:], is that polynomial.  The
    table sums the logs of the shorter list.  While ell - 1 <= q - ell + 1,
    that is one row b - Y per root, whose zero at b is read as one, and
    (-1)^(ell-1).  Otherwise 1/P is prod(Y - b, b omitted) / (Y^q + Y - c):
    one row b - Y per omitted root, less the trace row c - Y^q - Y, and
    (-1)^(q-ell).  Both vanish at an omitted root b; there 1/P(b) is the
    product of b - b' over the other omitted roots b', because that product
    over every other root of the fiber is the polynomial's derivative at b,
    q b^(q-1) + 1 = 1.
    """
    n, roots, omitted = ctx.order - 1, fiber[:ell - 1], fiber[ell - 1:]
    minus_one = ctx.log_row([ctx.neg(ctx.one)])[0]

    def row_logs(bs, sign: int) -> list[int]:  # the logs of (-1)^sign * prod(b - Y)
        logs = [sign * minus_one % n] * ctx.order
        for b in bs:
            row = ctx.sub_row(b)
            row[b] = ctx.one
            logs = list(map(operator.add, logs, ctx.log_row(row)))
        return logs

    if len(roots) <= len(omitted):
        table: list[Optional[Element]] = ctx.exp_row(
            map(operator.neg, row_logs(roots, len(roots))))
    else:
        trace = ctx.trace_row()  # c is the trace of any root
        gaps = list(map(ctx.sub_row(trace[fiber[0]]).__getitem__, trace))  # c - Y^q - Y
        for b in fiber:
            gaps[b] = ctx.one
        table = ctx.exp_row(map(operator.sub, row_logs(omitted, len(omitted) - 1),
                                ctx.log_row(gaps)))
        for b in omitted:
            inverse = ctx.one
            for other in omitted:
                if other != b:
                    inverse = ctx.mul(inverse, ctx.sub(b, other))
            table[b] = inverse
    for b in roots:
        table[b] = None
    return table


def build_sequence(ctx: FieldContext, ell: int, a: Optional[Element] = None,
                   length: Optional[int] = None) -> tuple[Element, ...]:
    """Build the full q*(q^2-2)-term sequence for the line x = a, or with
    length only the rows (blocks of q^2-2 terms) that its first length
    terms lie in.

    a defaults to the primitive element, the canonical nonzero choice.
    Term (i-1)*(q^2-2) + j (1-based) is the quotient value at the j-th orbit
    step of the i-th family place, 1 <= i <= q, 1 <= j <= q^2-2.
    """
    if not 2 <= ell <= ctx.q:
        raise ValueError(f"ell must be in 2..{ctx.q}, got {ell}")
    if a is None:
        a = ctx.epsilon
    fam = collinear_family(ctx, a)
    # the log of 1/P(Y) by code, None at the roots
    inv_logs = ctx.log_row(ctx.zero if v is None else v
                           for v in _inverse_product_table(ctx, fam.b_list, ell))
    # steps j = 1..q^2-2: the logs of a - x_j give (x_j - a)^q and -a^q (x_j - a)
    q, n, steps = ctx.q, ctx.order - 1, range(1, ctx.order - 1)
    log_a, minus_one, log_aq = ctx.log_row([a, ctx.neg(ctx.one), fam.a_pow_q])
    xs = ctx.exp_row(map(log_a.__sub__, steps))  # x_j = eps^-j a
    diffs = ctx.log_row(map(ctx.sub_row(a).__getitem__, xs))
    num_logs = [q * (s + minus_one) % n for s in diffs]
    shifts = ctx.exp_row(map(log_aq.__add__, diffs))
    # y_j = eps^-(q+1)j repeats with period q - 1, and (q + 1)(q - 1) > q^2 - 2
    y_logs = [-(q + 1) * j % n for j in range(1, q)]
    rows = q if length is None else -(-length // len(steps))
    bs, terms = fam.b_list[:rows], []
    for b, log_b in zip(bs, ctx.log_row(bs)):  # Y = y_j b + shift_j, then 1/P(Y)
        ys = ctx.add_rows(ctx.exp_row(map(log_b.__add__, y_logs)) * (q + 1), shifts)
        try:
            terms += ctx.exp_row(map(operator.add, num_logs, map(inv_logs.__getitem__, ys)))
        except TypeError:  # a root of P: None has no log
            raise PoleError(f"orbit step of ({a}, {b}) is a pole of the quotient") from None
    return tuple(terms)
