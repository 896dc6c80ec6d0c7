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
is tabulated once over all q^2 values of Y, one field row per root.  All
family places share x = a, so the j-th orbit step moves every row to the
same x_j = eps^-j a, and (x_j - a)^q, a^q (x_j - a) and the y factor
eps^-(q+1)j are tabulated once per step.  Each family place then takes
whole rows: Y from one add_rows, 1/P(Y) from the table and the terms from
sums of log rows, with no Python call per term.  curve.eval_quotient
stays the reference evaluator: the checks and tests compare the builder
with it, so the two share no shortcut.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

from .curve import PoleError, collinear_family
from .field import Element, FieldContext


def full_length(q: int) -> int:
    return q * (q * q - 2)


def _inverse_product_table(ctx: FieldContext,
                           roots: Sequence[Element]) -> list[Optional[Element]]:
    """Entry Y (a code) is 1 / prod(Y - b for b in roots), or None at the
    roots, where the product is zero.  Its log sums that of (-1)^len(roots)
    and the logs of one row b - Y per root, whose zero at b is read as one."""
    logs = [len(roots) * ctx.log_row([ctx.neg(ctx.one)])[0]] * ctx.order
    for b in roots:
        row = ctx.sub_row(b)
        row[b] = ctx.one
        logs = list(map(operator.add, logs, ctx.log_row(row)))
    table: list[Optional[Element]] = ctx.exp_row(-s for s in logs)
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
    inv_den = _inverse_product_table(ctx, fam.b_list[:ell - 1])
    # steps j = 1..q^2-2: the logs of a - x_j give (x_j - a)^q and -a^q (x_j - a)
    q, steps = ctx.q, range(1, ctx.order - 1)
    log_a, minus_one, log_aq = ctx.log_row([a, ctx.neg(ctx.one), fam.a_pow_q])
    xs = ctx.exp_row(log_a - j for j in steps)  # x_j = eps^-j a
    diffs = ctx.log_row(map(ctx.sub_row(a).__getitem__, xs))
    num_logs = [q * (s + minus_one) for s in diffs]
    shifts = ctx.exp_row(log_aq + s for s in diffs)
    y_scales = ctx.exp_row(-(q + 1) * j for j in steps)
    rows = q if length is None else -(-length // len(steps))
    terms = []
    for b in fam.b_list[:rows]:  # Y = y_j b + shift_j, then 1/P(Y) from the table
        ys = ctx.add_rows(map(ctx.mul_row(b).__getitem__, y_scales), shifts)
        invs = list(map(inv_den.__getitem__, ys))
        if None in invs:  # a pole: None has no log
            raise PoleError(f"orbit step of ({a}, {b}) is a pole of the quotient")
        terms += ctx.exp_row(map(operator.add, num_logs, ctx.log_row(invs)))
    return tuple(terms)
