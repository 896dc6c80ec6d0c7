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
is tabulated once over all q^2 values of Y.  All family places share x = a,
so the j-th orbit step moves every row to the same x_j = eps^-j a, and
(x_j - a)^q, a^q (x_j - a) and the y factor eps^-(q+1)j are tabulated once
per step.  A term then costs one mul, one sub, one table read and one mul.
curve.eval_quotient stays the reference evaluator: the checks and tests
compare the builder with it, so the two share no shortcut.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .curve import PoleError, collinear_family
from .field import Element, FieldContext


def full_length(q: int) -> int:
    return q * (q * q - 2)


def _inverse_product_table(ctx: FieldContext,
                           roots: Sequence[Element]) -> list[Optional[Element]]:
    """Entry Y (a code) is 1 / prod(Y - b for b in roots), or None where
    that product is zero, that is at the roots."""
    table = []
    for y in ctx.elements:
        den = ctx.one
        for b in roots:
            den = ctx.mul(den, ctx.sub(y, b))
        table.append(ctx.inv(den) if den else None)
    return table


def build_sequence(ctx: FieldContext, ell: int,
                   a: Optional[Element] = None) -> tuple[Element, ...]:
    """Build the full q*(q^2-2)-term sequence for the line x = a.

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
    x_step = ctx.inv(ctx.epsilon)
    y_step = ctx.pow(x_step, ctx.q + 1)
    steps = []  # (x_j - a)^q, a^q (x_j - a), eps^-(q+1)j for j = 1..q^2-2
    x, y_scale = a, ctx.one
    for _ in range(ctx.order - 2):
        x, y_scale = ctx.mul(x, x_step), ctx.mul(y_scale, y_step)
        shift = ctx.sub(x, a)
        steps.append((ctx.pow(shift, ctx.q), ctx.mul(fam.a_pow_q, shift), y_scale))
    terms = []
    for b in fam.b_list:
        for num, tangent_shift, y_scale in steps:
            inv = inv_den[ctx.sub(ctx.mul(y_scale, b), tangent_shift)]
            if inv is None:  # ctx.mul would read None as zero
                raise PoleError(f"orbit step of ({a}, {b}) is a pole of the quotient")
            terms.append(ctx.mul(num, inv))
    return tuple(terms)
