"""Sequence construction: tangent-quotient values along the scaling orbits.

The full sequence has q*(q^2 - 2) terms, laid out row-major: the i-th row
(i = 1..q) holds the quotient values at the 1st through (q^2-2)-th orbit
steps of the i-th family place.  No term is ever zero: the quotient only
vanishes at family places themselves (orbit step 0), which the step range
1..q^2-2 never revisits.  A sequence is the plain tuple of its terms; the
caller already holds the field, ell and the line that produced it.
"""

from __future__ import annotations

from typing import Optional

from .curve import collinear_family, eval_quotient, scale_place
from .field import Element, FieldContext


def full_length(q: int) -> int:
    return q * (q * q - 2)


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
    steps = ctx.order - 2
    terms = []
    for i in range(1, ctx.q + 1):
        base = fam.places[i - 1]
        for j in range(1, steps + 1):
            terms.append(eval_quotient(fam, ell, scale_place(ctx, base, j)))
    return tuple(terms)
