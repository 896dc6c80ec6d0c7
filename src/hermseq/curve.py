"""Rational places of the curve y^q + y = x^(q+1) over GF(q^2).

The affine places are the q^3 coordinate pairs satisfying the equation;
the one other place, P_inf, is the pole of x and y and enters only the
bound arguments.  Fixing a nonzero x-coordinate `a` picks out a family of
q collinear places on the vertical line x = a, which carries:

  * a tangent-line function per family place, y - b_i - a^q (x - a), whose
    only affine zero is that place;
  * the tangent quotient (x - a)^q / (product of the first ell-1 tangents),
    the rational function whose values along the scaling orbits make the
    sequence.

eval_tangent and eval_quotient evaluate these one place and one tangent at
a time.  They are the reference evaluator: sequence.build_sequence reads a
1/P table instead (see its module), and the checks and tests compare the
two, so the builder is checked by code that shares no shortcut with it.

zero_set takes any function of a place; where it raises PoleError is a pole.

The scaling map (x, y) -> (eps*x, eps^(q+1)*y), eps the primitive element,
acts on places with exact order q^2 - 1; iterating it over the family places
sweeps out q disjoint orbits that miss precisely the q places with x = 0.

Everything is immutable and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .field import Element, FieldContext


class PoleError(ArithmeticError):
    """Function evaluation was requested at one of its poles."""


class AffinePlace(NamedTuple):
    x: Element
    y: Element


def on_curve(ctx: FieldContext, place: AffinePlace) -> bool:
    return ctx.rel_trace(place.y) == ctx.rel_norm(place.x)


def affine_places(ctx: FieldContext) -> tuple[AffinePlace, ...]:
    """All q^3 affine places, ordered lexicographically by (x, y) encoding."""
    return tuple(
        AffinePlace(a, b)
        for a in ctx.elements
        for b in ctx.hermitian_fiber(a)
    )


# ---------------------------------------------------------------------------
# the collinear family on a vertical line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollinearFamily:
    """The q places sharing the nonzero x-coordinate `a`, in canonical fiber
    order.  places[i-1] is the i-th marked place (1-based indexing mirrors
    the usual P_1 .. P_q labelling)."""
    ctx: FieldContext
    a: Element
    b_list: tuple[Element, ...]
    places: tuple[AffinePlace, ...]
    a_pow_q: Element

    @property
    def q(self) -> int:
        return self.ctx.q

    def place(self, i: int) -> AffinePlace:
        if not 1 <= i <= self.q:
            raise ValueError(f"family index must be in 1..{self.q}, got {i}")
        return self.places[i - 1]


def collinear_family(ctx: FieldContext, a: Element) -> CollinearFamily:
    if a == ctx.zero:
        raise ValueError(
            "a must be nonzero: the places on x = 0 are exactly the ones the "
            "scaling orbits miss"
        )
    bs = ctx.hermitian_fiber(a)
    places = tuple(AffinePlace(a, b) for b in bs)
    return CollinearFamily(ctx, a, bs, places, ctx.pow(a, ctx.q))


# ---------------------------------------------------------------------------
# the coordinate-scaling automorphism and its orbits
# ---------------------------------------------------------------------------

def scale_place(ctx: FieldContext, place: AffinePlace, j: int) -> AffinePlace:
    """j-th power of the scaling action on an affine place (it fixes P_inf).

    The map (x, y) -> (eps*x, eps^(q+1)*y) moves a place (u, v) to
    (eps^-1 u, eps^-(q+1) v), dividing by the scaling factors, so that the
    scaled function takes the old value at the moved place.
    """
    xf = ctx.pow(ctx.epsilon, -j)
    yf = ctx.pow(ctx.epsilon, -(ctx.q + 1) * j)
    return AffinePlace(ctx.mul(xf, place.x), ctx.mul(yf, place.y))


def orbit(ctx: FieldContext, place: AffinePlace) -> tuple[AffinePlace, ...]:
    """The q^2 - 1 distinct images of an affine place with nonzero x."""
    if place.x == ctx.zero:
        raise ValueError("places with x = 0 are fixed lines, not full orbits")
    return tuple(scale_place(ctx, place, j) for j in range(ctx.order - 1))


# ---------------------------------------------------------------------------
# function evaluation
# ---------------------------------------------------------------------------

def eval_tangent(fam: CollinearFamily, i: int, place: AffinePlace) -> Element:
    """Value of the tangent line at the i-th family place:
    y - b_i - a^q (x - a).  Its only affine zero is that place."""
    ctx = fam.ctx
    if not 1 <= i <= fam.q:
        raise ValueError(f"tangent index must be in 1..{fam.q}, got {i}")
    shift = ctx.sub(place.x, fam.a)
    return ctx.sub(ctx.sub(place.y, fam.b_list[i - 1]), ctx.mul(fam.a_pow_q, shift))


def eval_quotient(fam: CollinearFamily, ell: int, place: AffinePlace) -> Element:
    """Value of (x - a)^q / (tangent_1 * ... * tangent_(ell-1)).

    The poles are the first ell-1 family places, where evaluation raises
    PoleError, and P_inf, of order q^2 - (ell-1)(q+1).  At the remaining
    family places the value is 0.
    """
    ctx = fam.ctx
    if not 2 <= ell <= fam.q:
        raise ValueError(f"ell must be in 2..{fam.q}, got {ell}")
    den = ctx.one
    for i in range(1, ell):
        den = ctx.mul(den, eval_tangent(fam, i, place))
    if den == ctx.zero:
        raise PoleError(f"{place} is a pole of the tangent quotient")
    num = ctx.pow(ctx.sub(place.x, fam.a), ctx.q)
    return ctx.mul(num, ctx.inv(den))


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------

def zero_set(ctx: FieldContext, fn: Callable[[AffinePlace], Element]) -> tuple[AffinePlace, ...]:
    """All affine places where fn vanishes; places where fn raises
    PoleError are poles and are left out."""
    zeros = []
    for place in affine_places(ctx):
        try:
            value = fn(place)
        except PoleError:
            continue
        if value == ctx.zero:
            zeros.append(place)
    return tuple(zeros)
