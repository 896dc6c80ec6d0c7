"""Rational places of the curve y^q + y = x^(q+1) over GF(q^2).

The affine places are the q^3 coordinate pairs satisfying the equation; one
extra place sits at infinity.  Fixing a nonzero x-coordinate `a` picks out a
family of q collinear places on the vertical line x = a, which carries:

  * a tangent-line function per family place, y - b_i - a^q (x - a), whose
    only affine zero is that place;
  * the tangent quotient (x - a)^q / (product of the first ell-1 tangents),
    the rational function evaluated along scaling orbits to build sequences.

The scaling map (x, y) -> (eps*x, eps^(q+1)*y), eps the primitive element,
acts on places with exact order q^2 - 1; iterating it over the family places
sweeps out q disjoint orbits that miss precisely the q places with x = 0.

Everything is immutable and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .field import Element, FieldContext


class PoleError(ArithmeticError):
    """Function evaluation was requested at one of its poles."""


class PlaceAtInfinity:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = PlaceAtInfinity()


class AffinePlace(NamedTuple):
    x: Element
    y: Element


Place = Union[AffinePlace, PlaceAtInfinity]


def on_curve(ctx: FieldContext, place: Place) -> bool:
    if place is INFINITY:
        return True
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

def scale_place(ctx: FieldContext, place: Place, j: int) -> Place:
    """j-th power of the scaling action on a place; infinity is fixed.

    The map (x, y) -> (eps*x, eps^(q+1)*y) moves a place (u, v) to
    (eps^-1 u, eps^-(q+1) v), dividing by the scaling factors, so that the
    scaled function takes the old value at the moved place.
    """
    if place is INFINITY:
        return INFINITY
    xf = ctx.pow(ctx.epsilon, -j)
    yf = ctx.pow(ctx.epsilon, -(ctx.q + 1) * j)
    return AffinePlace(ctx.mul(xf, place.x), ctx.mul(yf, place.y))


def orbit(ctx: FieldContext, place: Place) -> tuple[Place, ...]:
    """The q^2 - 1 distinct images of an affine place with nonzero x."""
    if place is INFINITY:
        raise ValueError("orbit is defined for affine places only")
    if place.x == ctx.zero:
        raise ValueError("places with x = 0 are fixed lines, not full orbits")
    return tuple(scale_place(ctx, place, j) for j in range(ctx.order - 1))


# ---------------------------------------------------------------------------
# function evaluation
# ---------------------------------------------------------------------------

def eval_tangent(fam: CollinearFamily, i: int, place: Place) -> Element:
    """Value of the tangent line at the i-th family place:
    y - b_i - a^q (x - a).  Its only affine zero is that place."""
    if place is INFINITY:
        raise PoleError("tangent lines have their pole at infinity")
    ctx = fam.ctx
    if not 1 <= i <= fam.q:
        raise ValueError(f"tangent index must be in 1..{fam.q}, got {i}")
    shift = ctx.sub(place.x, fam.a)
    return ctx.sub(ctx.sub(place.y, fam.b_list[i - 1]), ctx.mul(fam.a_pow_q, shift))


def eval_quotient(fam: CollinearFamily, ell: int, place: Place) -> Element:
    """Value of (x - a)^q / (tangent_1 * ... * tangent_(ell-1)).

    Poles sit at infinity and at the first ell-1 family places; evaluation
    there raises PoleError.  At the remaining family places the value is 0.
    """
    ctx = fam.ctx
    if not 2 <= ell <= fam.q:
        raise ValueError(f"ell must be in 2..{fam.q}, got {ell}")
    if place is INFINITY:
        raise PoleError("the quotient has a pole at infinity")
    den = ctx.one
    for i in range(1, ell):
        den = ctx.mul(den, eval_tangent(fam, i, place))
    if den == ctx.zero:
        raise PoleError(f"{place} is a pole of the tangent quotient")
    num = ctx.pow(ctx.sub(place.x, fam.a), ctx.q)
    return ctx.mul(num, ctx.inv(den))


# ---------------------------------------------------------------------------
# symbolic function descriptors and zero sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerticalLine:
    """The function x - a."""
    a: Element


@dataclass(frozen=True)
class YCoordinate:
    """The coordinate function y."""


@dataclass(frozen=True)
class TangentLine:
    fam: CollinearFamily
    i: int

    def __post_init__(self):
        if not 1 <= self.i <= self.fam.q:
            raise ValueError(f"tangent index must be in 1..{self.fam.q}")


@dataclass(frozen=True)
class TangentQuotient:
    fam: CollinearFamily
    ell: int

    def __post_init__(self):
        if not 2 <= self.ell <= self.fam.q:
            raise ValueError(f"ell must be in 2..{self.fam.q}")


CurveFunction = Union[VerticalLine, YCoordinate, TangentLine, TangentQuotient]


def evaluate(ctx: FieldContext, fn: CurveFunction, place: Place) -> Element:
    if place is INFINITY:
        raise PoleError("all supported functions have a pole at infinity")
    if isinstance(fn, VerticalLine):
        return ctx.sub(place.x, fn.a)
    if isinstance(fn, YCoordinate):
        return place.y
    if isinstance(fn, TangentLine):
        return eval_tangent(fn.fam, fn.i, place)
    if isinstance(fn, TangentQuotient):
        return eval_quotient(fn.fam, fn.ell, place)
    raise TypeError(f"not a curve function: {fn!r}")


def affine_poles(fn: CurveFunction) -> frozenset[AffinePlace]:
    if isinstance(fn, TangentQuotient):
        return frozenset(fn.fam.places[: fn.ell - 1])
    return frozenset()


def zero_set(ctx: FieldContext, fn: CurveFunction) -> tuple[AffinePlace, ...]:
    """All affine places where the function vanishes (poles excluded)."""
    poles = affine_poles(fn)
    return tuple(
        place
        for place in affine_places(ctx)
        if place not in poles and evaluate(ctx, fn, place) == ctx.zero
    )
