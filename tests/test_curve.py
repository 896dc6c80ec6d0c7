import random

import pytest

from hermseq.curve import (
    INFINITY,
    AffinePlace,
    PoleError,
    TangentLine,
    TangentQuotient,
    VerticalLine,
    YCoordinate,
    affine_places,
    collinear_family,
    eval_quotient,
    eval_tangent,
    evaluate,
    on_curve,
    orbit,
    scale_place,
    zero_set,
)
from hermseq.field import FieldContext


@pytest.fixture(scope="module")
def f4():
    return FieldContext(2, 1)


@pytest.fixture(scope="module")
def f9():
    return FieldContext(3, 1)


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_affine_place_count(p, e):
    ctx = FieldContext(p, e)
    places = affine_places(ctx)
    assert len(places) == ctx.q ** 3
    assert len(set(places)) == ctx.q ** 3
    for place in places:
        assert on_curve(ctx, place)
    assert list(places) == sorted(places)


def test_collinear_family_q2(f4):
    fam = collinear_family(f4, f4.one)
    z = f4.epsilon
    z1 = f4.add(z, f4.one)
    assert fam.places == (AffinePlace(f4.one, z), AffinePlace(f4.one, z1))
    assert fam.place(1) == AffinePlace(f4.one, z)


def test_collinear_family_q3_shares_x(f9):
    for a in f9.elements:
        if a == f9.zero:
            continue
        fam = collinear_family(f9, a)
        assert len(set(fam.places)) == 3
        assert all(pl.x == a for pl in fam.places)
        assert all(on_curve(f9, pl) for pl in fam.places)


def test_collinear_family_rejects_zero(f4):
    with pytest.raises(ValueError):
        collinear_family(f4, f4.zero)


# ---------------------------------------------------------------------------
# the scaling action
# ---------------------------------------------------------------------------

def test_scale_identity_cases(f4):
    for place in affine_places(f4):
        assert scale_place(f4, place, 0) == place
        assert scale_place(f4, place, f4.order - 1) == place
    assert scale_place(f4, INFINITY, 5) is INFINITY


def test_scale_known_value(f4):
    z = f4.epsilon
    z1 = f4.add(z, f4.one)
    moved = scale_place(f4, AffinePlace(f4.one, z), 1)
    assert moved == AffinePlace(z1, z)
    assert on_curve(f4, moved)


def test_scale_is_bijection_and_additive(f9):
    places = affine_places(f9)
    rng = random.Random(11)
    for j in (1, 3, 5):
        images = {scale_place(f9, pl, j) for pl in places}
        assert len(images) == len(places)
    for _ in range(50):
        pl = rng.choice(places)
        j1, j2 = rng.randrange(0, 9), rng.randrange(0, 9)
        assert scale_place(f9, scale_place(f9, pl, j1), j2) == scale_place(
            f9, pl, j1 + j2
        )


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_scale_exact_order(p, e):
    ctx = FieldContext(p, e)
    n = ctx.order - 1
    for place in affine_places(ctx):
        if place.x == ctx.zero:
            continue
        period = next(
            j for j in range(1, n + 1) if scale_place(ctx, place, j) == place
        )
        assert period == n


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_orbits_cover_everything_but_x_zero(p, e):
    ctx = FieldContext(p, e)
    fam = collinear_family(ctx, ctx.epsilon)
    orbits = [set(orbit(ctx, pl)) for pl in fam.places]
    for orb in orbits:
        assert len(orb) == ctx.order - 1
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            assert not orbits[i] & orbits[j]
    union = set().union(*orbits)
    assert len(union) == ctx.q * (ctx.order - 1)
    missed = set(affine_places(ctx)) - union
    assert missed == {pl for pl in affine_places(ctx) if pl.x == ctx.zero}
    assert len(missed) == ctx.q


def test_orbit_preconditions(f4):
    with pytest.raises(ValueError):
        orbit(f4, INFINITY)
    with pytest.raises(ValueError):
        orbit(f4, AffinePlace(f4.zero, f4.zero))


# ---------------------------------------------------------------------------
# tangent lines
# ---------------------------------------------------------------------------

def test_tangent_vanishes_only_at_own_place(f9):
    fam = collinear_family(f9, f9.epsilon)
    for i in range(1, 4):
        for r in range(1, 4):
            value = eval_tangent(fam, i, fam.place(r))
            if r == i:
                assert value == f9.zero
            else:
                assert value != f9.zero


def test_tangent_known_value(f4):
    # family on x = 1 in GF(4): b_1 = z; at the place (z+1, z) the tangent
    # value works out to z
    fam = collinear_family(f4, f4.one)
    z = f4.epsilon
    place = AffinePlace(f4.add(z, f4.one), z)
    assert on_curve(f4, place)
    assert eval_tangent(fam, 1, place) == z


def test_tangent_pole_at_infinity(f4):
    fam = collinear_family(f4, f4.one)
    with pytest.raises(PoleError):
        eval_tangent(fam, 1, INFINITY)


# ---------------------------------------------------------------------------
# the tangent quotient
# ---------------------------------------------------------------------------

def test_quotient_zero_at_remaining_family_places(f9):
    fam = collinear_family(f9, f9.epsilon)
    for ell in (2, 3):
        for r in range(ell, 4):
            assert eval_quotient(fam, ell, fam.place(r)) == f9.zero


def test_quotient_pole_at_marked_places(f9):
    fam = collinear_family(f9, f9.epsilon)
    for ell in (2, 3):
        for r in range(1, ell):
            with pytest.raises(PoleError):
                eval_quotient(fam, ell, fam.place(r))
    with pytest.raises(PoleError):
        eval_quotient(fam, 2, INFINITY)


def test_quotient_nonzero_on_orbit_step(f4):
    fam = collinear_family(f4, f4.one)
    moved = scale_place(f4, fam.place(1), 1)
    assert eval_quotient(fam, 2, moved) != f4.zero


def test_quotient_rejects_bad_ell(f9):
    fam = collinear_family(f9, f9.epsilon)
    for ell in (1, 4):
        with pytest.raises(ValueError):
            eval_quotient(fam, ell, fam.place(1))


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_zero_sets(p, e):
    ctx = FieldContext(p, e)
    fam = collinear_family(ctx, ctx.epsilon)
    assert set(zero_set(ctx, VerticalLine(fam.a))) == set(fam.places)
    for i in range(1, ctx.q + 1):
        assert zero_set(ctx, TangentLine(fam, i)) == (fam.place(i),)
    assert zero_set(ctx, YCoordinate()) == (AffinePlace(ctx.zero, ctx.zero),)


def test_zero_set_quotient_excludes_poles(f9):
    fam = collinear_family(f9, f9.epsilon)
    zs = zero_set(f9, TangentQuotient(fam, 2))
    assert set(zs) == {fam.place(2), fam.place(3)}


def test_descriptor_validation(f9):
    fam = collinear_family(f9, f9.epsilon)
    with pytest.raises(ValueError):
        TangentLine(fam, 0)
    with pytest.raises(ValueError):
        TangentQuotient(fam, 1)
    with pytest.raises(PoleError):
        evaluate(f9, YCoordinate(), INFINITY)


# ---------------------------------------------------------------------------
# substitution identity for the scaled quotient
# ---------------------------------------------------------------------------

def _substituted_quotient(fam, ell, j, place):
    """Value at `place` of the quotient with x -> eps^-j x, y -> eps^-(q+1)j y
    substituted into its defining formula."""
    ctx = fam.ctx
    xs = ctx.mul(ctx.pow(ctx.epsilon, -j), place.x)
    ys = ctx.mul(ctx.pow(ctx.epsilon, -(ctx.q + 1) * j), place.y)
    den = ctx.one
    shift = ctx.sub(xs, fam.a)
    for i in range(1, ell):
        den = ctx.mul(
            den, ctx.sub(ctx.sub(ys, fam.b_list[i - 1]), ctx.mul(fam.a_pow_q, shift))
        )
    if den == ctx.zero:
        raise PoleError("substituted function has a pole here")
    return ctx.mul(ctx.pow(shift, ctx.q), ctx.inv(den))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_scaled_evaluation_matches_substitution(p, e):
    ctx = FieldContext(p, e)
    fam = collinear_family(ctx, ctx.epsilon)
    rng = random.Random(5)
    poles = {2: set(fam.places[:1]), ctx.q: set(fam.places[: ctx.q - 1])}
    checked = 0
    while checked < 60:
        ell = rng.choice([2, ctx.q])
        base = fam.place(rng.randrange(1, ctx.q + 1))
        t = rng.randrange(1, ctx.order - 1)
        j = rng.randrange(1, ctx.order - 1)
        place = scale_place(ctx, base, t)
        moved = scale_place(ctx, place, j)
        if place in poles[ell] or moved in poles[ell]:
            continue
        lhs = eval_quotient(fam, ell, moved)
        rhs = _substituted_quotient(fam, ell, j, place)
        assert lhs == rhs
        checked += 1
