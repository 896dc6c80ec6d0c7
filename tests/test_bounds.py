import random
from fractions import Fraction

import pytest

from hermseq.bounds import (
    BoundParams,
    BoundValue,
    all_bounds,
    collinear_l_bound,
    collinear_n_bound,
    comparison_sweep,
    decimal_string,
    l_bound_improves,
    l_bound_improves_twopoint,
    l_twopoint_condition,
    n_bound_improves,
    prime_power,
    refined_twopoint_l_bound,
    refined_twopoint_n_bound,
    twopoint_l_bound,
    twopoint_n_bound,
)


# ---------------------------------------------------------------------------
# params and rendering
# ---------------------------------------------------------------------------

def test_prime_power():
    assert prime_power(32) == (2, 5)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(1_000_000_007) == (1_000_000_007, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_params_validation():
    BoundParams(n=4, q=2, k=1, ell=2)
    with pytest.raises(ValueError):
        BoundParams(n=4, q=6, k=1, ell=2)
    with pytest.raises(ValueError):
        BoundParams(n=4, q=2, k=0, ell=2)
    with pytest.raises(ValueError):
        BoundParams(n=4, q=2, k=1, ell=3)
    with pytest.raises(ValueError):
        BoundParams(n=5, q=2, k=1, ell=2)  # above q(q^2-2)
    with pytest.raises(ValueError):
        BoundParams(n=0, q=2, k=1, ell=2)


def test_floor_ratios_stay_adjacent():
    rng = random.Random(0)
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5, 8, 9, 16, 32])
        n = rng.randrange(1, q * (q * q - 2) + 1)
        params = BoundParams(n=n, q=q, k=1, ell=2)
        assert params.r1 <= params.r2 <= params.r1 + 1
        assert params.lam in (0, 1)


def test_bound_value_helpers():
    bv = BoundValue(Fraction(3, 4))
    assert bv.numerator == 3 and bv.denominator == 4
    assert bv.ceiling == 1
    assert not bv.is_trivial
    assert str(bv) == "3/4"
    assert BoundValue(Fraction(-15, 10)).is_trivial
    assert BoundValue(Fraction(0)).is_trivial
    assert BoundValue(Fraction(-15, 10)).ceiling == -1


def test_decimal_string():
    assert decimal_string(Fraction(32673, 192)) == "170.171875"
    assert decimal_string(Fraction(3, 4)) == "0.750000"
    assert decimal_string(Fraction(-15, 10)) == "-1.500000"
    assert decimal_string(Fraction(1, 3), places=3) == "0.333"
    assert decimal_string(Fraction(2, 3), places=3) == "0.667"


# ---------------------------------------------------------------------------
# pinned formula values
# ---------------------------------------------------------------------------

def test_collinear_n_values():
    v = collinear_n_bound(BoundParams(n=32704, q=32, k=5, ell=32))
    assert v.value == Fraction(32673, 192)
    v = collinear_n_bound(BoundParams(n=4, q=2, k=1, ell=2))
    assert v.value == Fraction(3, 4)
    assert v.ceiling == 1


def test_collinear_n_trivial_below_window():
    # below q^2 - 2 the floor ratio vanishes and the bound carries nothing
    for q, ell in [(3, 2), (3, 3), (5, 4)]:
        for n in (1, q * q - 3):
            v = collinear_n_bound(BoundParams(n=n, q=q, k=1, ell=ell))
            assert v.is_trivial


def test_collinear_l_values():
    v = collinear_l_bound(BoundParams(n=32704, q=32, k=20, ell=32))
    assert v.value == Fraction(32653, 652)
    v = collinear_l_bound(BoundParams(n=21, q=3, k=7, ell=2))
    assert v.value == Fraction(-15, 10)
    assert v.is_trivial


def test_collinear_l_at_max_ell_simplifies():
    # at ell = q the numerator collapses to r2*(q^2-2) - (q-1) - k
    for q, k, n in [(3, 2, 21), (5, 4, 100), (8, 3, 400)]:
        params = BoundParams(n=n, q=q, k=k, ell=q)
        v = collinear_l_bound(params)
        expected = Fraction(
            params.r2 * (q * q - 2) - (q - 1) - k, params.r2 + k * (q - 1)
        )
        assert v.value == expected


def test_twopoint_values():
    v = twopoint_n_bound(BoundParams(n=31713, q=32, k=5, ell=32))
    assert v.value == Fraction(31712, 4991)
    # numerator goes negative for large k at small r1
    v = twopoint_l_bound(BoundParams(n=8, q=3, k=7, ell=3))
    assert v.value < 0


def test_refined_values():
    v = refined_twopoint_n_bound(BoundParams(n=32704, q=32, k=5, ell=32))
    assert v.value == Fraction(31682, 341)
    v = refined_twopoint_l_bound(BoundParams(n=32704, q=32, k=20, ell=32))
    assert v.value == Fraction(31062, 651)


def test_refined_degenerate_at_zero_ratio():
    v = refined_twopoint_n_bound(BoundParams(n=7, q=3, k=1, ell=3))
    assert v.is_trivial


def test_twopoint_formula_beyond_native_length():
    # n = 32704 is past the two-point length 31*1023; the formula still
    # evaluates, here with r1 = 31
    v = twopoint_n_bound(BoundParams(n=32704, q=32, k=5, ell=32))
    assert v.value == Fraction(31712, 4991)


def test_k_range_guards():
    with pytest.raises(ValueError):
        collinear_n_bound(BoundParams(n=21, q=3, k=8, ell=3))  # k > q^2-2
    # the two-point bounds accept k = q^2-1
    twopoint_n_bound(BoundParams(n=8, q=3, k=8, ell=3))
    with pytest.raises(ValueError):
        twopoint_n_bound(BoundParams(n=8, q=3, k=9, ell=3))


def test_all_bounds_keys():
    out = all_bounds(BoundParams(n=21, q=3, k=2, ell=3))
    assert set(out) == {
        "N_collinear", "L_collinear",
        "N_twopoint", "L_twopoint",
        "N_refined", "L_refined",
    }


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_endpoint_row():
    rows = comparison_sweep(32, 5, [1023, 32704])
    assert rows[-1].n1.value == Fraction(32673, 192)
    assert rows[-1].n2.value == Fraction(31682, 341)
    assert rows[-1].n1.value > rows[-1].n2.value


def test_sweep_fig2_endpoint():
    rows = comparison_sweep(32, 20, [32704])
    assert rows[0].l1.value == Fraction(32653, 652)
    assert rows[0].l2.value == Fraction(31062, 651)
    assert rows[0].l1.value > rows[0].l2.value


def test_sweep_first_window_row():
    # at n = q^2 - 2 the collinear floor ratio is exactly 1
    rows = comparison_sweep(3, 2, [7])
    params = BoundParams(n=7, q=3, k=2, ell=3)
    assert params.r2 == 1
    assert rows[0].n1.value == Fraction(1 * 7 - 2, 1 + 2 * 3)


def test_sweep_validation():
    with pytest.raises(ValueError):
        comparison_sweep(3, 2, [])


# ---------------------------------------------------------------------------
# improvement claims
# ---------------------------------------------------------------------------

def test_n_improvement_spot():
    assert n_bound_improves(3, 2, 8)
    assert n_bound_improves(32, 5, 32704)
    # the q = 2 exclusion is real: a counterexample exists
    assert not n_bound_improves(2, 2, 3)


def test_l_improvement_spot():
    assert l_bound_improves(5, 2, 24)
    assert l_bound_improves(3, 4, 8)    # lam = 0 branch
    assert l_bound_improves(3, 1, 14)   # lam = 1 branch
    assert l_bound_improves(4, 3, 15)
    assert l_bound_improves(32, 20, 32704)


def test_l_twopoint_condition_spot():
    # at (32, 20, 32704) the quadratic is 12288000 - 18374360 - 1921 < 0 and
    # indeed the original two-point bound (~233.2) beats the collinear one
    # (~50.08) there; both sides of the equivalence agree on False
    assert not l_twopoint_condition(32, 20, 32704)
    assert not l_bound_improves_twopoint(32, 20, 32704)
    # pushing k past the crossover flips both sides to True
    assert l_twopoint_condition(32, 40, 32704)
    assert l_bound_improves_twopoint(32, 40, 32704)
    # large k with equal floor ratios: the positive leading term dominates
    assert l_twopoint_condition(3, 7, 8)


def test_l_twopoint_equivalence_sampled():
    rng = random.Random(13)
    for _ in range(400):
        q = rng.choice([3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
        k = rng.randrange(1, q * q - 1)
        n = rng.randrange(1, q * (q * q - 2) + 1)
        assert l_twopoint_condition(q, k, n) == l_bound_improves_twopoint(q, k, n)
