import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hermseq.bounds import (
    BOUNDS,
    bound,
    collinear_l_pair,
    collinear_n_pair,
    decimal_string,
    figure_rows,
    floor_ratios,
    l_bound_improves,
    l_bound_improves_twopoint,
    l_twopoint_condition,
    n_bound_improves,
    n_classes,
    prime_power,
)


# ---------------------------------------------------------------------------
# points and rendering
# ---------------------------------------------------------------------------

def test_prime_power():
    assert prime_power(32) == (2, 5)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert prime_power((10**9 + 7) ** 2) == (10**9 + 7, 2)
    assert prime_power((10**13 + 37) ** 2) == (10**13 + 37, 2)
    for bad in (0, 1, 6, 12, 36, 100, 43 * 47):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_params_validation():
    for name in BOUNDS:
        bound(name, q=2, k=1, ell=2, n=4)
        with pytest.raises(ValueError):
            bound(name, q=6, k=1, ell=2, n=4)
        with pytest.raises(ValueError):
            bound(name, q=2, k=0, ell=2, n=4)
        with pytest.raises(ValueError):
            bound(name, q=2, k=1, ell=3, n=4)
        with pytest.raises(ValueError):
            bound(name, q=2, k=1, ell=2, n=5)  # above q(q^2-2)
        with pytest.raises(ValueError):
            bound(name, q=2, k=1, ell=2, n=0)


@pytest.mark.parametrize("name,k_max", [
    ("N_collinear", 7), ("L_collinear", 7), ("N_twopoint", 8),
    ("L_twopoint", 8), ("N_refined", 8), ("L_refined", 8)])
@pytest.mark.parametrize("q,k,ell,n,message", [
    (6, 1, 3, 4, "q must be a prime power, got 6"),
    (3, 0, 3, 4, "k must be >= 1, got 0"),
    (3, 1, 4, 4, "ell must be in 2..3, got 4"),
    (3, 1, 3, 0, "n must be in 1..21, got 0"),
    (3, 1, 3, 22, "n must be in 1..21, got 22"),
    (3, None, 3, 4, "k must be <= {k_max} for this bound, got {k}"),  # k_max + 1
])
def test_bound_domain(name, k_max, q, k, ell, n, message):
    # hermseq bounds prints these messages, so each is pinned, as is the
    # order of the checks (q, k >= 1, ell, n, then k_max)
    if k is None:
        assert isinstance(bound(name, q, k_max, ell, n), Fraction)
        k = k_max + 1
    with pytest.raises(ValueError) as excinfo:
        bound(name, q, k, ell, n)
    assert str(excinfo.value) == message.format(k_max=k_max, k=k)


def test_floor_ratios_stay_adjacent():
    rng = random.Random(0)
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5, 8, 9, 16, 32])
        n = rng.randrange(1, q * (q * q - 2) + 1)
        r1, r2 = floor_ratios(q, n)
        assert (r1, r2) == (n // (q * q - 1), n // (q * q - 2))
        assert r1 <= r2 <= r1 + 1


def test_decimal_string():
    assert decimal_string(Fraction(32673, 192)) == "170.171875"
    assert decimal_string(Fraction(3, 4)) == "0.750000"
    assert decimal_string(Fraction(-15, 10)) == "-1.500000"
    assert decimal_string(Fraction(2, 3)) == "0.666667"
    # a negative value that rounds to zero has no sign
    assert decimal_string(Fraction(-1, 10 ** 7)) == "0.000000"
    assert decimal_string(Fraction(-1, 2 * 10 ** 6)) == "-0.000001"


# ---------------------------------------------------------------------------
# pinned formula values
# ---------------------------------------------------------------------------

def test_collinear_n_values():
    v = bound("N_collinear", q=32, k=5, ell=32, n=32704)
    assert v == Fraction(32673, 192)
    v = bound("N_collinear", q=2, k=1, ell=2, n=4)
    assert v == Fraction(3, 4)
    assert math.ceil(v) == 1
    # first window: at n = q^2 - 2 = 7 the floor ratio r2 is 1, so
    # (1*7 - (ell-1)) / (1 + k*q*(q+1-ell)) = 5/7
    v = bound("N_collinear", q=3, k=2, ell=3, n=7)
    assert v == Fraction(5, 7)


def test_collinear_n_trivial_below_window():
    # below q^2 - 2 the floor ratio vanishes and the bound carries nothing
    for q, ell in [(3, 2), (3, 3), (5, 4)]:
        for n in (1, q * q - 3):
            v = bound("N_collinear", q=q, k=1, ell=ell, n=n)
            assert v <= 0


def test_collinear_l_values():
    v = bound("L_collinear", q=32, k=20, ell=32, n=32704)
    assert v == Fraction(32653, 652)
    v = bound("L_collinear", q=3, k=7, ell=2, n=21)
    assert v == Fraction(-15, 10)
    assert v <= 0


def test_collinear_l_at_max_ell_simplifies():
    # at ell = q the numerator collapses to r2*(q^2-2) - (q-1) - k
    for q, k, n in [(3, 2, 21), (5, 4, 100), (8, 3, 400)]:
        _, r2 = floor_ratios(q, n)
        v = bound("L_collinear", q=q, k=k, ell=q, n=n)
        expected = Fraction(r2 * (q * q - 2) - (q - 1) - k, r2 + k * (q - 1))
        assert v == expected


def test_twopoint_values():
    v = bound("N_twopoint", q=32, k=5, ell=32, n=31713)
    assert v == Fraction(31712, 4991)
    # numerator goes negative for large k at small r1
    v = bound("L_twopoint", q=3, k=7, ell=3, n=8)
    assert v < 0


def test_refined_values():
    v = bound("N_refined", q=32, k=5, ell=32, n=32704)
    assert v == Fraction(31682, 341)
    v = bound("L_refined", q=32, k=20, ell=32, n=32704)
    assert v == Fraction(31062, 651)


def test_refined_degenerate_at_zero_ratio():
    v = bound("N_refined", q=3, k=1, ell=3, n=7)
    assert v <= 0


def test_twopoint_formula_beyond_native_length():
    # n = 32704 is past the two-point length 31*1023; the formula still
    # evaluates, here with r1 = 31
    v = bound("N_twopoint", q=32, k=5, ell=32, n=32704)
    assert v == Fraction(31712, 4991)


def test_k_range_guards():
    with pytest.raises(ValueError):
        bound("N_collinear", q=3, k=8, ell=3, n=21)  # k > q^2-2
    # the two-point bounds accept k = q^2-1
    bound("N_twopoint", q=3, k=8, ell=3, n=8)
    with pytest.raises(ValueError):
        bound("N_twopoint", q=3, k=9, ell=3, n=8)


def test_bounds_names_are_the_csv_columns():
    header = (Path(__file__).resolve().parent / "data" / "bounds_q3.csv").read_text()
    assert list(BOUNDS) == header.splitlines()[0].split(",")[5:] == [
        "N_collinear", "L_collinear",
        "N_twopoint", "L_twopoint",
        "N_refined", "L_refined",
    ]


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
    assert l_bound_improves(3, 4, 8)    # r1 = r2 = 1
    assert l_bound_improves(3, 1, 14)   # r1 = 1, r2 = 2
    assert l_bound_improves(4, 3, 15)
    assert l_bound_improves(32, 20, 32704)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_l_improvement_at_small_k(q):
    # k = 1 fails exactly on the last two classes, r1 = r2 in {q-2, q-1};
    # k = 2 fails only at q = 3 on r1 = r2 = 2 (n = 16..20), inside the
    # r1 = r2, k >= 4 exception that check_l_improvement encodes
    for n in range(q * q - 1, q * (q * q - 2) + 1):
        r1, r2 = floor_ratios(q, n)
        last_two = r1 == r2 and r1 in (q - 2, q - 1)
        assert l_bound_improves(q, 1, n) != last_two, f"n={n}"
        assert l_bound_improves(q, 2, n) == (q != 3 or not 16 <= n <= 20), f"n={n}"
    if q == 5:
        failing = [n for n in range(24, 116) if not l_bound_improves(5, 1, n)]
        assert failing == list(range(72, 92)) + list(range(96, 115))


def test_l_twopoint_condition_spot():
    # at (32, 20, 32704) the quadratic is 12288000 - 18374360 - 1921 < 0 and
    # indeed the original two-point bound (~233.2) beats the collinear one
    # (~50.08) there; both sides of the equivalence agree on False
    assert not l_twopoint_condition(32, 20, 32704)
    assert not l_bound_improves_twopoint(32, 20, 32704)
    # pushing k past the crossover flips both sides to True
    assert l_twopoint_condition(32, 40, 32704)
    assert l_bound_improves_twopoint(32, 40, 32704)
    # large k with equal floor ratios: the positive leading term dominates;
    # the quadratic has no upper limit on k, unlike the bounds
    for k in (7, 8, 20):
        assert l_twopoint_condition(3, k, 8)


@pytest.mark.parametrize("predicate", [
    n_bound_improves, l_bound_improves, l_bound_improves_twopoint, l_twopoint_condition])
@pytest.mark.parametrize("q,k,n,message", [
    (6, 1, 4, "q must be a prime power, got 6"),
    (3, 0, 4, "k must be >= 1, got 0"),
    (3, 1, 0, "n must be in 1..21, got 0"),
    (3, 1, 22, "n must be in 1..21, got 22"),
    (3, 8, 4, "k must be <= 7 for this bound, got 8"),
])
def test_predicate_domain(predicate, q, k, n, message):
    if predicate is l_twopoint_condition and k == q * q - 1:
        assert predicate(q, k, n)  # no upper limit on k
        return
    with pytest.raises(ValueError) as excinfo:
        predicate(q, k, n)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_integer_pairs_agree_with_fractions(q):
    # on every k and every (r1, r2) class: the predicates' cross-products
    # decide as the public Fraction formulas do, and the integer ceiling
    # of each collinear pair is math.ceil of its bound, negative values too
    beats = [(n_bound_improves, "N_collinear", "N_refined"),
             (l_bound_improves, "L_collinear", "L_refined"),
             (l_bound_improves_twopoint, "L_collinear", "L_twopoint")]
    for k in range(1, q * q - 1):
        for r1, r2, run in n_classes(q, range(1, q * (q * q - 2) + 1)):
            n = run[0]
            for predicate, own, rival in beats:
                assert predicate(q, k, n) == (
                    bound(own, q, k, q, n) > bound(rival, q, k, q, n)), (k, n)
            for ell in range(2, q + 1):
                for pair, name in ((collinear_n_pair, "N_collinear"),
                                   (collinear_l_pair, "L_collinear")):
                    num, den = pair(q, k, ell, r1, r2)
                    assert -(-num // den) == math.ceil(bound(name, q, k, ell, n)), (k, n, ell)


def test_l_twopoint_equivalence_sampled():
    rng = random.Random(13)
    for _ in range(400):
        q = rng.choice([3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
        k = rng.randrange(1, q * q - 1)
        n = rng.randrange(1, q * (q * q - 2) + 1)
        assert l_twopoint_condition(q, k, n) == l_bound_improves_twopoint(q, k, n)


# ---------------------------------------------------------------------------
# (r1, r2) classes
# ---------------------------------------------------------------------------

def _tiling_runs(q, ns):
    """n_classes(q, ns) as a list, checked: the runs tile ns in order, each
    run has the one (r1, r2) it names, and adjacent runs differ."""
    runs = list(n_classes(q, ns))
    assert [n for _, _, run in runs for n in run] == list(ns)
    for r1, r2, run in runs:
        assert {(n // (q * q - 1), n // (q * q - 2)) for n in run} == {(r1, r2)}
    keys = [(r1, r2) for r1, r2, _ in runs]
    assert all(a != b for a, b in zip(keys, keys[1:]))
    return runs


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16, 32])
def test_n_classes_on_a_contiguous_range(q):
    ns = range(1, q * (q * q - 2) + 1)
    runs = _tiling_runs(q, ns)
    assert all(isinstance(run, range) for _, _, run in runs)
    # (0, 0) below q^2 - 2, (0, 1) at q^2 - 2 alone, then the 2q - 2
    # classes of a figure
    assert runs[:2] == [(0, 0, range(1, q * q - 2)), (0, 1, range(q * q - 2, q * q - 1))]
    assert len(runs) == 2 * q


def test_n_classes_on_the_strided_grid():
    from hermseq.verify import _n_grid

    ns = _n_grid(32)  # stride q from q^2 - 1, then the last n
    runs = _tiling_runs(32, ns)
    # the stride misses 15 of the 62 figure classes, all shorter than it
    assert len(runs) == 47
    assert runs[-1] == (31, 32, [32704])


def test_n_classes_on_a_sparse_set():
    rng = random.Random(5)
    for q in (3, 4, 7, 9):
        top = q * (q * q - 2)
        ns = sorted(set(rng.randrange(1, top + 1) for _ in range(12)))
        _tiling_runs(q, ns)
    # one n per class, and n at both sides of each step
    assert [run for _, _, run in n_classes(3, [1, 6, 7, 8, 13, 14, 16])] == [
        [1, 6], [7], [8, 13], [14], [16]]
    assert list(n_classes(3, [])) == list(n_classes(3, range(0))) == []


def test_n_classes_is_lazy():
    # about 10^9 classes ahead; only the first is made
    runs = n_classes(32, range(1023, 10 ** 12))
    assert next(runs) == (1, 1, range(1023, 2044))


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset_name,own,rival", [
    ("fig1", "N_collinear", "N_refined"),
    ("fig2", "L_collinear", "L_refined"),
])
def test_figure_rows_match_per_n_evaluation(preset_name, own, rival):
    preset, classes = figure_rows(preset_name)
    assert [n for ns, _, _ in classes for n in ns] == list(preset.n_values)
    q, k = preset.q, preset.k
    keys = []
    for ns, class_own, class_rival in classes:
        pairs = set()
        for n in ns:
            assert (class_own, class_rival) == (
                bound(own, q, k, q, n), bound(rival, q, k, q, n)), f"n={n}"
            pairs.add(floor_ratios(q, n))
        assert len(pairs) == 1, f"class from n={ns[0]}"
        keys += pairs
    # maximal runs: adjacent classes differ in (r1, r2)
    assert all(a != b for a, b in zip(keys, keys[1:]))
    assert len(classes) == 2 * preset.q - 2


def test_unknown_figure_preset_rejected():
    with pytest.raises(ValueError, match=r"unknown preset 'fig3'; choose from \['fig1', 'fig2'\]"):
        figure_rows("fig3")
