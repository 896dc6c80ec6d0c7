import dataclasses
import functools
import itertools
import math
import random
import tracemalloc

import pytest

from hermseq import complexity
from hermseq.bounds import bound
from hermseq.complexity import (
    PerVariable,
    TotalDegree,
    _exponents,
    complexity_profile,
    dense_reference,
    exists_recurrence,
    nonlinear_complexity,
)
from hermseq.field import FieldContext, SpanTracker, _ByteVectors, _LaneVectors
from hermseq.sequence import build_sequence
from hermseq.verify import check_field, check_sequence_layer, check_structure

from reference import dense_rank, enumerated_span_contains, monomial_columns


def _random_terms(ctx, rng, n):
    return tuple(rng.choice(ctx.elements) for _ in range(n))


# ---------------------------------------------------------------------------
# exists_recurrence
# ---------------------------------------------------------------------------

def test_last_window_always_feasible(f4):
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randrange(2, 7)
        t = _random_terms(f4, rng, n)
        for mode in (PerVariable(1), TotalDegree(1)):
            assert exists_recurrence(f4, t, n - 1, mode)


def test_impulse_tail_infeasible_below_top(f4):
    for n in range(3, 7):
        t = (f4.zero,) * (n - 1) + (f4.one,)
        for m in range(1, n - 1):
            for mode in (PerVariable(1), PerVariable(3), TotalDegree(2)):
                assert not exists_recurrence(f4, t, m, mode)


def test_constant_sequence_feasible_at_one(f4):
    t = (f4.epsilon,) * 5
    for mode in (PerVariable(1), TotalDegree(1)):
        assert exists_recurrence(f4, t, 1, mode)


def test_window_length_validated(f4):
    t = (f4.one, f4.zero, f4.one)
    with pytest.raises(ValueError):
        exists_recurrence(f4, t, 0, PerVariable(1))
    with pytest.raises(ValueError):
        exists_recurrence(f4, t, 3, PerVariable(1))


# ---------------------------------------------------------------------------
# nonlinear_complexity
# ---------------------------------------------------------------------------

def test_all_zero_is_zero(f4):
    t = (f4.zero,) * 4
    assert nonlinear_complexity(f4, t, PerVariable(1)) == 0
    assert nonlinear_complexity(f4, t, TotalDegree(2)) == 0


def test_single_term(f4):
    assert nonlinear_complexity(f4, (f4.one,), PerVariable(1)) == 1
    assert nonlinear_complexity(f4, (f4.zero,), PerVariable(1)) == 0


def test_impulse_is_n_minus_one(f4):
    t = (f4.zero, f4.zero, f4.zero, f4.one)
    assert nonlinear_complexity(f4, t, PerVariable(1)) == 3


def test_two_term_values(f4):
    # n = 2 never exceeds 1
    for t in itertools.product(f4.elements, repeat=2):
        res = nonlinear_complexity(f4, t, PerVariable(1))
        if all(v == f4.zero for v in t):
            assert res == 0
        else:
            assert res == 1


def test_degree_cap_at_field_size(f4):
    # exponents at or above q^2-1 add no new functions
    rng = random.Random(2)
    capped = PerVariable(f4.order - 1)
    for _ in range(10):
        t = _random_terms(f4, rng, 5)
        for big_k in (f4.order - 1, f4.order + 3, 2 * f4.order):
            assert nonlinear_complexity(f4, t, PerVariable(big_k)) == \
                nonlinear_complexity(f4, t, capped)


def test_cap_agrees_with_uncapped_oracle(f4):
    # the dense reference eliminates the raw, uncapped monomial basis
    rng = random.Random(3)
    for _ in range(15):
        t = _random_terms(f4, rng, 4)
        for k in (4, 5):
            assert exists_recurrence(f4, t, 1, PerVariable(k)) == \
                _reference(f4, t, 1, PerVariable(k))


def test_monotone_in_prefix_length(f4):
    rng = random.Random(4)
    modes = [PerVariable(1), PerVariable(2), TotalDegree(1), TotalDegree(2)]
    for _ in range(12):
        t = _random_terms(f4, rng, 6)
        for mode in modes:
            values = []
            for n in range(1, 7):
                res = nonlinear_complexity(f4, t[:n], mode)
                assert isinstance(res, int)
                values.append(res)
            assert values == sorted(values)


def test_feasibility_monotone_in_window_length(f4):
    # a window-m recurrence shifts to a window-(m+1) recurrence, so
    # feasibility can only switch from False to True as m grows; the
    # bound-verification route relies on this
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randrange(3, 7)
        t = _random_terms(f4, rng, n)
        for mode in (PerVariable(1), PerVariable(2), TotalDegree(1), TotalDegree(2)):
            flags = [exists_recurrence(f4, t, m, mode) for m in range(1, n)]
            assert flags == sorted(flags)


def test_total_degree_dominates_per_variable(f4):
    rng = random.Random(5)
    for _ in range(12):
        t = _random_terms(f4, rng, 6)
        for k in (1, 2):
            n_val = nonlinear_complexity(f4, t, PerVariable(k))
            l_val = nonlinear_complexity(f4, t, TotalDegree(k))
            assert l_val >= n_val


def test_nonincreasing_in_degree(f4):
    rng = random.Random(6)
    for _ in range(12):
        t = _random_terms(f4, rng, 6)
        for family in (PerVariable, TotalDegree):
            vals = [nonlinear_complexity(f4, t, family(k)) for k in (1, 2, 3)]
            assert vals[0] >= vals[1] >= vals[2]


def test_result_range(f4):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 7)
        t = _random_terms(f4, rng, n)
        res = nonlinear_complexity(f4, t, PerVariable(2))
        assert isinstance(res, int)
        assert 0 <= res <= max(n - 1, 1)
        assert (res == 0) == all(v == f4.zero for v in t)


def test_mode_validation():
    with pytest.raises(ValueError):
        PerVariable(0)
    with pytest.raises(ValueError):
        TotalDegree(-1)


def test_modes_are_frozen_values_of_their_own_kind():
    # the two modes share one k field and check, but stay distinct values
    assert repr(PerVariable(2)) == "PerVariable(k=2)"
    assert repr(TotalDegree(2)) == "TotalDegree(k=2)"
    assert PerVariable(2) == PerVariable(2) and PerVariable(2) != TotalDegree(2)
    assert len({PerVariable(2): 0, TotalDegree(2): 1}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        PerVariable(2).k = 3


# ---------------------------------------------------------------------------
# the dense reference (small deterministic slice; the bulk run is verify's
# oracle-agreement check)
# ---------------------------------------------------------------------------

def _reference(ctx, t, m, mode):
    """Does the dense reference span t[m:] by mode's whole monomial set?"""
    exponents = _exponents(m, isinstance(mode, PerVariable), mode.k)
    return dense_reference(ctx, t, m, exponents) is not None


def test_oracle_trivial_cases(f4):
    t = (f4.one, f4.epsilon, f4.one)
    assert dense_reference(f4, t, 2, _exponents(2, True, 1)) == 1   # m = n-1: the constant
    z = (f4.zero,) * 4
    assert dense_reference(f4, z, 1, _exponents(1, True, 1)) == 0   # zero polynomial


@pytest.mark.parametrize("m", [0, 3])
def test_oracle_refuses_a_window_outside_the_sequence(f4, m):
    with pytest.raises(ValueError, match=f"window length must be in 1..2, got {m}"):
        dense_reference(f4, (f4.one,) * 3, m, _exponents(m, True, 1))


@pytest.mark.parametrize("p", [2, 3])
def test_window_one_modes_agree(p):
    # at m = 1 both disciplines admit exactly 1, x, .., x^k, so each k has
    # one answer for both modes, from the reference and from the solver alike
    ctx = FieldContext(p, 1)
    rng = random.Random(60 + p)
    outcomes = set()
    for _ in range(30):
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        t = tuple(rng.choice(alphabet) for _ in range(rng.randrange(3, 8)))
        for k in (1, 2, 3):
            for answer in (_reference, exists_recurrence):
                got = answer(ctx, t, 1, PerVariable(k))
                assert got == answer(ctx, t, 1, TotalDegree(k)), (t, k, answer)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_oracle_admits_short_gf16_sequences():
    # nine monomials at m = 2 over GF(16)
    ctx = FieldContext(2, 2)
    rng = random.Random(16)
    outcomes = set()
    for _ in range(8):
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        t = tuple(rng.choice(alphabet) for _ in range(6))
        got = _reference(ctx, t, 2, PerVariable(2))
        assert got == exists_recurrence(ctx, t, 2, PerVariable(2)), t
        outcomes.add(got)
    assert outcomes == {True, False}


def test_oracle_matches_solver_spot(f4):
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(3, 6)
        t = _random_terms(f4, rng, n)
        m = rng.randrange(1, min(3, n))
        for mode in (PerVariable(1), TotalDegree(2)):
            assert exists_recurrence(f4, t, m, mode) == _reference(f4, t, m, mode)


# GF(9) and GF(4): the reference's arithmetic in odd characteristic too, up
# to 27 columns, with both outcomes in each field
@pytest.mark.parametrize("p,cases", [(3, 120), (2, 40)])
def test_oracle_matches_solver_random(p, cases):
    ctx = FieldContext(p, 1)
    rng = random.Random(40 + p)
    outcomes = set()
    for _ in range(cases):
        m = rng.randrange(1, 4)
        n = m + rng.randrange(2, 7)
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        t = tuple(rng.choice(alphabet) for _ in range(n))
        for mode in (PerVariable(1), PerVariable(2), TotalDegree(1), TotalDegree(2)):
            got = _reference(ctx, t, m, mode)
            assert got == exists_recurrence(ctx, t, m, mode), (t, m, mode)
            outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m,mode", [
    (3, PerVariable(1)), (2, PerVariable(2)), (3, TotalDegree(2)),
])
def test_oracle_admits_gf9_by_half_table(m, mode):
    # 8 to 10 columns over GF(9): 9^8 or more coefficient assignments, which
    # only a half-table split could enumerate; the reference eliminates
    # them directly and answers as the solver does, with both outcomes
    ctx = FieldContext(3, 1)
    rng = random.Random(70 + m)
    outcomes = set()
    for _ in range(15):
        alphabet = rng.sample(ctx.elements, 2)
        t = tuple(rng.choice(alphabet) for _ in range(m + rng.choice((2, 3))))
        got = _reference(ctx, t, m, mode)
        assert got == exists_recurrence(ctx, t, m, mode), (t, m, mode)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_reference_is_least_window_of_the_gf9_sequence(f9):
    # the constructed ell = 2 sequence over GF(9), 21 terms: at every prefix
    # the reference's least window up to 4 is complexity_profile's entry,
    # including PV(2) and TD(3) at m = 3 and 4 (27 to 81 columns)
    terms = build_sequence(f9, 2)
    assert len(terms) == 21
    checked = set()
    for mode in (PerVariable(1), PerVariable(2), TotalDegree(2), TotalDegree(3)):
        profile = complexity_profile(f9, terms, mode)
        for n in range(2, len(terms) + 1):
            least = next((m for m in range(1, min(4, n - 1) + 1)
                          if _reference(f9, terms[:n], m, mode)), None)
            assert least == (profile[n - 1] if profile[n - 1] <= 4 else None), (mode, n)
            checked.add((mode, least))
    # PV(2) and TD(3) need window 3, PV(1) and TD(2) windows 4 and 5
    assert {(PerVariable(2), 3), (TotalDegree(3), 3), (PerVariable(1), 4),
            (TotalDegree(2), 4), (PerVariable(1), None), (TotalDegree(2), None)} <= checked


def _enumerated(ctx, t, m, mode):
    """Whether some assignment of coefficients to the full monomial basis,
    tried one at a time, fits every window: no elimination at all."""
    return enumerated_span_contains(ctx, monomial_columns(ctx, t, m, mode), t[m:])


def test_reference_matches_enumeration_at_every_column_count(f4):
    # toy sizes over GF(4): the least c whose first c columns span t[m:],
    # read off enumerations of every c-column prefix, is the reference's
    rng = random.Random(44)
    answers = set()
    for _ in range(30):
        m = rng.randrange(1, 3)
        alphabet = rng.sample(f4.elements, rng.choice((2, 3, f4.order)))
        t = tuple(rng.choice(alphabet) for _ in range(m + rng.randrange(1, 4)))
        for mode in (PerVariable(1), TotalDegree(1), PerVariable(2)):
            if m == 2 and mode == PerVariable(2):
                continue  # nine columns: 4^9 assignments
            columns = monomial_columns(f4, t, m, mode)
            want = next((c for c in range(len(columns) + 1)
                         if enumerated_span_contains(f4, columns[:c], t[m:])), None)
            exponents = _exponents(m, isinstance(mode, PerVariable), mode.k)
            assert dense_reference(f4, t, m, exponents) == want, (t, m, mode)
            answers.add(want)
    assert {None, 0, 1, 2, 3} <= answers


def test_oracle_skips_dependent_columns():
    # over GF(9) with an alphabet of 2 the columns repeat or depend on each
    # other, so some reduce to zero and give no pivot; a constant sequence
    # makes every column a multiple of the first
    ctx = FieldContext(3, 1)
    rng = random.Random(81)
    cases = [(tuple([ctx.epsilon] * 5), 2, PerVariable(1))]
    for _ in range(12):
        alphabet = rng.sample(ctx.elements, 2)
        t = tuple(rng.choice(alphabet) for _ in range(rng.randrange(4, 7)))
        cases += [(t, 2, PerVariable(1)), (t, 1, PerVariable(2)), (t, 2, TotalDegree(1))]
    outcomes = set()
    for t, m, mode in cases:
        got = _reference(ctx, t, m, mode)
        assert got == _enumerated(ctx, t, m, mode), (t, m, mode)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_oracle_full_left_span():
    # per-variable k = 1 at m = 2 on four terms: two rows, and the leading
    # columns 1 and x_2 span all of F^2 when t_1 != t_2, so every target is
    # reached by them and the reference stops there
    ctx = FieldContext(3, 1)
    rng = random.Random(82)
    for _ in range(10):
        t = tuple(rng.choice(ctx.elements) for _ in range(4))
        if t[1] == t[2]:
            continue
        assert dense_reference(ctx, t, 2, _exponents(2, True, 1)) <= 2
        assert _enumerated(ctx, t, 2, PerVariable(1))


def test_oracle_builds_no_code_tables():
    # SpanTracker and the suffix chain both build the context's vector
    # form, so none built means the reference used neither: it shares no
    # arithmetic and no elimination with the solver
    ctx = FieldContext(3, 1)
    rng = random.Random(12)
    for _ in range(5):
        t = _random_terms(ctx, rng, 5)
        for mode in (PerVariable(1), TotalDegree(2)):
            _reference(ctx, t, 2, mode)
    assert ctx._vector_form is None


def test_oracle_computes_on_its_own_tables(monkeypatch):
    # every row and vector call of a fresh GF(9) refuses, and the reference
    # still answers as the solver does on another context: it computes on
    # the field's scalar tables alone, through ctx.mul, ctx.sub, ctx.inv
    # and ctx.pow, each of which it reaches
    ctx, solver_ctx = FieldContext(3, 1), FieldContext(3, 1)

    def refuse(*args):
        raise AssertionError("the reference called the solver's arithmetic")

    for name in ("mul_row", "sub_row", "add_rows", "log_row", "exp_row", "vector_form"):
        monkeypatch.setattr(ctx, name, refuse)
    calls = {}
    for name in ("mul", "sub", "inv", "pow"):
        def counted(*args, _name=name, _op=getattr(ctx, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _op(*args)
        monkeypatch.setattr(ctx, name, counted)
    rng = random.Random(9)
    for _ in range(10):
        t = _random_terms(ctx, rng, 5)
        for m, mode in ((1, PerVariable(2)), (2, TotalDegree(1)), (2, PerVariable(1)),
                        (2, TotalDegree(2))):
            assert _reference(ctx, t, m, mode) == exists_recurrence(solver_ctx, t, m, mode)
    assert set(calls) == {"mul", "sub", "inv", "pow"}
    assert ctx._vector_form is None


def test_curve_and_sequence_layers_build_no_code_tables():
    # the sequence and its checks run on the field's own arithmetic and
    # build no solver table
    ctx = FieldContext(2, 3)
    sequences = {ell: build_sequence(ctx, ell) for ell in (2, ctx.q)}
    assert check_field(ctx).passed and check_structure(ctx).passed
    assert all(result.passed for result in check_sequence_layer(ctx, sequences))
    assert ctx._vector_form is None


def _max_order_complexity(ctx, terms):
    """Least m >= 1 at which every length-m window has a single successor,
    0 for the all-zero sequence: the maximum-order complexity, found by
    comparing windows only."""
    if all(v == ctx.zero for v in terms):
        return 0
    m = 1
    while True:
        successor = {}
        if all(successor.setdefault(terms[i:i + m], terms[i + m]) == terms[i + m]
               for i in range(len(terms) - m)):
            return m
        m += 1


# GF(4), GF(9), GF(16)
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_full_degree_is_maximum_order_complexity(p, e):
    # PerVariable(q^2 - 1) admits every function F^m -> F (Jansen and
    # Boekee, CRYPTO '89), so its complexity is the maximum-order complexity
    ctx = FieldContext(p, e)
    rng = random.Random(p * 10 + e)
    mode = PerVariable(ctx.order - 1)
    assert nonlinear_complexity(ctx, (ctx.zero,) * 6, mode) == 0
    values = set()
    for _ in range(60):
        n = rng.randrange(1, 25)
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3)))
        t = tuple(rng.choice(alphabet) for _ in range(n))
        want = _max_order_complexity(ctx, t)
        assert nonlinear_complexity(ctx, t, mode) == want, t
        values.add(want)
    assert len(values) >= 4


def _reference_exists(ctx, terms, m, mode):
    """exists_recurrence rebuilt on scalar arithmetic: a recurrence exists
    iff appending the target column leaves the dense rank unchanged."""
    columns = monomial_columns(ctx, terms, m, mode)
    return dense_rank(ctx, columns) == dense_rank(ctx, columns + [terms[m:]])


# every layout class of the digit lanes: characteristic 2 up to GF(1024),
# odd p with e = 1 from GF(9) to GF(251^2), and GF(81)
@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (37, 1), (2, 1), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (2, 5), (11, 1), (251, 1)])
def test_engine_matches_dense_reference(p, e):
    ctx = FieldContext(p, e)
    rng = random.Random(p * 10 + e)
    outcomes = set()
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = m + rng.randrange(1, 13)
        # a small alphabet repeats windows, so consistency is decided by more
        # than the column count
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        t = tuple(rng.choice(alphabet) for _ in range(n))
        k = rng.randrange(1, 4)
        for mode in (PerVariable(k), TotalDegree(k)):
            got = exists_recurrence(ctx, t, m, mode)
            assert got == _reference_exists(ctx, t, m, mode), (t, m, mode)
            outcomes.add(got)
    assert outcomes == {True, False}


# one byte a lane over GF(9) and GF(16), two over GF(37^2)
@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (37, 1)])
def test_complexity_is_least_reference_window(p, e):
    # nonlinear_complexity reads complexity_profile's suffix chain rather
    # than calling exists_recurrence, so it is checked against the dense
    # reference here
    ctx = FieldContext(p, e)
    rng = random.Random(p * 100 + e)
    for mode_cls in (PerVariable, TotalDegree):
        assert nonlinear_complexity(ctx, (ctx.zero,) * 5, mode_cls(1)) == 0
    values = set()
    for _ in range(20):
        n = rng.randrange(1, 8)
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        t = tuple(rng.choice(alphabet) for _ in range(n))
        for mode in (PerVariable(rng.randrange(1, 4)), TotalDegree(rng.randrange(1, 4))):
            if all(v == ctx.zero for v in t):
                want = 0
            else:
                want = next((m for m in range(1, n)
                             if _reference_exists(ctx, t, m, mode)), 1)
            got = nonlinear_complexity(ctx, t, mode)
            assert got == want, (t, mode)
            values.add(got)
    assert {1, 2, 3} <= values


# one byte a lane over GF(4), GF(9), GF(16), GF(49), GF(64) and GF(256),
# two over GF(81)
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_spanned_prefix_is_longest_spanned_cut(p, e):
    # the largest R with target[:R] in the span of the columns cut to R
    # rows, by dense rank, in whatever order the columns are offered
    ctx = FieldContext(p, e)
    rng = random.Random(p * 1000 + e)
    values = set()
    for _ in range(40):
        rows = rng.randrange(1, 9)
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        cols = []
        for _ in range(rng.randrange(0, rows + 1)):
            # leading zeros spread the pivots down the rows
            lead = rng.randrange(rows)
            cols.append([ctx.zero] * lead
                        + [rng.choice(alphabet) for _ in range(rows - lead)])
        target = [ctx.zero] * rows
        for col in cols:
            c = rng.choice(ctx.elements)
            target = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(target, col)]
        if rng.random() < 0.7:  # knock one row out of the span, most likely
            row = rng.randrange(rows)
            target[row] = ctx.add(target[row], rng.choice(ctx.elements[1:]))
        for order in (cols, rng.sample(cols, len(cols))):
            # the residual is kept reduced on every offer, so the read
            # holds after each one, not only at the end
            tracker = SpanTracker(ctx, target)
            for i in range(len(order) + 1):
                if i:
                    tracker.offer(order[i - 1])
                want = max(r for r in range(rows + 1)
                           if dense_rank(ctx, [col[:r] for col in order[:i]])
                           == dense_rank(ctx, [col[:r] for col in order[:i]] + [target[:r]]))
                assert tracker.spanned_prefix() == want, (order[:i], target)
        values.add(want == rows)
    assert values == {True, False}


@pytest.mark.parametrize("p,e,form", [(2, 2, _ByteVectors), (5, 1, _ByteVectors),
                                      (7, 1, _ByteVectors), (2, 3, _ByteVectors),
                                      (3, 2, _LaneVectors), (11, 1, _LaneVectors),
                                      (2, 4, _LaneVectors), (2, 5, _LaneVectors),
                                      (3, 5, _LaneVectors), (251, 1, _LaneVectors)])
def test_field_picks_the_vector_form(p, e, form):
    # GF(16), GF(25), GF(49) and GF(64) solve in bytes, every larger field
    # in lanes of (lane bits, digit bits): the code in characteristic 2, 8
    # bits up to GF(256) and 16 above, and for odd p sub-lanes of 4 bits up
    # to p = 7, 8 up to 127 and 16 above, in the narrowest lane of 8, 16, 32
    # or 64 bits that holds all 2e digits; GF(64) and GF(81) sit on either
    # side of the order bound.  The byte form subclasses the lane form, so
    # only the exact type catches a silent fall-back to bytes
    ctx = FieldContext(p, e)
    t = (ctx.one, ctx.epsilon, ctx.zero, ctx.one, ctx.epsilon, ctx.one)
    assert not exists_recurrence(ctx, t, 2, TotalDegree(1))
    assert type(ctx._vector_form) is form
    lanes = {(2, 2): (8, 1), (5, 1): (8, 4), (7, 1): (8, 4), (2, 3): (8, 1),
             (3, 2): (16, 4), (11, 1): (16, 8), (2, 4): (8, 1), (2, 5): (16, 1),
             (3, 5): (64, 4), (251, 1): (32, 16)}
    assert (ctx._vector_form.bits, ctx._vector_form.w) == lanes[p, e]


def test_profile_memory_at_gf251_squared():
    # the vector form holds O(order) lists and each basis entry a few
    # tables, so the profile's peak stays small; row tables of the field's
    # square would take hundreds of MB.  The field, the sequence and
    # nothing of the solver are built before the traced section
    ctx = FieldContext(251, 1)
    terms = build_sequence(ctx, 2, length=20)[:20]
    tracemalloc.start()
    try:
        profile = complexity_profile(ctx, terms, PerVariable(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(profile) == 20
    assert peak < 50_000_000, peak


def test_exists_recurrence_stops_offering_once_spanned(f4, monkeypatch):
    # a step's stream stops at the column that spans its target when no
    # target disagrees, and a target spanned from the start is offered
    # nothing; a target that disagrees keeps the stream to full rank
    offers = {}  # tracker -> whether its target is spanned after each offer
    offer = SpanTracker.offer

    def counted(self, column):
        vec = offer(self, column)
        offers.setdefault(self, []).append(self.spanned_prefix() == self._rows)
        return vec

    monkeypatch.setattr(SpanTracker, "offer", counted)
    one, zero, eps = f4.one, f4.zero, f4.epsilon
    # the constant column x_1^0 spans a constant target, so x_1 is not offered
    assert exists_recurrence(f4, (one,) * 5, 1, PerVariable(1))
    assert list(offers.values()) == [[True]]
    offers.clear()
    assert exists_recurrence(f4, (one, zero, zero, zero), 1, PerVariable(1))
    assert offers == {}
    # window 2 disagrees (one -> zero after one -> one): x_1^0 spans the
    # points' target (one, one), and x_1 still goes in as the level's basis
    assert not exists_recurrence(f4, (eps, one, one, zero), 1, PerVariable(1))
    assert list(offers.values()) == [[True, True]]
    rng = random.Random(15)
    for _ in range(30):
        t = _random_terms(f4, rng, rng.randrange(3, 8))
        mode = rng.choice((PerVariable(1), TotalDegree(2)))
        m = max(nonlinear_complexity(f4, t, mode), 1)
        offers.clear()
        assert exists_recurrence(f4, t, m, mode)
        # the walk's steps below m cover less than t and each offer
        # something; its last covers t
        steps = list(offers.values())
        if any(t[m:]):
            assert len(steps) == m and steps[-1][-1] and not any(steps[-1][:-1]), (t, mode)
        else:
            assert len(steps) == m - 1, (t, mode)


def test_exists_recurrence_stops_at_the_first_window_that_covers(f4, monkeypatch):
    # a window-m' recurrence is a window-m one for m >= m', so the walk
    # answers True at the first m' <= m whose reach is all of t and builds
    # no level past it
    steps = []
    step = complexity._Chain.step
    monkeypatch.setattr(complexity._Chain, "step",
                        lambda self, ks: steps.append(ks) or step(self, ks))
    one, eps = f4.one, f4.epsilon
    # x -> x + one + eps swaps one and eps: a window-1 recurrence of degree 1
    assert exists_recurrence(f4, (one, eps) * 3, 4, PerVariable(1))
    assert len(steps) == 1
    rng = random.Random(36)
    for _ in range(30):
        n = rng.randrange(4, 9)
        t = _random_terms(f4, rng, n)
        mode = rng.choice((PerVariable(1), TotalDegree(2)))
        least = max(nonlinear_complexity(f4, t, mode), 1)
        for m in range(least, n):
            steps.clear()
            assert exists_recurrence(f4, t, m, mode), (t, mode, m)
            assert steps == [[mode.k]] * least, (t, mode, m)
        assert least == 1 or not _reference_exists(f4, t, least - 1, mode), (t, mode)


def _reference_reach(ctx, terms, m, mode):
    """The longest prefix that a window-m recurrence covers, by the dense
    reference; one window is always covered."""
    return next(n for n in range(len(terms), m, -1)
                if _reference_exists(ctx, terms[:n], m, mode))


def _disagreement(terms, m):
    """The first window j whose next term differs from that of an earlier
    equal window, or None."""
    seen = {}
    return next((j for j in range(len(terms) - m)
                 if seen.setdefault(terms[j:j + m], terms[j + m]) != terms[j + m]), None)


# one byte a lane over GF(4) and GF(9), two over GF(37^2)
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (37, 1)])
def test_reach_matches_reference_where_equal_windows_disagree(p, e):
    # on two- and three-letter alphabets equal windows with different next
    # terms are common, and the first one caps the step's reach at every
    # window length m where it decides it; the walk is cut short once it
    # covers t, and the reference covers t from there on
    ctx = FieldContext(p, e)
    rng = random.Random(p * 36 + e)
    capped = 0
    for _ in range(25):
        n = rng.randrange(4, 9)
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3)))
        t = tuple(rng.choice(alphabet) for _ in range(n))
        for mode in (PerVariable(rng.randrange(1, 3)), TotalDegree(rng.randrange(1, 4))):
            got = [step[mode.k] for step in complexity.reaches(ctx, t, type(mode), {mode.k: n - 1})]
            want = [_reference_reach(ctx, t, m, mode) for m in range(1, n)]
            assert got == want[:len(got)] and set(want[len(got) - 1:]) == {n}, (t, mode)
            capped += sum(got[m - 1] == m + _disagreement(t, m) for m in range(1, len(got) + 1)
                          if _disagreement(t, m) is not None)
    assert capped >= 50, capped


# one byte a lane over GF(4) and GF(9), two over GF(37^2); k runs above
# q^2 - 1 over the two small fields, where the reference can still list
# every monomial
@pytest.mark.parametrize("p,e,ks", [(2, 1, range(1, 7)), (3, 1, range(1, 11)),
                                    (37, 1, range(1, 5))])
def test_graded_walk_matches_reference_for_every_k(p, e, ks, monkeypatch):
    # one walk serves a random set of ks, each to a random top window:
    # every k's reach at every window it is served equals its own reference
    # reach, and a k leaves the walk at its top or once it covers t.
    # Random, periodic, field-cycle and quadratic-map sequences make both
    # in-level stops happen: full rank before the last product, and the
    # target spanned inside a degree block above a smaller k still served
    ctx = FieldContext(p, e)
    rng = random.Random(p * 37 + e)
    stops = {"full rank": 0, "spanned": 0}
    products, step = complexity._Chain.products, complexity._Chain.step

    def traced(self, points, top):
        self.stream = products(self, points, top)
        for self.last in self.stream:
            yield self.last

    def stepped(self, ks):
        self.stream = None
        reaches = step(self, ks)
        if self.stream is not None and next(self.stream, None) is not None:
            if len(self.basis) == len(set(self.at)):
                stops["full rank"] += 1
            elif self.last[0] > ks[0]:
                stops["spanned"] += 1
        return reaches

    monkeypatch.setattr(complexity._Chain, "products", traced)
    monkeypatch.setattr(complexity._Chain, "step", stepped)
    for _ in range(80):
        n = rng.randrange(3, 9)
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        t = [rng.choice(alphabet) for _ in range(n)]
        if rng.random() < 0.3:
            period = rng.randrange(1, 4)
            t = [t[i % period] for i in range(n)]
        elif ctx.order < 16 and rng.random() < 0.5:
            # t_{i+1} = f(t_i) for f a cycle through the field: of degree at
            # most order - 2, so it is spanned short of full rank
            cycle = rng.sample(ctx.elements, ctx.order)
            t = [cycle[i % ctx.order] for i in range(ctx.order + 2)]
        elif rng.random() < 0.5:  # t_{i+1} = f(t_i), f of degree 2
            f = [rng.choice(ctx.elements) for _ in range(3)]
            for i in range(1, n):
                x = t[i - 1]
                t[i] = functools.reduce(ctx.add, map(ctx.mul, f, (ctx.one, x, ctx.mul(x, x))))
        t, n = tuple(t), len(t)
        for kind in (PerVariable, TotalDegree):
            tops = {k: rng.randrange(1, min(n - 1, 3) + 1)
                    for k in rng.sample(ks, rng.randrange(2, 4))}
            got = {k: [] for k in tops}
            for m, reaches in enumerate(complexity.reaches(ctx, t, kind, tops), 1):
                for k, reach in reaches.items():
                    assert len(got[k]) == m - 1, (t, kind, tops)
                    got[k].append(reach)
            for k, reach in got.items():
                want = [_reference_reach(ctx, t, m, kind(k)) for m in range(1, tops[k] + 1)]
                covers = want.index(n) + 1 if n in want else tops[k]
                assert reach == want[:covers], (t, kind, k, tops)
    assert min(stops.values()) >= 15, stops


def _reference_profile(ctx, terms, mode):
    """Least reference window of every prefix, 0 while it is all zero."""
    profile = []
    for n in range(1, len(terms) + 1):
        if all(v == ctx.zero for v in terms[:n]):
            profile.append(0)
        else:
            profile.append(next((m for m in range(1, n)
                                 if _reference_exists(ctx, terms[:n], m, mode)), 1))
    return profile


# one byte a lane over GF(9) and GF(16), two over GF(37^2)
@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (37, 1)])
def test_profile_matches_reference_at_every_prefix(p, e):
    ctx = FieldContext(p, e)
    rng = random.Random(p * 10000 + e)
    for mode_cls in (PerVariable, TotalDegree):
        assert complexity_profile(ctx, (), mode_cls(1)) == []
        assert complexity_profile(ctx, (ctx.zero,) * 4, mode_cls(1)) == [0] * 4
        assert complexity_profile(ctx, (ctx.epsilon,), mode_cls(1)) == [1]
    values = set()
    for _ in range(25):
        n = rng.randrange(1, 11)
        alphabet = rng.sample(ctx.elements, rng.choice((2, 3, ctx.order)))
        t = (ctx.zero,) * rng.choice((0, 0, 1, 2)) + tuple(
            rng.choice(alphabet) for _ in range(n))
        for mode in (PerVariable(rng.randrange(1, 3)), TotalDegree(rng.randrange(1, 4))):
            got = complexity_profile(ctx, t, mode)
            assert got == _reference_profile(ctx, t, mode), (t, mode)
            values.update(got)
    assert {0, 1, 2, 3} <= values


@pytest.mark.parametrize("mode", [PerVariable(1), TotalDegree(2)])
def test_profile_matches_exists_recurrence_at_q5(mode):
    # exists_recurrence builds its chain on the cut prefix, so this checks
    # the profile's one chain on the whole sequence independently.  The
    # profile ascends, and feasibility at a window length only shrinks as
    # the prefix grows, so the two prefixes either side of each step fix
    # the least feasible window at every n
    ctx = FieldContext(5)
    seq = build_sequence(ctx, 5)
    profile = complexity_profile(ctx, seq, mode)
    assert len(profile) == len(seq) == 115
    assert profile[0] == 1 and profile == sorted(profile)
    for m in range(1, profile[-1] + 1):
        reach = sum(v <= m for v in profile)  # longest prefix feasible at m
        assert exists_recurrence(ctx, seq[:reach], m, mode), (m, reach)
        if reach < len(seq):
            assert not exists_recurrence(ctx, seq[:reach + 1], m, mode), (m, reach)
    assert nonlinear_complexity(ctx, seq, mode) == profile[-1]


def test_per_variable_bound_proof_at_q7():
    # at q = 7 the bound proof needs window 23, which has 2^23 monomials of
    # degree <= 1 per variable; the suffix chain stays polynomial
    ctx = FieldContext(7)
    seq = build_sequence(ctx, 7)
    n = len(seq)
    m = math.ceil(bound("N_collinear", q=7, k=1, ell=7, n=n)) - 1
    assert (n, m) == (329, 23)
    assert not exists_recurrence(ctx, seq, m, PerVariable(1))


# ---------------------------------------------------------------------------
# linear complexity
# ---------------------------------------------------------------------------

def linear_complexity(ctx, t):
    """Length of the shortest homogeneous linear recurrence generating t,
    by the classical iterative synthesis algorithm."""
    terms = tuple(t)
    n = len(terms)
    zero, one = ctx.zero, ctx.one
    conn = [one]          # connection polynomial, constant term first
    prev = [one]
    length = 0
    shift = 1
    last_disc = one
    for i in range(n):
        disc = terms[i]
        for j in range(1, length + 1):
            if j < len(conn) and conn[j] != zero:
                disc = ctx.add(disc, ctx.mul(conn[j], terms[i - j]))
        if disc == zero:
            shift += 1
            continue
        coef = ctx.mul(disc, ctx.inv(last_disc))
        update = list(conn)
        needed = len(prev) + shift
        if len(update) < needed:
            update.extend([zero] * (needed - len(update)))
        for idx, pv in enumerate(prev):
            update[idx + shift] = ctx.sub(update[idx + shift], ctx.mul(coef, pv))
        if 2 * length <= i:
            prev = conn
            last_disc = disc
            length = i + 1 - length
            shift = 1
        else:
            shift += 1
        conn = update
    return length


def _brute_linear_complexity(ctx, terms):
    """Least m whose shifted windows combine into terms[m:], by trying every
    coefficient tuple; n if none does."""
    n = len(terms)
    if all(v == ctx.zero for v in terms):
        return 0
    return next((m for m in range(1, n) if enumerated_span_contains(
        ctx, [terms[j:n - m + j] for j in range(m)], terms[m:])), n)


def test_linear_complexity_zero(f4):
    assert linear_complexity(f4, (f4.zero,) * 5) == 0


def test_linear_complexity_impulse(f4):
    for n in (2, 3, 4, 5):
        t = (f4.zero,) * (n - 1) + (f4.one,)
        assert linear_complexity(f4, t) == n
        assert _brute_linear_complexity(f4, t) == n


def test_linear_complexity_matches_brute(f4):
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randrange(1, 6)
        t = _random_terms(f4, rng, n)
        assert linear_complexity(f4, t) == _brute_linear_complexity(f4, t)


def test_affine_degree_one_sandwich(f4):
    # L(t) >= complexity under TotalDegree(1) >= L(t) - 1
    rng = random.Random(11)
    cases = [_random_terms(f4, rng, rng.randrange(2, 7)) for _ in range(15)]
    cases.append(build_sequence(f4, 2))
    for t in cases:
        lin = linear_complexity(f4, t)
        res = nonlinear_complexity(f4, t, TotalDegree(1))
        assert isinstance(res, int)
        assert lin >= res >= lin - 1
