import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from hermseq.field import (
    FieldContext,
    SpanTracker,
    _ByteVectors,
    _LaneVectors,
    _is_irreducible,
    _is_prime,
    _pmul,
    element_from_str,
    element_names,
    element_to_str,
)

from reference import dense_rank, enumerated_span_contains


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_f4_modulus_and_epsilon(f4):
    # z^2 + z + 1 is the only irreducible quadratic over F_2
    assert f4.modulus == (1, 1, 1)
    # epsilon = z, the smallest element of order 3
    assert f4.coeffs(f4.epsilon) == (0, 1)
    assert f4.multiplicative_order(f4.epsilon) == 3


def test_f9_epsilon_order_exhaustive(f9):
    # every nonzero element's order divides 8; epsilon must hit 8 exactly
    orders = {a: f9.multiplicative_order(a) for a in f9.elements if a != f9.zero}
    assert f9.multiplicative_order(f9.epsilon) == 8
    # and it is the canonically smallest element of order 8
    smallest = min(a for a, o in orders.items() if o == 8)
    assert f9.epsilon == smallest


@pytest.mark.parametrize("p,e,modulus,epsilon", [
    (2, 1, (1, 1, 1), (0, 1)),
    (3, 1, (1, 0, 1), (1, 1)),
    (2, 2, (1, 0, 0, 1, 1), (0, 0, 1, 0)),
    (2, 5, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), (0,) * 8 + (1, 0)),
    (7, 2, (1, 0, 0, 1, 1), (0, 0, 1, 5)),
    (3, 4, (1, 0, 0, 0, 0, 1, 1, 0, 1), (0,) * 6 + (1, 1)),
    (2, 7, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1), (0,) * 11 + (1, 1, 1)),
    (5, 3, (1, 0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 1, 1)),
])
def test_default_modulus_and_epsilon_pinned(p, e, modulus, epsilon):
    # the smallest irreducible and the smallest primitive element fix every
    # CSV value, so the choice must not drift
    ctx = FieldContext(p, e)
    assert ctx.modulus == modulus
    assert ctx.coeffs(ctx.epsilon) == epsilon


@pytest.mark.parametrize("p,e", [(2, 1), (2, 5), (3, 3), (5, 2), (7, 2)])
def test_power_walk_matches_raw_mul(p, e):
    # the set-up walks epsilon's powers as one F_p-linear map per step; the
    # reference multiplies coefficient tuples by epsilon with _raw_mul, a
    # polynomial product and reduction, and encodes each power
    ctx = FieldContext(p, e)
    n, epsilon, power = ctx.order - 1, ctx.coeffs(ctx.epsilon), ctx.coeffs(ctx.one)
    powers = []
    for _ in range(n):
        powers.append(ctx.element(power))
        power = ctx._raw_mul(power, epsilon)
    assert power == ctx.coeffs(ctx.one)
    assert ctx.exp_row(range(n)) == powers
    # log inverts exp on the units, and exp is a permutation of them
    units = ctx.elements[1:]
    assert ctx.log_row(powers) == list(range(n))
    assert ctx.exp_row(ctx.log_row(units)) == list(units)


@pytest.mark.parametrize("p,e", [(2, e) for e in range(1, 9)] + [(3, e) for e in range(1, 6)]
                         + [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (13, 2), (251, 1)])
def test_modulus_search_matches_exhaustive_walk(p, e):
    # the search skips the tails with constant term 0; the reference walks
    # every tail in lexicographic order and keeps the first irreducible
    def exhaustive(d):
        for tail in itertools.product(range(p), repeat=d):
            if _is_irreducible(list(tail) + [1], p):
                return tuple(tail) + (1,)

    field = SimpleNamespace(p=p, degree=2 * e)
    assert FieldContext._smallest_irreducible(field) == exhaustive(2 * e)


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_is_irreducible_matches_product_enumeration(p, top):
    # a monic polynomial is reducible iff it is the product of two monics
    # of positive degree; list every such product and compare
    def monics(d):
        return [list(tail) + [1] for tail in itertools.product(range(p), repeat=d)]

    for d in range(1, top + 1):
        reducible = {tuple(_pmul(a, b, p))
                     for i in range(1, d // 2 + 1)
                     for a in monics(i) for b in monics(d - i)}
        for f in monics(d):
            assert _is_irreducible(f, p) == (tuple(f) not in reducible), f


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FieldContext(4, 1)


def test_is_prime_matches_trial_division():
    for n in range(10 ** 5):
        want = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert _is_prime(n) == want, n
    # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5
    # and 7, and the least one to the first 12 primes (so 12 bases miss it)
    for n in (561, 3215031751, 318665857834031151167461):
        assert not _is_prime(n)
    # above 3.3e24 the 13 bases no longer decide; 2^89 - 1 is refused
    with pytest.raises(ValueError, match="too large"):
        _is_prime(2 ** 89 - 1)


def test_field_too_large_rejected():
    with pytest.raises(ValueError, match="too many to tabulate"):
        FieldContext(257, 1)          # 257^2 = 66049 elements
    with pytest.raises(ValueError, match="too many to tabulate"):
        FieldContext(2, 10 ** 9)      # refused before 2^(2e) is computed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too many to tabulate"):
        FieldContext(2 ** 61 - 1)     # prime, refused before trial division
    assert time.perf_counter() - start < 1.0


def test_reducible_modulus_rejected():
    # z^2 + 1 = (z+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldContext(2, 1, modulus=[1, 0, 1])


def test_user_modulus_accepted():
    ctx = FieldContext(2, 1, modulus=[1, 1, 1])
    assert ctx.modulus == FieldContext(2, 1).modulus


def test_non_monic_modulus_is_made_monic():
    # 2z^2 + 2 over F_3 is twice z^2 + 1
    assert FieldContext(3, 1, (2, 0, 2)).modulus == (1, 0, 1)


def test_zero_extension_degree_rejected():
    with pytest.raises(ValueError, match="extension degree must be >= 1, got 0"):
        FieldContext(2, 0)


def test_bad_degree_modulus_rejected():
    with pytest.raises(ValueError):
        FieldContext(2, 1, modulus=[1, 1, 1, 1])


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_f4_products(f4):
    z = f4.epsilon
    z1 = f4.add(z, f4.one)
    assert f4.mul(z, z) == z1          # z*z = z+1
    assert f4.inv(z) == z1             # z*(z+1) = 1
    assert f4.mul(z, z1) == f4.one


def test_pow_zero_exponent(f4, f9):
    for ctx in (f4, f9):
        for a in ctx.elements:
            if a != ctx.zero:
                assert ctx.pow(a, 0) == ctx.one


def test_inv_zero_raises(f4):
    with pytest.raises(ZeroDivisionError):
        f4.inv(f4.zero)
    with pytest.raises(ZeroDivisionError):
        f4.pow(f4.zero, -1)


def test_zero_has_no_multiplicative_order(f4):
    with pytest.raises(ValueError, match="zero has no multiplicative order"):
        f4.multiplicative_order(f4.zero)


def test_element_refuses_too_many_coefficients(f9):
    assert f9.coeffs(f9.element([1, 2])) == (1, 2)
    with pytest.raises(ValueError, match="longer than field degree 2"):
        f9.element([1, 2, 0])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_add_sub_match_coefficient_arithmetic(p, e):
    # digitwise sums of the coefficients are the reference: they share
    # nothing with the Zech table behind add, sub and neg
    ctx = FieldContext(p, e)
    coeffs = [ctx.coeffs(a) for a in ctx.elements]
    for a, b in itertools.product(ctx.elements, repeat=2):
        ca, cb = coeffs[a], coeffs[b]
        assert ctx.add(a, b) == ctx.element(x + y for x, y in zip(ca, cb))
        assert ctx.sub(a, b) == ctx.element(x - y for x, y in zip(ca, cb))
    for a in ctx.elements:
        assert ctx.neg(a) == ctx.element(-x for x in coeffs[a])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_field_axioms_exhaustive(p, e):
    ctx = FieldContext(p, e)
    els = ctx.elements
    for a in els:
        assert ctx.add(a, ctx.zero) == a
        assert ctx.mul(a, ctx.one) == a
        assert ctx.add(a, ctx.neg(a)) == ctx.zero
        if a != ctx.zero:
            assert ctx.mul(a, ctx.inv(a)) == ctx.one
    for a, b in itertools.product(els, repeat=2):
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_unit_group_order_exhaustive():
    # a^(q^2-1) == 1 for every nonzero a, q <= 5
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        ctx = FieldContext(p, e)
        for a in ctx.elements:
            if a != ctx.zero:
                assert ctx.pow(a, ctx.order - 1) == ctx.one


# ---------------------------------------------------------------------------
# trace / norm / fiber
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# integer codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (3, 2)])
def test_whole_rows_match_scalar_arithmetic(p, e):
    # mul_row against ctx.mul, add_rows against ctx.add, sub_row against
    # coefficient-wise subtraction, for every a; log_row and exp_row against
    # pow on epsilon
    ctx = FieldContext(p, e)
    coeffs = [ctx.coeffs(b) for b in ctx.elements]
    for a in ctx.elements:
        assert ctx.mul_row(a) == [ctx.mul(a, b) for b in ctx.elements]
        assert ctx.add_rows([a] * ctx.order, ctx.elements) == [
            ctx.add(a, b) for b in ctx.elements]
        assert ctx.sub_row(a) == [ctx.element(x - y for x, y in zip(coeffs[a], cb))
                                  for cb in coeffs]
    n, units = ctx.order - 1, ctx.elements[1:]
    logs = ctx.log_row(units)
    assert [ctx.pow(ctx.epsilon, s) for s in logs] == list(units)
    assert ctx.log_row([ctx.zero]) == [None]
    # any integer is a log: exp_row reduces it mod q^2 - 1
    assert ctx.exp_row([s - 3 * n for s in logs]) == list(units)
    assert ctx.exp_row([s + 2 * n for s in logs]) == list(units)


def test_whole_rows_share_one_int_per_code():
    # the oracle's tables and the sequence builder read rows of 1,024
    # entries over GF(1024), so every row reads its entries from one int
    # object per code
    ctx = FieldContext(2, 5)
    identity = ctx.mul_row(ctx.one)
    assert identity == list(ctx.elements)
    rows = [ctx.mul_row(a) for a in (2, 700)] + [ctx.sub_row(a) for a in (0, 513)]
    for row in rows + [ctx.add_rows(rows[1], rows[3])]:  # add_rows: XOR of codes
        assert all(c is identity[c] for c in row)


def test_coeffs_walk_elements_in_product_order(f9):
    # an element is its code: canonical order is int order, and element()
    # inverts coeffs()
    for ctx in (f9, FieldContext(2, 2), FieldContext(3, 2)):
        assert ctx.elements == range(ctx.order)
        assert ctx.zero == 0
        walk = [ctx.coeffs(a) for a in ctx.elements]
        assert walk == list(itertools.product(range(ctx.p), repeat=ctx.degree))
        assert [ctx.element(c) for c in walk] == list(ctx.elements)
        assert walk[ctx.one] == (1,) + (0,) * (ctx.degree - 1)


# the byte fields, and one field of each lane layout past the order bound
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (11, 1),
                                 (3, 2), (2, 4), (2, 5), (251, 1)])
def test_monomial_columns_match_scalar_products(p, e):
    # up to 121 elements every x_1 code, 0 included, meets every code in two
    # basis rows; zero's log is a mark the exp table reads as zero, and
    # GF(64) reaches the byte form's largest sum of two logs, 62 + 62.
    # Larger fields sample x_1 and rows that hold 0, -1 and the element
    # whose digits are all p - 1.  A basis row comes in the form's layout
    # as SpanTracker.offer returns it: one at row 0 keeps it unscaled
    ctx = FieldContext(p, e)
    form, top, rng = ctx.vector_form(), 3, random.Random(p * e)
    small = ctx.order <= 121
    xs = ctx.elements if small else [0] + rng.sample(ctx.elements[1:], 40)
    tail = list(ctx.elements) if small else [ctx.zero, ctx.neg(ctx.one), ctx.order - 1] + \
        rng.choices(ctx.elements, k=8)
    hs = [[ctx.one] + tail, [ctx.one] + tail[::-1]]
    rows = [SpanTracker(ctx, [ctx.zero] * len(h)).offer(h) for h in hs]
    points = [(x, s) for x in xs for s in range(len(tail) + 1)]
    column = form.monomials(points, top, rows)
    for a, j in itertools.product(range(top + 1), range(len(hs))):
        want = [ctx.mul(ctx.pow(x, a), hs[j][s]) for x, s in points]
        assert column(a, j) == form.vector(want), (a, j)


# every field of at most 64 elements
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])
def test_byte_form_is_the_one_byte_lane_form(p, e):
    # the byte form computes in the lane layout's one-byte case, so on one
    # seeded column stream both forms give equal vector ints, equal insert
    # triples (basis bytes, residual, first row) and equal product columns
    # on the basis rows they return; a drift of either layout shows here
    ctx, rows = FieldContext(p, e), 12
    rng = random.Random(ctx.order)
    forms = _ByteVectors(ctx), _LaneVectors(ctx)
    target = [rng.choice(ctx.elements) for _ in range(rows)]
    states = [([], form.vector(target), form.first(form.vector(target), rows))
              for form in forms]
    hs, outcomes = [], set()
    for _ in range(40):
        # a few zero rows, so pivots fall below row 0
        column = [rng.choice(ctx.elements) if rng.random() < 0.7 else ctx.zero
                  for _ in range(rows)]
        vectors = [form.vector(column) for form in forms]
        assert vectors[0] == vectors[1]
        got = [form.insert(basis, vec, rows, residual, first)
               for form, (basis, residual, first), vec in zip(forms, states, vectors)]
        assert got[0] == got[1]
        states = [(basis, residual, first) for (basis, _, _), (_, residual, first)
                  in zip(states, got)]
        outcomes.add(got[0][0] is None)
        if got[0][0] is not None:
            hs.append(got[0][0])
    assert outcomes == {True, False}
    points = [(rng.choice(ctx.elements), rng.randrange(rows)) for _ in range(30)]
    columns = [form.monomials(points, 3, hs) for form in forms]
    for a, j in itertools.product(range(4), range(len(hs))):
        assert columns[0](a, j) == columns[1](a, j), (a, j)


# lanes of one byte over GF(16) and GF(49), of two over GF(81)
@pytest.mark.parametrize("p,e", [(2, 2), (7, 1), (3, 2)])
def test_construction_builds_no_solver_tables(p, e):
    ctx = FieldContext(p, e)
    assert ctx._vector_form is None
    assert ctx.vector_form() is ctx.vector_form()


def test_rel_trace_examples(f4):
    z = f4.epsilon
    assert f4.rel_trace(z) == f4.one        # z^2 + z = 1
    assert f4.rel_trace(f4.zero) == f4.zero


def test_trace_norm_land_in_subfield():
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        ctx = FieldContext(p, e)
        for a in ctx.elements:
            t = ctx.rel_trace(a)
            n = ctx.rel_norm(a)
            assert ctx.pow(t, ctx.q) == t
            assert ctx.pow(n, ctx.q) == n


def test_rel_norm_examples(f4, f9):
    z = f4.epsilon
    assert f4.rel_norm(z) == f4.one          # z^3 = 1
    assert f4.rel_norm(f4.one) == f4.one
    n = f9.rel_norm(f9.epsilon)              # epsilon^4, an element of F_3
    assert n == f9.pow(f9.epsilon, 4)
    assert f9.coeffs(n)[1] == 0               # prime-field element


def test_fiber_examples(f4):
    z = f4.epsilon
    z1 = f4.add(z, f4.one)
    assert f4.hermitian_fiber(f4.one) == (z, z1)
    assert f4.hermitian_fiber(f4.zero) == (f4.zero, f4.one)


def test_fiber_partitions_curve():
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        ctx = FieldContext(p, e)
        total = 0
        for a in ctx.elements:
            fiber = ctx.hermitian_fiber(a)
            assert len(fiber) == ctx.q
            assert len(set(fiber)) == ctx.q
            assert fiber == tuple(sorted(fiber))
            for b in fiber:
                assert ctx.rel_trace(b) == ctx.rel_norm(a)
            total += len(fiber)
        assert total == ctx.q ** 3


# ---------------------------------------------------------------------------
# streamed linear solver
# ---------------------------------------------------------------------------

def _streamed_consistent(columns, target, ctx):
    """Stream the columns into a SpanTracker until the target is spanned."""
    tracker = SpanTracker(ctx, target)
    for col in columns:
        if tracker.spanned_prefix() == len(target):
            break
        tracker.offer(col)
    return tracker.spanned_prefix() == len(target)


def test_solver_standard_basis(layouts):
    for ctx in layouts:
        cols = [
            [ctx.one, ctx.zero, ctx.zero],
            [ctx.zero, ctx.one, ctx.zero],
            [ctx.zero, ctx.zero, ctx.one],
        ]
        target = [ctx.epsilon, ctx.one, ctx.add(ctx.epsilon, ctx.one)]
        assert _streamed_consistent(cols, target, ctx)


def test_solver_zero_column_inconsistent(layouts):
    for ctx in layouts:
        assert not _streamed_consistent([[ctx.zero, ctx.zero]], [ctx.one, ctx.zero], ctx)


def test_solver_zero_target_trivially_consistent(layouts):
    for ctx in layouts:
        assert _streamed_consistent([], [ctx.zero, ctx.zero], ctx)


def test_solver_dimension_mismatch(layouts):
    for ctx in layouts:
        with pytest.raises(ValueError):
            _streamed_consistent([[ctx.one]], [ctx.one, ctx.zero], ctx)


def test_solver_against_dense_oracle_f9(f9):
    ctx = f9
    rng = random.Random(20240917)
    for _ in range(40):
        rows, cols = 5, 8
        columns = [[rng.choice(ctx.elements) for _ in range(rows)] for _ in range(cols)]
        target = [rng.choice(ctx.elements) for _ in range(rows)]
        assert (_streamed_consistent(columns, target, ctx)
                == (dense_rank(ctx, columns) == dense_rank(ctx, columns + [target])))


def test_row_op_at_every_pivot_of_a_full_basis(layout):
    # basis vector i is one at row i and a heavy entry (every digit p - 1,
    # or random) at the last row, so a column with no zero row takes a row
    # op at every one of its 40 pivots, and its last row sums them all: a
    # lane that overflows or a digit left unreduced mod p shows there
    ctx, rows = layout, 41
    rng = random.Random(layout.order)
    heavy = [ctx.order - 1, ctx.neg(ctx.one)] + rng.sample(ctx.elements[1:], min(6, ctx.order - 1))
    basis = [[ctx.zero] * i + [ctx.one] + [ctx.zero] * (rows - 2 - i) + [rng.choice(heavy)]
             for i in range(rows - 1)]
    column = [rng.choice(heavy) for _ in range(rows)]
    for target in (column, [ctx.zero] * (rows - 1) + [ctx.one]):
        tracker = SpanTracker(ctx, target)
        for col in basis + [column]:
            tracker.offer(col)
        assert tracker.rank == dense_rank(ctx, basis + [column])
        assert ((tracker.spanned_prefix() == rows)
                == (dense_rank(ctx, basis + [column])
                    == dense_rank(ctx, basis + [column, target])))
    # the last row of the column's residual, by scalar arithmetic
    last = column[-1]
    for i in range(rows - 1):
        last = ctx.sub(last, ctx.mul(column[i], basis[i][-1]))
    assert tracker.rank == rows - (last == ctx.zero)


def test_solver_against_span_enumeration_f4_exhaustive_2x2(f4):
    els = f4.elements
    for c1 in itertools.product(els, repeat=2):
        for c2 in itertools.product(els, repeat=2):
            columns = [list(c1), list(c2)]
            for target in itertools.product(els, repeat=2):
                assert (_streamed_consistent(columns, list(target), f4)
                        == enumerated_span_contains(f4, columns, target))


def test_solver_against_span_enumeration_f4_sampled_3x3(f4):
    rng = random.Random(7)
    for _ in range(300):
        columns = [[rng.choice(f4.elements) for _ in range(3)] for _ in range(3)]
        target = [rng.choice(f4.elements) for _ in range(3)]
        assert (_streamed_consistent(columns, target, f4)
                == enumerated_span_contains(f4, columns, target))


def test_tracker_early_exit(layouts):
    # offer keeps what a column adds, scaled to 1 at its pivot, and returns
    # None for a column in the span; a caller stops its stream on
    # spanned_prefix, which reads the target spanned after one column here
    for ctx in layouts:
        one, zero = ctx.one, ctx.zero
        tracker = SpanTracker(ctx, [one, one])
        assert tracker.spanned_prefix() == 0
        kept = tracker.offer([ctx.epsilon, ctx.epsilon])
        assert int.from_bytes(kept, "big") == ctx.vector_form().vector([one, one])
        assert (tracker.spanned_prefix(), tracker.rank) == (2, 1)
        assert tracker.offer([one, one]) is None
        assert tracker.offer([one, zero]) is not None
        assert (tracker.spanned_prefix(), tracker.rank) == (2, 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_element_round_trip(f9):
    for a in f9.elements:
        assert element_from_str(element_to_str(a, f9), f9) == a


def test_element_str_is_low_degree_first(f4):
    assert element_to_str(f4.epsilon, f4) == "0:1"
    assert element_to_str(f4.one, f4) == "1:0"


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (3, 2), (11, 1), (2, 5)])
def test_element_names_in_code_order(p, e):
    # GF(121) has two-digit coefficients
    ctx = FieldContext(p, e)
    assert element_names(ctx) == [element_to_str(c, ctx) for c in ctx.elements]


def test_bad_element_string(f4):
    # a coefficient outside 0..p-1 is refused, not reduced mod p, and so is
    # a vector shorter or longer than the field degree, not padded
    for text in ("x:y", "2:1", "1", "1:0:0"):
        with pytest.raises(ValueError, match="bad element string"):
            element_from_str(text, f4)
