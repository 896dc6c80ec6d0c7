import itertools
import random
import time

import pytest

from hermseq.field import (
    FieldContext,
    SpanTracker,
    element_from_str,
    element_to_str,
)


@pytest.fixture(scope="module")
def f4():
    return FieldContext(2, 1)


@pytest.fixture(scope="module")
def f9():
    return FieldContext(3, 1)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_f4_modulus_and_epsilon(f4):
    # z^2 + z + 1 is the only irreducible quadratic over F_2
    assert f4.modulus == (1, 1, 1)
    # epsilon = z, the smallest element of order 3
    assert f4.epsilon == (0, 1)
    assert f4.multiplicative_order(f4.epsilon) == 3


def test_f9_epsilon_order_exhaustive(f9):
    # every nonzero element's order divides 8; epsilon must hit 8 exactly
    orders = {a: f9.multiplicative_order(a) for a in f9.elements if a != f9.zero}
    assert f9.multiplicative_order(f9.epsilon) == 8
    # and it is the canonically smallest element of order 8
    smallest = min(a for a, o in orders.items() if o == 8)
    assert f9.epsilon == smallest


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FieldContext(4, 1)


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
    assert ctx == FieldContext(2, 1)


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
    assert n[1] == 0                          # prime-field element


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

def _dense_consistent(columns, target, ctx):
    """Independent dense Gaussian elimination on the full matrix."""
    rows = len(target)
    cols = len(columns)
    mat = [[columns[c][r] for c in range(cols)] + [target[r]] for r in range(rows)]
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if mat[r][col] != ctx.zero), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        scale = ctx.inv(mat[rank][col])
        mat[rank] = [ctx.mul(scale, v) for v in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][col] != ctx.zero:
                f = mat[r][col]
                mat[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(mat[r], mat[rank])]
        rank += 1
    for r in range(rank, rows):
        if any(v != ctx.zero for v in mat[r][:cols]):
            continue
        if mat[r][cols] != ctx.zero:
            return False
    # rows below rank have zero coefficient part after full reduction
    for r in range(rows):
        if all(v == ctx.zero for v in mat[r][:cols]) and mat[r][cols] != ctx.zero:
            return False
    return True


def _span_enumeration_consistent(columns, target, ctx):
    """Ground truth by enumerating every coefficient combination."""
    rows = len(target)
    for combo in itertools.product(ctx.elements, repeat=len(columns)):
        acc = [ctx.zero] * rows
        for c, col in zip(combo, columns):
            if c != ctx.zero:
                acc = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(acc, col)]
        if tuple(acc) == tuple(target):
            return True
    return False


def _streamed_consistent(columns, target, ctx):
    """Stream the columns into a SpanTracker until the target is spanned."""
    tracker = SpanTracker(ctx, target)
    return tracker.consistent or any(tracker.offer(col) for col in columns)


def test_solver_standard_basis(f4):
    cols = [
        [f4.one, f4.zero, f4.zero],
        [f4.zero, f4.one, f4.zero],
        [f4.zero, f4.zero, f4.one],
    ]
    target = [f4.epsilon, f4.one, f4.add(f4.epsilon, f4.one)]
    assert _streamed_consistent(cols, target, f4)


def test_solver_zero_column_inconsistent(f4):
    assert not _streamed_consistent([[f4.zero, f4.zero]], [f4.one, f4.zero], f4)


def test_solver_zero_target_trivially_consistent(f4):
    assert _streamed_consistent([], [f4.zero, f4.zero], f4)


def test_solver_dimension_mismatch(f4):
    with pytest.raises(ValueError):
        _streamed_consistent([[f4.one]], [f4.one, f4.zero], f4)


def test_solver_against_dense_oracle_f9(f9):
    rng = random.Random(20240917)
    for _ in range(40):
        rows, cols = 5, 8
        columns = [[rng.choice(f9.elements) for _ in range(rows)] for _ in range(cols)]
        target = [rng.choice(f9.elements) for _ in range(rows)]
        assert (_streamed_consistent(columns, target, f9)
                == _dense_consistent(columns, target, f9))


def test_solver_against_span_enumeration_f4_exhaustive_2x2(f4):
    els = f4.elements
    for c1 in itertools.product(els, repeat=2):
        for c2 in itertools.product(els, repeat=2):
            columns = [list(c1), list(c2)]
            for target in itertools.product(els, repeat=2):
                assert _streamed_consistent(columns, list(target), f4) == (
                    _span_enumeration_consistent(columns, target, f4)
                )


def test_solver_against_span_enumeration_f4_sampled_3x3(f4):
    rng = random.Random(7)
    for _ in range(300):
        columns = [[rng.choice(f4.elements) for _ in range(3)] for _ in range(3)]
        target = [rng.choice(f4.elements) for _ in range(3)]
        assert (_streamed_consistent(columns, target, f4)
                == _span_enumeration_consistent(columns, target, f4))


def test_tracker_early_exit(f4):
    tracker = SpanTracker(f4, [f4.one, f4.one])
    assert not tracker.consistent
    assert tracker.offer([f4.one, f4.one])
    # one column spans the target; once consistent, later offers add no pivot
    assert tracker.rank == 1
    assert tracker.offer([f4.one, f4.zero])
    assert tracker.rank == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_element_round_trip(f9):
    for a in f9.elements:
        assert element_from_str(element_to_str(a), f9) == a


def test_element_str_is_low_degree_first(f4):
    assert element_to_str(f4.epsilon) == "0:1"
    assert element_to_str(f4.one) == "1:0"


def test_bad_element_string(f4):
    with pytest.raises(ValueError):
        element_from_str("x:y", f4)
