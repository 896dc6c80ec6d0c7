import pytest

from hermseq.curve import collinear_family, eval_quotient, scale_place
from hermseq.field import FieldContext
from hermseq.sequence import build_sequence, full_length


@pytest.fixture(scope="module")
def f4():
    return FieldContext(2, 1)


@pytest.fixture(scope="module")
def f9():
    return FieldContext(3, 1)


def test_length_formula():
    assert full_length(2) == 4
    assert full_length(3) == 21
    assert full_length(32) == 32704  # 32 * 1022


def test_built_lengths(f4, f9):
    assert len(build_sequence(f4, 2)) == 4
    assert len(build_sequence(f9, 2)) == 21
    assert len(build_sequence(f9, 3)) == 21


def test_default_a_is_epsilon(f9):
    for ell in (2, 3):
        assert build_sequence(f9, ell) == build_sequence(f9, ell, f9.epsilon)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_all_terms_nonzero(p, e):
    ctx = FieldContext(p, e)
    for ell in range(2, ctx.q + 1):
        seq = build_sequence(ctx, ell)
        assert len(seq) == full_length(ctx.q)
        assert all(t != ctx.zero for t in seq)


def test_terms_match_independent_recomputation(f9):
    for ell in (2, 3):
        seq = build_sequence(f9, ell)
        fam = collinear_family(f9, f9.epsilon)
        steps = f9.order - 2
        for i in range(1, 4):
            for j in range(1, steps + 1):
                expected = eval_quotient(
                    fam, ell, scale_place(f9, fam.places[i - 1], j)
                )
                assert seq[(i - 1) * steps + (j - 1)] == expected


def test_varying_a_keeps_terms_nonzero(f9):
    for a in f9.elements:
        if a == f9.zero:
            continue
        for ell in (2, 3):
            seq = build_sequence(f9, ell, a)
            assert all(t != f9.zero for t in seq)


def test_bad_ell(f4):
    with pytest.raises(ValueError):
        build_sequence(f4, 1)
    with pytest.raises(ValueError):
        build_sequence(f4, 3)


def test_known_q2_sequence(f4):
    # hand-computed four-term sequence for the default line x = z
    z = f4.epsilon
    z1 = f4.add(z, f4.one)
    seq = build_sequence(f4, 2)
    assert seq == (f4.one, z, z1, z1)
