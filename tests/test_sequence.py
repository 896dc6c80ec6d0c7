import random

import pytest

from hermseq import sequence
from hermseq.curve import PoleError, collinear_family, eval_quotient, scale_place
from hermseq.field import FieldContext
from hermseq.sequence import _inverse_product_table, build_sequence, full_length


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


def _reference_term(ctx, fam, ell, index):
    """Term `index` (0-based) by the reference evaluator, one tangent at a time."""
    steps = ctx.order - 2
    place = scale_place(ctx, fam.places[index // steps], index % steps + 1)
    return eval_quotient(fam, ell, place)


def _lines(ctx, seed):
    """The default line and two nonzero lines drawn from the seed."""
    rng = random.Random(seed)
    return [None] + [rng.randrange(1, ctx.order) for _ in range(2)]


def test_terms_match_independent_recomputation():
    # every term, every ell, over GF(q^2) for q in {2, 3, 4, 5, 7, 8, 9}
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        ctx = FieldContext(p, e)
        for a in _lines(ctx, seed=p * 10 + e):
            fam = collinear_family(ctx, ctx.epsilon if a is None else a)
            for ell in range(2, ctx.q + 1):
                seq = build_sequence(ctx, ell, a)
                assert len(seq) == full_length(ctx.q)
                for idx, term in enumerate(seq):
                    assert term == _reference_term(ctx, fam, ell, idx), (
                        f"q={ctx.q} a={fam.a} ell={ell} index={idx}")


def test_q32_sampled_terms_match_reference():
    ctx = FieldContext(2, 5)
    rng = random.Random(32)
    for a in (None, rng.randrange(1, ctx.order)):
        fam = collinear_family(ctx, ctx.epsilon if a is None else a)
        seq = build_sequence(ctx, 32, a)
        for idx in rng.sample(range(len(seq)), 200):
            assert seq[idx] == _reference_term(ctx, fam, 32, idx), (
                f"a={fam.a} index={idx}")


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 5)])
def test_inverse_product_table(p, e):
    # None exactly at the roots b_1..b_(ell-1), 1 / prod(Y - b_i) elsewhere;
    # in odd characteristic ell = 2 and ell = 3 pin both signs (-1)^(ell-1)
    ctx = FieldContext(p, e)
    fam = collinear_family(ctx, ctx.epsilon)
    for ell in sorted({2, 3, ctx.q}):
        roots = fam.b_list[:ell - 1]
        table = _inverse_product_table(ctx, roots)
        assert len(table) == ctx.order
        assert {y for y in ctx.elements if table[y] is None} == set(roots)
        for y in ctx.elements:
            if y in roots:
                continue
            prod = ctx.one
            for b in roots:
                prod = ctx.mul(prod, ctx.sub(y, b))
            assert ctx.mul(table[y], prod) == ctx.one


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_prefix_build_stops_after_its_rows(p, e):
    # a length builds whole rows of q^2 - 2 terms, as few as hold the
    # prefix, and they agree with the full sequence; lengths at and around
    # each row boundary
    ctx = FieldContext(p, e)
    steps = ctx.order - 2
    for ell in (2, ctx.q):
        full = build_sequence(ctx, ell)
        lengths = {1, *(i * steps + d for i in range(1, ctx.q + 1) for d in (-1, 0, 1))}
        for length in sorted(lengths - {len(full) + 1}):
            built = build_sequence(ctx, ell, length=length)
            assert len(built) == -(-length // steps) * steps, length
            assert built == full[:len(built)], length


def test_pole_in_table_raises(f9, monkeypatch):
    # a None entry is a pole: it must raise, never be multiplied in as zero
    monkeypatch.setattr(sequence, "_inverse_product_table",
                        lambda ctx, roots: [None] * ctx.order)
    with pytest.raises(PoleError):
        build_sequence(f9, 2)


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
