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
    # ell = 32 and 31 read 1/P off the trace polynomial, 17 and 2 off the
    # rows of its roots
    ctx = FieldContext(2, 5)
    rng = random.Random(32)
    for a in (None, rng.randrange(1, ctx.order)):
        fam = collinear_family(ctx, ctx.epsilon if a is None else a)
        for ell in (32, 2, 17, 31):
            seq = build_sequence(ctx, ell, a)
            for idx in rng.sample(range(len(seq)), 200 if ell == 32 else 60):
                assert seq[idx] == _reference_term(ctx, fam, ell, idx), (
                    f"a={fam.a} ell={ell} index={idx}")


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 5)])
def test_inverse_product_table(p, e):
    # None exactly at the roots b_1..b_(ell-1), 1 / prod(Y - b_i) elsewhere,
    # for every ell: from the rows of the roots while ell - 1 <= q - ell + 1,
    # from the trace polynomial over the omitted roots above it, so both
    # sides of that choice and, in odd characteristic, both signs
    # (-1)^(ell-1); on the default line and one other
    ctx = FieldContext(p, e)
    for a in (ctx.epsilon, random.Random(p * 10 + e).randrange(2, ctx.order)):
        fiber = collinear_family(ctx, a).b_list
        tables = {ell: _inverse_product_table(ctx, fiber, ell) for ell in range(2, ctx.q + 1)}
        for ell, table in tables.items():
            assert len(table) == ctx.order
            assert {y for y in ctx.elements if table[y] is None} == set(fiber[:ell - 1])
        for y in ctx.elements:
            prod = ctx.one  # prod(y - b for b in fiber[:ell - 1]), ell by ell
            for ell, table in tables.items():
                prod = ctx.mul(prod, ctx.sub(y, fiber[ell - 2]))
                if prod != ctx.zero:
                    assert ctx.mul(table[y], prod) == ctx.one, (a, ell, y)


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
                        lambda ctx, fiber, ell: [None] * ctx.order)
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
