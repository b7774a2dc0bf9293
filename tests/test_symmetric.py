import random

import pytest

from palwidth import (EPSILON, IntegerGroup, LatticeFn, WordGroup, Alphabet,
                      symmetric_split, symmetric_split_refined_r1, zero_fn)
from palwidth.symmetric import check_axis_symmetry, check_even_symmetry, check_split

from gens import random_word
from test_wreath import F_ROW, G_ROW, H_ROW

Z = IntegerGroup()


def words_fn(base, rows, r=1):
    return LatticeFn(r, {(x,) if r == 1 else x: base.canonical_word(v)
                         for x, v in rows.items()}, EPSILON)


def rows_of(piece, base):
    return {p[0]: base.evaluate(w) for p, w in piece.items()}


def test_refined_reproduces_table_rows():
    split = symmetric_split_refined_r1(words_fn(Z, F_ROW), Z)
    assert rows_of(split.f0, Z) == G_ROW
    assert rows_of(split.fi[0], Z) == H_ROW
    assert split.gamma == 0
    assert split.gamma_factors == []


def test_unrefined_leaves_gamma():
    split = symmetric_split(words_fn(Z, F_ROW), Z)
    expected_g = dict(G_ROW)
    del expected_g[0]  # origin value moves into gamma in the plain variant
    assert rows_of(split.f0, Z) == expected_g
    assert rows_of(split.fi[0], Z) == H_ROW
    assert split.gamma == -2


def test_zero_input():
    for op in (symmetric_split, symmetric_split_refined_r1):
        split = op(zero_fn(1, EPSILON), Z)
        assert split.gamma == 0
        assert split.f0.is_zero()
        assert all(piece.is_zero() for piece in split.fi)


def test_single_point_refined():
    split = symmetric_split_refined_r1(words_fn(Z, {0: 5}), Z)
    assert rows_of(split.f0, Z) == {0: 5}
    assert split.fi[0].is_zero()
    assert split.gamma == 0


def test_rank2_single_point():
    f = LatticeFn(2, {(1, 1): Z.canonical_word(1)}, EPSILON)
    split = symmetric_split(f, Z)
    assert check_even_symmetry(split.f0)
    for axis, piece in enumerate(split.fi):
        assert check_axis_symmetry(piece, axis)
    check_split(f, Z, split)
    # spot-check the product identity at the support point (gamma only
    # contributes at the origin)
    total = sum(Z.evaluate(piece[(1, 1)]) for piece in [split.f0] + split.fi)
    assert total == 1
    at_origin = split.gamma + sum(Z.evaluate(piece[(0, 0)])
                                  for piece in [split.f0] + split.fi)
    assert at_origin == 0


def test_refined_requires_rank1():
    with pytest.raises(ValueError):
        symmetric_split_refined_r1(zero_fn(2, EPSILON), Z)


def _random_word_fn(rng, base, r, radius, max_len, max_points=6):
    size = len(base.alphabet)
    points = {}
    for _ in range(rng.randint(0, max_points)):
        points[tuple(rng.randint(-radius, radius) for _ in range(r))] = \
            random_word(rng, size, max_len)
    return LatticeFn(r, points, EPSILON)


def test_random_splits_all_ranks():
    # 500 random functions, rank <= 3: check_split verifies the symmetry
    # predicates and the pointwise product identity of every split.
    rng = random.Random(0)
    free = WordGroup(Alphabet(("a", "b")))
    for trial in range(500):
        r = rng.randint(1, 3)
        base = Z if trial % 2 else free
        f = _random_word_fn(rng, base, r, 5, 4)
        split = symmetric_split(f, base)
        assert len(split.fi) == r
        check_split(f, base, split)
        if r == 1:
            check_split(f, base, symmetric_split_refined_r1(f, base))


def test_negation_commutes_over_integers():
    rng = random.Random(1)
    for _ in range(100):
        f = _random_word_fn(rng, Z, 1, 5, 4)
        neg = f.map_values(lambda w: w.invert(), EPSILON)
        split = symmetric_split(f, Z)
        nsplit = symmetric_split(neg, Z)
        assert nsplit.gamma == -split.gamma
        assert nsplit.f0 == split.f0.map_values(lambda w: w.invert(), EPSILON)
        assert nsplit.fi[0] == split.fi[0].map_values(lambda w: w.invert(), EPSILON)


def test_free_base_pieces_are_freely_reduced():
    # The split computes on reduced words and spells them as they are, so
    # every piece value is freely reduced even when the input words are not.
    rng = random.Random(2)
    free = WordGroup(Alphabet(("a", "b")))
    for _ in range(300):
        r = rng.randint(1, 3)
        f = _random_word_fn(rng, free, r, 4, 6)
        splits = [symmetric_split(f, free)]
        if r == 1:
            splits.append(symmetric_split_refined_r1(f, free))
        for split in splits:
            check_split(f, free, split)
            for piece in [split.f0] + split.fi:
                assert all(w.free_reduce() == w for _, w in piece.items())
