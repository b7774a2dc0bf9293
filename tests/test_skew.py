import hashlib
import json
import random

import pytest

from palwidth import (HypothesisViolation, LatticeFn, SkewPiece,
                      skew_split_fixed_centers, skew_split_grid, skew_split_half,
                      zero_fn)
from palwidth.skew import check_pieces

from gens import dense_grid_zero, grid_zero, zero_sum


def pieces_sum(pieces, r):
    total = zero_fn(r)
    for piece in pieces:
        total = total.add(piece.fn)
    return total


def test_half_rank1_example():
    f = LatticeFn(1, {(0,): 1, (1,): -1})
    g, h = skew_split_half(f, (0,))
    assert g.fn.is_zero() and g.two_center == (0,)
    assert h.fn == f and h.two_center == (1,)


def test_half_zero_input():
    pieces = skew_split_half(zero_fn(2), (0, 0))
    assert len(pieces) == 3
    assert all(p.fn.is_zero() for p in pieces)


def test_half_rank2_example():
    f = LatticeFn(2, {(0, 0): 2, (1, 1): -2})
    pieces = skew_split_half(f, (0, 0))
    assert len(pieces) == 3
    assert [p.two_center for p in pieces] == [(0, 0), (1, 0), (0, 1)]
    assert pieces_sum(pieces, 2) == f
    assert all(p.is_valid() for p in pieces)


def test_half_rejects_nonzero_sum():
    with pytest.raises(HypothesisViolation):
        skew_split_half(LatticeFn(1, {(0,): 1}), (0,))


def test_half_translation_reduction():
    rng = random.Random(0)
    for _ in range(100):
        r = rng.randint(1, 3)
        f = zero_sum(rng, r, 4, 5)
        w = tuple(rng.randint(-3, 3) for _ in range(r))
        two_p = tuple(rng.randint(-4, 4) for _ in range(r))
        pieces = skew_split_half(f, two_p)
        shifted = skew_split_half(f.shift(w), tuple(c + 2 * s for c, s in zip(two_p, w)))
        for a, b in zip(pieces, shifted):
            assert b.fn == a.fn.shift(w)


def test_half_all_ones_center():
    # every doubled-center coordinate odd: the transport path
    rng = random.Random(1)
    for _ in range(100):
        r = rng.randint(2, 3)
        f = zero_sum(rng, r, 3, 4)
        pieces = skew_split_half(f, (1,) * r)
        assert len(pieces) == r + 1
        assert pieces_sum(pieces, r) == f


def test_grid_rank1_example():
    f = LatticeFn(1, {(0,): 1, (2,): -1})
    pieces = skew_split_grid(f, (0,))
    assert pieces[0].fn.is_zero()
    assert pieces[1].fn == f
    assert pieces[1].two_center == (2,)  # doubled center of 1


def test_grid_zero_input():
    pieces = skew_split_grid(zero_fn(2), (0, 0))
    assert all(p.fn.is_zero() for p in pieces)


def test_grid_rank2_example():
    f = LatticeFn(2, {(0, 0): 1, (2, 0): -1, (1, 1): 3, (3, 3): -3})
    pieces = skew_split_grid(f, (0, 0))
    assert len(pieces) == 3
    assert pieces_sum(pieces, 2) == f
    assert all(p.is_valid() for p in pieces)


def test_grid_rejects_bad_sums():
    with pytest.raises(HypothesisViolation):
        skew_split_grid(LatticeFn(1, {(0,): 1, (1,): -1}), (0,))


def test_fixed_example_already_skew():
    f = LatticeFn(2, {(1, 0): 1, (-2, -1): -1})
    pieces = skew_split_fixed_centers(f, (-1, -1))
    assert pieces_sum(pieces, 2) == f
    assert all(p.is_valid() for p in pieces)
    combined = pieces[0].fn
    assert SkewPiece(combined, (-1, -1)).is_valid()


def test_fixed_transport_example():
    f = LatticeFn(2, {(0, 0): 1, (2, 0): -1})
    pieces = skew_split_fixed_centers(f, (-1, -1))
    assert len(pieces) == 3
    assert pieces_sum(pieces, 2) == f
    assert all(p.is_valid() for p in pieces)
    assert pieces[2].fn.is_zero()  # only sigma_0 and sigma_1 moves needed


def test_fixed_zero_input():
    pieces = skew_split_fixed_centers(zero_fn(3), (0, 0, 0))
    assert len(pieces) == 4
    assert all(p.fn.is_zero() for p in pieces)


def test_fixed_rejects_unbalanced():
    with pytest.raises(HypothesisViolation):
        skew_split_fixed_centers(LatticeFn(1, {(0,): 2}), (1,))
    # self-paired grid with nonzero sum (even doubled center)
    with pytest.raises(HypothesisViolation):
        skew_split_fixed_centers(LatticeFn(1, {(0,): 1, (1,): 1}), (0,))


def test_random_halves():
    rng = random.Random(2)
    for _ in range(300):
        r = rng.randint(1, 3)
        f = zero_sum(rng, r, 5, 6)
        two_p = tuple(rng.randint(-3, 3) for _ in range(r))
        pieces = skew_split_half(f, two_p)
        check_pieces(f, pieces, "half-step split")
        assert len(pieces) == r + 1
        expected = [tuple(c + (1 if j == a - 1 else 0) for j, c in enumerate(two_p))
                    for a in range(r + 1)]
        assert [p.two_center for p in pieces] == expected


def test_random_grid_and_fixed():
    rng = random.Random(3)
    for _ in range(300):
        r = rng.randint(1, 3)
        f = grid_zero(rng, r, 5, 6)
        p = tuple(rng.randint(-3, 3) for _ in range(r))
        pieces = skew_split_grid(f, p)
        check_pieces(f, pieces, "grid split")
        assert len(pieces) == r + 1
        two_c = tuple(rng.randint(-3, 3) for _ in range(r))
        fixed = skew_split_fixed_centers(f, two_c)
        check_pieces(f, fixed, "fixed-center split")
        assert len(fixed) == r + 1
        expected = [tuple(c + (2 if j == a - 1 else 0) for j, c in enumerate(two_c))
                    for a in range(r + 1)]
        assert [piece.two_center for piece in fixed] == expected


def test_grid_shift_equivariance():
    # translating the input by an even vector and the center alike translates
    # every piece, exactly
    rng = random.Random(5)
    for _ in range(60):
        r = rng.randint(1, 3)
        f = grid_zero(rng, r, 4, 5)
        p = tuple(rng.randint(-2, 2) for _ in range(r))
        w = tuple(2 * rng.randint(-2, 2) for _ in range(r))
        base = skew_split_grid(f, p)
        moved = skew_split_grid(f.shift(w), tuple(c + x for c, x in zip(p, w)))
        for a, b in zip(base, moved):
            assert b.fn == a.fn.shift(w)


def test_same_center_pieces_add():
    rng = random.Random(4)
    for _ in range(50):
        r = rng.randint(1, 3)
        two_c = tuple(rng.randint(-3, 3) for _ in range(r))
        a = zero_sum(rng, r, 4, 5)
        b = zero_sum(rng, r, 4, 5)
        pa = skew_split_half(a, two_c)
        pb = skew_split_half(b, two_c)
        for x, y in zip(pa, pb):
            merged = SkewPiece(x.fn.add(y.fn), x.two_center)
            assert merged.is_valid()


# sha256 of the pieces that the transport returned on the input below when it
# still rescanned the whole residual for every move; picking moves from a
# heap must not change a single dipole.
DENSE_PIECES_SHA256 = "7843b7ec3bdaf3af8c4c419496d9c1b8c422996dae5552f8aab7a81254d00e82"
# The same for the half-step and grid splits, taken while the heap still
# popped the lex-greatest point first: the order of moves decides only how
# mass merges, never a piece.
DENSE_HALF_PIECES_SHA256 = "7cc59fa791d1b5ee2a6b09d0a24e96b386d3d01da43b130583de089f46479814"
DENSE_GRID_PIECES_SHA256 = "7dbe68a6adefb9810cc0faf2100646400f3616c46f66d03ddc147be91bb515f8"


def _dense_pieces_sha256(split, center):
    f = dense_grid_zero(random.Random(280), 2, 12, 9, 280)
    assert f.support_size() == 282
    pieces = split(f, center)
    blob = json.dumps([[list(p.two_center), p.fn.to_json()] for p in pieces],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_fixed_centers_dense_pieces_pinned():
    assert _dense_pieces_sha256(skew_split_fixed_centers, (-1, -1)) == DENSE_PIECES_SHA256


def test_half_dense_pieces_pinned():
    assert _dense_pieces_sha256(skew_split_half, (1, -1)) == DENSE_HALF_PIECES_SHA256


def test_grid_dense_pieces_pinned():
    assert _dense_pieces_sha256(skew_split_grid, (1, 0)) == DENSE_GRID_PIECES_SHA256
