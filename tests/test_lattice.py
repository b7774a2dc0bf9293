import random

import pytest

from palwidth import LatticeFn, grid_vectors, zero_fn

from gens import random_lattice_int


def test_shift_examples():
    f = LatticeFn(1, {(0,): 1})
    assert f.shift((3,)) == LatticeFn(1, {(3,): 1})
    assert zero_fn(1).shift((5,)) == zero_fn(1)


def test_shift_composition():
    rng = random.Random(0)
    for _ in range(100):
        r = rng.randint(1, 3)
        f = random_lattice_int(rng, r, 4, 5)
        u = tuple(rng.randint(-3, 3) for _ in range(r))
        w = tuple(rng.randint(-3, 3) for _ in range(r))
        uw = tuple(a + b for a, b in zip(u, w))
        assert f.shift(u).shift(w) == f.shift(uw)
        assert f.shift((0,) * r) == f


def test_grid_sum_examples():
    f = LatticeFn(2, {(0, 0): 1})
    assert f.grid_sum((0, 0)) == 1
    assert f.grid_sum((1, 0)) == 0
    g = LatticeFn(1, {(0,): 1, (2,): -1})
    assert g.grid_sum((0,)) == 0


def test_grid_sum_partition():
    rng = random.Random(2)
    for _ in range(100):
        r = rng.randint(1, 3)
        f = random_lattice_int(rng, r, 4, 5)
        g = random_lattice_int(rng, r, 4, 5)
        assert sum(f.grid_sum(v) for v in grid_vectors(r)) == f.total()
        for v in grid_vectors(r):
            assert f.add(g).grid_sum(v) == f.grid_sum(v) + g.grid_sum(v)


def test_grid_sums_match_grid_sum():
    rng = random.Random(12)
    for _ in range(100):
        r = rng.randint(1, 4)
        f = random_lattice_int(rng, r, 4, 5)
        assert f.grid_sums() == {v: f.grid_sum(v) for v in grid_vectors(r)}
        assert list(f.grid_sums()) == grid_vectors(r)


def test_from_json_rejects_bad_shapes():
    for data in ([1, 2], {"r": 1}, {"r": 1, "entries": 5}, {"r": "1", "entries": []},
                 {"r": 1, "entries": [7]}, {"r": 1, "entries": [{"pos": 0, "val": 1}]},
                 {"r": 1, "entries": [{"pos": [0], "val": [1]}]}):
        with pytest.raises(ValueError):
            LatticeFn.from_json(data)


def test_zero_values_never_stored():
    f = LatticeFn(1, {(0,): 1, (1,): 0})
    assert f.support() == ((0,),)
    g = f.add(LatticeFn(1, {(0,): -1}))
    assert g.is_zero()


def test_dimension_checks():
    with pytest.raises(ValueError):
        LatticeFn(2, {(0,): 1})
    with pytest.raises(ValueError):
        LatticeFn(1, {(0,): 1}).shift((1, 2))
    with pytest.raises(ValueError):
        LatticeFn(0)


def test_json_round_trip_sorted():
    f = LatticeFn(2, {(1, 0): 3, (-1, 2): -2, (0, 0): 7})
    data = f.to_json()
    assert [e["pos"] for e in data["entries"]] == [[-1, 2], [0, 0], [1, 0]]
    assert LatticeFn.from_json(data) == f
