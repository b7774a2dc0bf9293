"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import itertools
import random

from palwidth import (LatticeFn, SquareCoeffs, Word, WreathContext, grid_vectors,
                      lattice_word, make_element, multiply_flow,
                      evaluate_word_flow, squares_to_element)


def random_word(rng: random.Random, size: int, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    return Word(tuple((rng.randrange(size), rng.choice((1, -1)))
                      for _ in range(length)))


def random_lattice_int(rng: random.Random, r: int, radius: int, max_val: int,
                       max_points: int = 8) -> LatticeFn:
    points = {tuple(rng.randint(-radius, radius) for _ in range(r)):
              rng.randint(-max_val, max_val)
              for _ in range(rng.randint(0, max_points))}
    return LatticeFn(r, points)


def zero_sum(rng: random.Random, r: int, radius: int, max_val: int) -> LatticeFn:
    f = random_lattice_int(rng, r, radius, max_val)
    total = f.total()
    if total:
        entries = dict(f.items())
        anchor = tuple(rng.randint(-radius, radius) for _ in range(r))
        entries[anchor] = entries.get(anchor, 0) - total
        f = LatticeFn(r, entries)
    return f


def grid_zero(rng: random.Random, r: int, radius: int, max_val: int) -> LatticeFn:
    f = random_lattice_int(rng, r, radius, max_val)
    entries = dict(f.items())
    for v in grid_vectors(r):
        s = LatticeFn(r, entries).grid_sum(v)
        if s:
            entries[v] = entries.get(v, 0) - s
    return LatticeFn(r, entries)


def dense_grid_zero(rng: random.Random, r: int, radius: int, max_val: int,
                    points: int) -> LatticeFn:
    """At least `points` nonzero values within the radius, every grid sum zero."""
    entries = {}
    while len(entries) < points:
        entries[tuple(rng.randint(-radius, radius) for _ in range(r))] = \
            rng.choice((-1, 1)) * rng.randint(1, max_val)
    for v in grid_vectors(r):
        s = LatticeFn(r, entries).grid_sum(v)
        if s:
            entries[v] = entries.get(v, 0) - s
    return LatticeFn(r, entries)


def random_wreath_element(rng: random.Random, ctx: WreathContext, radius: int,
                          values, max_shift: int, max_points: int = 8):
    fn = {}
    for _ in range(rng.randint(0, max_points)):
        fn[tuple(rng.randint(-radius, radius) for _ in range(ctx.r))] = rng.choice(values)
    shift = tuple(rng.randint(-max_shift, max_shift) for _ in range(ctx.r))
    return make_element(ctx, fn, shift)


def random_flow_element(rng: random.Random, r: int, radius: int, max_val: int,
                        max_shift: int, points_per_pair: int = 6):
    coeffs = {}
    for pair in itertools.combinations(range(r), 2):
        points = {tuple(rng.randint(-radius, radius) for _ in range(r)):
                  rng.randint(-max_val, max_val)
                  for _ in range(rng.randint(0, points_per_pair))}
        fn = LatticeFn(r, points)
        if not fn.is_zero():
            coeffs[pair] = fn
    element = squares_to_element(SquareCoeffs(r, coeffs))
    shift = tuple(rng.randint(-max_shift, max_shift) for _ in range(r))
    return multiply_flow(element, evaluate_word_flow(r, lattice_word(r, shift)))
