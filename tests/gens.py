"""Seeded random generators and corrupt-split wrappers shared by the test modules."""

from __future__ import annotations

import dataclasses
import itertools
import random

from palwidth import (LatticeFn, SkewPiece, SquareCoeffs, Word, WreathContext,
                      grid_vectors, lattice_word, make_element, multiply_flow,
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


# Corrupt splits: wrappers around a split function, for tests that a later
# check rejects what they return.

def wrong_gamma(split_fn):
    """Symmetric split over Z whose gamma, and gamma factors if any, is one too big."""
    def tampered(f, base):
        split = split_fn(f, base)
        factors = split.gamma_factors
        if factors is not None:
            factors = factors + [base.canonical_word(1)]
        return dataclasses.replace(split, gamma=split.gamma + 1, gamma_factors=factors)
    return tampered


def asymmetric_even_value(split_fn):
    """Symmetric split whose last even-piece value w becomes w a a^-1: the same
    group element, but no longer the mirror image of its partner."""
    def tampered(f, base):
        split = split_fn(f, base)
        entries = dict(split.f0.items())
        point, word = split.f0.items()[-1]
        entries[point] = word * Word(((0, 1), (0, -1)))
        return dataclasses.replace(split, f0=LatticeFn(f.r, entries, split.f0.zero))
    return tampered


def extra_dipole(split_fn):
    """Skew split whose first piece gains a dipole skew about its own center:
    every piece stays skew, but the pieces no longer sum to the input."""
    def tampered(f, center):
        pieces = split_fn(f, center)
        first = pieces[0]
        far = (9,) * f.r
        mirror = tuple(c - x for c, x in zip(first.two_center, far))
        dipole = LatticeFn(f.r, {far: 1, mirror: -1})
        return [SkewPiece(first.fn.add(dipole), first.two_center)] + pieces[1:]
    return tampered


def swap_mirrored_letters(word: Word) -> Word:
    """The palindrome with the first two neighbouring letters of its half
    that differ in generator swapped, and their mirror images with them: still
    a literal palindrome with the same shift, but another flow."""
    runs = list(word.runs)
    k = next(k for k in range(len(runs) // 2 - 1)
             if abs(runs[k][1]) == abs(runs[k + 1][1]) == 1 and runs[k][0] != runs[k + 1][0])
    swapped = [runs[k + 1], runs[k]]
    runs[k:k + 2] = swapped
    runs[len(runs) - 2 - k:len(runs) - k] = swapped[::-1]
    return Word(runs)
