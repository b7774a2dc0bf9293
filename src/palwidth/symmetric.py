"""Split a word-valued function on Z^r into mirror-symmetric pieces.

The output pieces f_0, ..., f_r satisfy, letter-for-letter,

    f_0(x) = reverse(f_0(-x))        and        f_i(x) = reverse(f_i(e_i - x)),

and their pointwise product (times a leftover base element placed at the
origin) reproduces the input in the direct sum of base-group copies.  The
construction walks each column along the last axis from the outside in,
alternately "jumping" across the two mirror centers and using the product
identity to fill in the next value.  One loop serves every rank: what the
jumps leave on the hyperplane x_r = 0 is, at rank one, the single leftover
at the origin, which becomes gamma; at higher ranks it is a rank r - 1
function that is split recursively, so rank one is the base case of the
recursion, as in the paper's proof.

Values inside, words at the boundary: each input word is evaluated once, the
jumps run on base-group values, and each distinct result is spelled once by
`canonical_word`, whose law with `reverse` makes the pieces mirror images.

The split functions are builders: they reject bad input but do not check
their own output.  The wreath factorizers check their final factors at their
boundary, where a wrong split shows as a non-palindrome or a wrong product;
`decompose symmetric` and `palwidth verify` run `check_split` on a split
they emit or read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any

from .errors import VerificationError
from .lattice import LatticeFn, Point
from .words import EPSILON, Word
from .wreath import BaseGroup


@dataclass
class SymmetricSplit:
    """gamma (base element) at the origin, one even piece, one piece per axis."""

    gamma: Any
    f0: LatticeFn
    fi: list[LatticeFn]
    gamma_factors: list[Word] | None = None  # palindromic factors for gamma, if known


def symmetric_split(f: LatticeFn, base: BaseGroup) -> SymmetricSplit:
    """Decompose a finitely supported word-valued f; unchecked, see check_split."""
    return _split(f, base, refined=False)


def symmetric_split_refined_r1(f: LatticeFn, base: BaseGroup) -> SymmetricSplit:
    """Rank-1 variant that absorbs one palindromic factor of gamma into f0(0);
    unchecked, see check_split."""
    if f.r != 1:
        raise ValueError(f"refined split needs rank 1, got rank {f.r}")
    return _split(f, base, refined=True)


def _split(f: LatticeFn, base: BaseGroup, refined: bool) -> SymmetricSplit:
    gamma, pieces = _split_values(f.r, {p: base.evaluate(w) for p, w in f.items()}, base)
    # One spelling per distinct value: h is constant between support points.
    distinct = {v for piece in pieces for v in piece.values()}
    spelled = {v: base.canonical_word(v) for v in distinct}
    f0, *fi = [{p: spelled[v] for p, v in piece.items()} for piece in pieces]
    gamma_factors: list[Word] | None = None
    if refined:
        # Rank one: gamma's last palindromic factor stays at the origin of f0.
        factors = base.palindromic_factorization(gamma)
        if factors:
            f0[(0,)] = factors[-1]
        gamma_factors = factors[:-1]
        gamma = reduce(base.multiply, map(base.evaluate, gamma_factors), base.identity())
    return SymmetricSplit(gamma, LatticeFn(f.r, f0, EPSILON),
                          [LatticeFn(f.r, piece, EPSILON) for piece in fi],
                          gamma_factors=gamma_factors)


def _split_values(r: int, f: dict[Point, Any], base: BaseGroup
                  ) -> tuple[Any, list[dict[Point, Any]]]:
    """gamma and the pieces of f (the even one, then one per axis) as base values."""
    multiply, invert, reverse = base.multiply, base.invert, base.reverse
    ident = base.identity()
    if not f:
        return ident, [{} for _ in range(r + 1)]
    n = max(1, max(abs(p[-1]) for p in f))
    columns = sorted({p[:-1] for p in f} | {tuple(-c for c in p[:-1]) for p in f})
    g: dict[Point, Any] = {}
    h: dict[Point, Any] = {}
    for x in columns:
        mx = tuple(-c for c in x)
        for i in range(n, 0, -1):
            left, right = mx + (-i,), x + (i,)
            g[left] = v = multiply(f.get(left, ident), invert(h.get(left, ident)))
            g[right] = v = reverse(v)
            h[right] = v = multiply(invert(v), f.get(right, ident))
            h[mx + (1 - i,)] = reverse(v)
    # The even symmetry of g can only fail on the hyperplane x_r = 0, where
    # the jumps leave these values.
    level0 = {x: multiply(f.get(x + (0,), ident), invert(h.get(x + (0,), ident)))
              for x in columns}
    if r == 1:
        # The one column is (); its leftover at the origin is gamma.
        return level0[()], [g, h]
    # Ranks above one replace the slice by its own recursive split and merge.
    gamma, (sub_even, *sub_axes) = _split_values(
        r - 1, {x: v for x, v in level0.items() if v != ident}, base)
    for x, v in sub_even.items():
        g[x + (0,)] = v
    return gamma, [g, *[{x + (0,): v for x, v in piece.items()} for piece in sub_axes], h]


def check_even_symmetry(piece: LatticeFn) -> bool:
    """f(x) = reverse(f(-x)) for all x."""
    return all(piece[p] == piece[tuple(-c for c in p)].reverse()
               for p in piece.support())


def check_axis_symmetry(piece: LatticeFn, axis: int) -> bool:
    """f(x) = reverse(f(e_axis - x)) for all x (0-based axis)."""
    def mirror(p: Point) -> Point:
        return tuple((1 if j == axis else 0) - c for j, c in enumerate(p))

    return all(piece[p] == piece[mirror(p)].reverse() for p in piece.support())


def check_split(f: LatticeFn, base: BaseGroup, split: SymmetricSplit) -> None:
    """Raise VerificationError unless the pieces have their mirror symmetries,
    their pointwise product (gamma at the origin) is f, and the gamma factors,
    if any, are palindromes multiplying to gamma."""
    r = f.r
    if not check_even_symmetry(split.f0):
        raise VerificationError("even piece fails its mirror symmetry")
    for axis, piece in enumerate(split.fi):
        if not check_axis_symmetry(piece, axis):
            raise VerificationError(f"axis-{axis + 1} piece fails its mirror symmetry")
    points = set(f.support()) | set(split.f0.support()) | {(0,) * r}
    for piece in split.fi:
        points.update(piece.support())
    ident = base.identity()
    for p in sorted(points):
        value = split.gamma if all(c == 0 for c in p) else ident
        value = base.multiply(value, base.evaluate(split.f0[p]))
        for piece in split.fi:
            value = base.multiply(value, base.evaluate(piece[p]))
        if value != base.evaluate(f[p]):
            raise VerificationError(f"pointwise product differs from input at {p}")
    if split.gamma_factors is not None:
        acc = base.identity()
        for w in split.gamma_factors:
            if not w.is_palindrome():
                raise VerificationError("gamma factor is not a palindrome")
            acc = base.multiply(acc, base.evaluate(w))
        if acc != split.gamma:
            raise VerificationError("gamma factors do not multiply to gamma")
