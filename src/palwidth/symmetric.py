"""Split a word-valued function on Z^r into mirror-symmetric pieces.

The output pieces f_0, ..., f_r satisfy, letter-for-letter,

    f_0(x) = reverse(f_0(-x))        and        f_i(x) = reverse(f_i(e_i - x)),

and their pointwise product (times a leftover base element placed at the
origin) reproduces the input in the direct sum of base-group copies.  The
construction walks the box from the outside in, alternately "jumping" across
the two mirror centers and using the product identity to fill in the next
value; ranks above one slice off the last axis and recurse on the fixed
hyperplane.

The split functions are builders: they reject bad input but do not check
their own output.  The wreath factorizers check their final factors at their
boundary, where a wrong split shows as a non-palindrome or a wrong product;
`decompose symmetric` and `palwidth verify` run `check_split` on a split
they emit or read.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _word_at(table: dict[Point, Word], point: Point) -> Word:
    return table.get(point, EPSILON)


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
    r = f.r
    zero = LatticeFn(r, {}, EPSILON)
    if f.is_zero():
        return SymmetricSplit(base.identity(), zero, [zero] * r,
                              gamma_factors=[] if refined else None)
    if r == 1:
        return _split_rank1(f, base, refined)
    return _split_rank_n(f, base)


def _split_rank1(f: LatticeFn, base: BaseGroup, refined: bool) -> SymmetricSplit:
    norm = base.normalize_word
    n = max(1, f.box_radius())
    g: dict[Point, Word] = {}
    h: dict[Point, Word] = {(-n,): EPSILON}
    for i in range(n, 0, -1):
        g[(-i,)] = norm(f[(-i,)] * _word_at(h, (-i,)).invert())
        g[(i,)] = g[(-i,)].reverse()
        h[(i,)] = norm(g[(i,)].invert() * f[(i,)])
        h[(1 - i,)] = h[(i,)].reverse()
    leftover = norm(f[(0,)] * _word_at(h, (0,)).invert())
    gamma_factors: list[Word] | None = None
    if refined:
        factors = base.palindromic_factorization(base.evaluate(leftover))
        g[(0,)] = factors[-1] if factors else EPSILON
        gamma_factors = factors[:-1]
        gamma = base.identity()
        for w in gamma_factors:
            gamma = base.multiply(gamma, base.evaluate(w))
    else:
        g[(0,)] = EPSILON
        gamma = base.evaluate(leftover)
    return SymmetricSplit(gamma,
                          LatticeFn(1, g, EPSILON),
                          [LatticeFn(1, h, EPSILON)],
                          gamma_factors=gamma_factors)


def _split_rank_n(f: LatticeFn, base: BaseGroup) -> SymmetricSplit:
    r = f.r
    norm = base.normalize_word
    n = max(1, max(abs(p[-1]) for p in f.support()))
    columns = sorted({p[:-1] for p in f.support()}
                     | {tuple(-c for c in p[:-1]) for p in f.support()})
    g: dict[Point, Word] = {}
    h: dict[Point, Word] = {}
    for x in columns:
        mx = tuple(-c for c in x)
        for i in range(n, 0, -1):
            g[mx + (-i,)] = norm(f[mx + (-i,)] * _word_at(h, mx + (-i,)).invert())
            g[x + (i,)] = g[mx + (-i,)].reverse()
            h[x + (i,)] = norm(g[x + (i,)].invert() * f[x + (i,)])
            h[mx + (1 - i,)] = h[x + (i,)].reverse()
    for x in columns:
        g[x + (0,)] = norm(f[x + (0,)] * _word_at(h, x + (0,)).invert())

    # The even symmetry of g can only fail on the hyperplane x_r = 0; replace
    # the slice by its own recursive split and merge.
    slice_fn = LatticeFn(r - 1, {x: g[x + (0,)] for x in columns}, EPSILON)
    sub = _split(slice_fn, base, refined=False)

    merged: dict[Point, Word] = {p: w for p, w in g.items() if p[-1] != 0}
    for x, w in sub.f0.items():
        merged[x + (0,)] = w
    f0 = LatticeFn(r, merged, EPSILON)
    fi = [_embed_level0(piece, r) for piece in sub.fi]
    fi.append(LatticeFn(r, h, EPSILON))
    return SymmetricSplit(sub.gamma, f0, fi)


def _embed_level0(piece: LatticeFn, r: int) -> LatticeFn:
    return LatticeFn(r, {x + (0,): w for x, w in piece.items()}, EPSILON)


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
        if not base.equal(value, base.evaluate(f[p])):
            raise VerificationError(f"pointwise product differs from input at {p}")
    if split.gamma_factors is not None:
        acc = base.identity()
        for w in split.gamma_factors:
            if not w.is_palindrome():
                raise VerificationError("gamma factor is not a palindrome")
            acc = base.multiply(acc, base.evaluate(w))
        if not base.equal(acc, split.gamma):
            raise VerificationError("gamma factors do not multiply to gamma")
