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
    norm = base.normalize_word
    n = max(1, max(abs(p[-1]) for p in f.support()))
    columns = sorted({p[:-1] for p in f.support()}
                     | {tuple(-c for c in p[:-1]) for p in f.support()})
    g: dict[Point, Word] = {}
    h: dict[Point, Word] = {}
    for x in columns:
        mx = tuple(-c for c in x)
        for i in range(n, 0, -1):
            left, right = mx + (-i,), x + (i,)
            g[left] = norm(f[left] * h.get(left, EPSILON).invert())
            g[right] = mirrored = g[left].reverse()
            h[right] = norm(mirrored.invert() * f[right])
            h[mx + (1 - i,)] = h[right].reverse()
    # The even symmetry of g can only fail on the hyperplane x_r = 0, where
    # the jumps leave these values.
    level0 = {x: norm(f[x + (0,)] * h.get(x + (0,), EPSILON).invert()) for x in columns}
    odd = LatticeFn(r, h, EPSILON)

    if r == 1:
        # The one column is (); its leftover at the origin is gamma.
        gamma_factors: list[Word] | None = None
        if refined:
            factors = base.palindromic_factorization(base.evaluate(level0[()]))
            g[(0,)] = factors[-1] if factors else EPSILON
            gamma_factors = factors[:-1]
            gamma = base.identity()
            for w in gamma_factors:
                gamma = base.multiply(gamma, base.evaluate(w))
        else:
            gamma = base.evaluate(level0[()])
        return SymmetricSplit(gamma, LatticeFn(1, g, EPSILON), [odd],
                              gamma_factors=gamma_factors)

    # Ranks above one replace the slice by its own recursive split and merge.
    sub = _split(LatticeFn(r - 1, level0, EPSILON), base, refined=False)
    for x, w in sub.f0.items():
        g[x + (0,)] = w
    fi = [_embed_level0(piece, r) for piece in sub.fi]
    return SymmetricSplit(sub.gamma, LatticeFn(r, g, EPSILON), fi + [odd])


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
