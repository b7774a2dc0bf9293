"""Decompositions of integer functions on Z^r into skew-symmetric pieces.

A piece is skew-symmetric about a (possibly half-integer) center c when
fn(x) = -fn(2c - x) for all x; centers are always carried doubled so the
arithmetic stays in the integers.  One construction, mass transport, serves
three center families:

* half-step centers c, c + e_1/2, ..., c + e_r/2 for zero-sum functions,
* integer-step centers p, p + e_1, ..., p + e_r for functions whose 2^r
  grid sums all vanish,
* fixed centers c, c + e_1, ..., c + e_r about any doubled center 2c, for
  functions whose grid sums cancel in the pairs the reflection through c
  matches; the metabelian pipeline uses this family.

Transport moves all mass onto one point per residue class by reflections
through the centers, sweeping one axis at a time and jumping over stretches
where no mass moves, so a split costs the points that the routes visit; the
hypothesis of each family is what makes the mass left there vanish.

The split functions are builders: they reject input that breaks their
family's hypothesis but do not check their own output.  The metabelian
factorizer checks its final factors at its boundary, where a wrong split
shows as a wrong product; `decompose skew` and `palwidth verify` run
`check_pieces` on pieces they emit or read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from operator import sub

from .errors import HypothesisViolation, VerificationError
from .lattice import LatticeFn, Point, zero_fn


@dataclass
class SkewPiece:
    """Integer function plus its doubled reflection center."""

    fn: LatticeFn
    two_center: Point

    def is_valid(self) -> bool:
        """fn(x) = -fn(two_center - x) for all x."""
        return all(
            value == -self.fn[tuple(c - x for c, x in zip(self.two_center, point))]
            for point, value in self.fn.items()
        )


def check_pieces(f: LatticeFn, pieces: list[SkewPiece], context: str) -> None:
    """Raise VerificationError unless every piece is skew about its center and
    the pieces sum to f."""
    total = zero_fn(f.r)
    for piece in pieces:
        if not piece.is_valid():
            raise VerificationError(f"{context}: piece about {piece.two_center} "
                                    "fails skew symmetry")
        total = total.add(piece.fn)
    if total != f:
        raise VerificationError(f"{context}: pieces do not sum to the input")


# ---------------------------------------------------------------------------
# mass transport
# ---------------------------------------------------------------------------

def _centers(two_c: Point, step: int) -> list[Point]:
    """Doubled centers two_c, two_c + step*e_1, ..., two_c + step*e_r."""
    r = len(two_c)
    out = [tuple(two_c)]
    for axis in range(r):
        out.append(tuple(c + (step if j == axis else 0)
                         for j, c in enumerate(two_c)))
    return out


def _transport(f: LatticeFn, centers: list[Point], step: int, origin: Point
               ) -> list[SkewPiece]:
    """Decompose f into dipoles about the given doubled centers.

    A move of v from u to centers[alpha] - u adds v*(delta_u - delta_dest) to
    piece alpha; a move about centers[alpha] and one about centers[0]
    translate mass by +-step*e_alpha.  Every unit of mass walks one step at a
    time, along its first axis off it, to the representative of its class
    mod step in origin + {0, ..., step - 1}^r.  Dipoles are linear in v, so
    the pieces are the sum of the routes however mass is grouped: one
    `_sweep` per axis carries it all.  The class sums left vanish by
    hypothesis, except that for step 2 paired classes cancel: the
    lex-greatest representative is reflected through centers[0] and swept
    on, each round emptying two classes, so more rounds than classes mean a
    broken hypothesis.
    """
    r, c0 = f.r, centers[0]
    pieces: list[defaultdict[Point, int]] = [defaultdict(int) for _ in centers]
    residual = f._entries
    for _ in range(step ** r + 1):
        for axis in range(r):
            residual = _sweep(residual, axis, c0, step, origin[axis],
                              pieces[0], pieces[axis + 1])
        if not residual:
            return [SkewPiece(LatticeFn._of(r, {p: v for p, v in d.items() if v}), c)
                    for d, c in zip(pieces, centers)]
        u = max(residual)
        dest = tuple(map(sub, c0, u))
        if tuple(o + (c - o) % step for c, o in zip(dest, origin)) == u:
            raise HypothesisViolation(f"class sum {residual[u]} at {u} "
                                      "cannot cancel (self-paired class)")
        v = residual.pop(u)
        pieces[0][u] += v
        pieces[0][dest] -= v
        # A zero sum here sits on a representative, where the sweep drops it.
        residual[dest] = residual.get(dest, 0) + v
    raise VerificationError("transport failed to terminate")


def _sweep(residual: dict[Point, int], axis: int, c0: Point, step: int, o: int,
           base: defaultdict, side: defaultdict) -> dict[Point, int]:
    """Carry each line of mass along e_axis to its target coordinate, the one
    of o, ..., o + step - 1 congruent to u_axis mod step, adding each step's
    dipoles to the pieces about c0 (base) and c0 + step*e_axis (side);
    returns the mass that arrives.  Each side of a line is walked from its
    far end, picking up mass on the way and jumping to the next occupied
    point where the carry cancels, so a sweep costs the points the routes
    visit, not the extent of the line.
    """
    lines: dict[tuple[Point, Point, int], dict[int, int]] = {}
    for u, v in residual.items():
        x = u[axis]
        lines.setdefault((u[:axis], u[axis + 1:], o + (x - o) % step), {})[x] = v
    c_pre, c_axis, c_post = c0[:axis], c0[axis], c0[axis + 1:]
    arrived: dict[Point, int] = {}
    for (pre, post, t), masses in lines.items():
        total = masses.pop(t, 0)
        if masses:
            m_pre, m_post = tuple(map(sub, c_pre, pre)), tuple(map(sub, c_post, post))
            xs = sorted(masses)
            split = bisect_left(xs, t)
            for run, d, first, second, c_first in (
                    (xs[split:][::-1], -step, side, base, c_axis + step),
                    (xs[:split], step, base, side, c_axis)):
                k, n = 0, len(run)
                while k < n:
                    x, v = run[k], masses[run[k]]
                    k += 1
                    u = pre + (x,) + post
                    while True:
                        mid = m_pre + (c_first - x,) + m_post
                        x += d
                        end = pre + (x,) + post
                        first[u] += v
                        first[mid] -= v
                        second[mid] += v
                        second[end] -= v
                        if x == t:
                            total += v
                            break
                        if k < n and run[k] == x:
                            v += masses[x]
                            k += 1
                            if not v:
                                break
                        u = end
        if total:
            arrived[pre + (t,) + post] = total
    return arrived


# ---------------------------------------------------------------------------
# the three center families
# ---------------------------------------------------------------------------

def skew_split_half(f: LatticeFn, two_p: Point) -> list[SkewPiece]:
    """r+1 pieces skew about p, p + e_1/2, ..., p + e_r/2 (2p = two_p).

    Requires the total sum of f to vanish.
    """
    two_p = tuple(two_p)
    if len(two_p) != f.r:
        raise ValueError("center dimension mismatch")
    if f.total() != 0:
        raise HypothesisViolation(f"total sum is {f.total()}, not 0")
    return _transport(f, _centers(two_p, 1), 1, tuple(c // 2 for c in two_p))


def skew_split_fixed_centers(f: LatticeFn, two_c: Point) -> list[SkewPiece]:
    """r+1 pieces skew about c, c + e_1, ..., c + e_r where 2c = two_c.

    Transport requires every residue class sum of f to cancel against the
    class paired with it by the reflection through c; classes that vanish
    individually (the usual hypothesis) always do.
    """
    two_c = tuple(two_c)
    if len(two_c) != f.r:
        raise ValueError("center dimension mismatch")
    sums = f.grid_sums()
    for v, total in sums.items():
        partner = tuple((c - e) % 2 for c, e in zip(two_c, v))
        if partner == v:
            if total != 0:
                raise HypothesisViolation(f"grid {v} is self-paired and sums to {total}")
        elif total + sums[partner] != 0:
            raise HypothesisViolation(
                f"grids {v} and {partner} sum to {total} + {sums[partner]} != 0")
    return _transport(f, _centers(two_c, 2), 2, (0,) * f.r)


def skew_split_grid(f: LatticeFn, p: Point) -> list[SkewPiece]:
    """r+1 pieces skew about p, p + e_1, ..., p + e_r for integer p.

    Requires all 2^r grid sums of f to vanish.  This is the fixed-center split
    about the integer point p, where every grid is self-paired, with the class
    representatives taken next to p.
    """
    p = tuple(p)
    if len(p) != f.r:
        raise ValueError("center dimension mismatch")
    for v, total in f.grid_sums().items():
        if total != 0:
            raise HypothesisViolation(f"grid {v} sums to {total}, not 0")
    return _transport(f, _centers(tuple(2 * c for c in p), 2), 2, p)
