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
through the centers; the hypothesis of each family is what makes the mass
left there vanish.

The split functions are builders: they reject input that breaks their
family's hypothesis but do not check their own output.  The metabelian
factorizer checks its final factors at its boundary, where a wrong split
shows as a wrong product; `decompose skew` and `palwidth verify` run
`check_pieces` on pieces they emit or read.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import HypothesisViolation, VerificationError
from .lattice import LatticeFn, Point, from_items, zero_fn


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


def _transport(f: LatticeFn, centers: list[Point], step: int) -> list[SkewPiece]:
    """Decompose f into dipoles about the given doubled centers.

    A move of value v from u to sigma_alpha(u) = centers[alpha] - u appends
    the dipole v*(delta_u - delta_sigma(u)) to piece alpha; composing a move
    about centers[alpha] with one about centers[0] translates mass by
    +-step*e_alpha.  Every point is carried to the canonical representative
    of its residue class mod step (the origin when step is 1), one step at a
    time along its first axis off the representative; what remains there is
    a class sum, which the hypotheses force to zero, except that for step 2
    opposite classes may cancel through one extra reflection.

    Each unit of mass follows that same route whatever the order of moves,
    and dipoles are linear in v, so the order changes no piece; it only
    decides how often mass merges.  Points are moved farthest first, by
    their per-axis distances to the representative read from the last axis
    down: a move strictly lowers that key, so every unit headed through a
    point has arrived before the point moves, and each point moves once.
    """
    r = f.r
    residual: dict[Point, int] = {}
    dipoles: list[list[tuple[Point, int]]] = [[] for _ in centers]
    # Min-heap of (negated per-axis distances to the representative, last
    # axis first; point) for every point that entered the residual off its
    # representative, so the farthest pops first, ties by point.  Entries
    # that left the residual since are skipped.
    heap: list[tuple[Point, Point]] = []

    def canonical(u: Point) -> Point:
        return tuple(c % step if step > 1 else 0 for c in u)

    def deposit(u: Point, v: int) -> None:
        """Add v at u; a point new to the residual enters the heap."""
        total = residual.get(u, 0) + v
        if total == 0:
            del residual[u]
            return
        if u not in residual:
            target = canonical(u)
            if u != target:
                key = tuple(-abs(c - t) for c, t in zip(reversed(u), reversed(target)))
                heapq.heappush(heap, (key, u))
        residual[u] = total

    for u, v in f.items():
        deposit(u, v)

    def reflect(u: Point, alpha: int) -> Point:
        return tuple(c - x for c, x in zip(centers[alpha], u))

    def half_move(u: Point, alpha: int) -> None:
        """One reflection: relocate all mass at u to sigma_alpha(u)."""
        v = residual.pop(u)
        dest = reflect(u, alpha)
        dipoles[alpha].append((u, v))
        dipoles[alpha].append((dest, -v))
        deposit(dest, v)

    def translate(u: Point, alpha_first: int, alpha_second: int) -> None:
        """Two reflections moving the mass at u without disturbing the
        faraway waypoint (its two dipole contributions cancel across pieces)."""
        v = residual.pop(u)
        mid = reflect(u, alpha_first)
        end = reflect(mid, alpha_second)
        dipoles[alpha_first].append((u, v))
        dipoles[alpha_first].append((mid, -v))
        dipoles[alpha_second].append((mid, v))
        dipoles[alpha_second].append((end, -v))
        deposit(end, v)

    guard = 0
    limit = 8 * (sum(sum(abs(c) for c in p) + 2 * r for p in f.support()) + 4 ** r + 4)
    while residual:
        guard += 1
        if guard > max(limit, 10_000):
            raise VerificationError("transport failed to terminate")
        while heap and heap[0][1] not in residual:
            heapq.heappop(heap)
        if not heap:
            # Everything sits on representatives; cancel the lex-greatest
            # against its paired class through the base reflection.
            u = max(residual)
            if canonical(reflect(u, 0)) == u:
                raise HypothesisViolation(f"class sum {residual[u]} at {u} "
                                          "cannot cancel (self-paired class)")
            half_move(u, 0)
            continue
        u = heapq.heappop(heap)[1]
        target = canonical(u)
        axis = next(j for j in range(r) if u[j] != target[j])
        if u[axis] > target[axis]:
            translate(u, axis + 1, 0)   # net -step*e_axis
        else:
            translate(u, 0, axis + 1)   # net +step*e_axis

    return [SkewPiece(from_items(r, d), c) for d, c in zip(dipoles, centers)]


def _transport_at(f: LatticeFn, shift: Point, two_c: Point, step: int) -> list[SkewPiece]:
    """Transport of f translated by -shift onto _centers(two_c, step), with
    the pieces translated back by shift.  Callers take shift from the center,
    so translating f and the center together translates every piece."""
    moved = f.shift(tuple(-s for s in shift))
    return [SkewPiece(piece.fn.shift(shift),
                      tuple(c + 2 * s for c, s in zip(piece.two_center, shift)))
            for piece in _transport(moved, _centers(two_c, step), step)]


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
    shift = tuple(c // 2 for c in two_p)
    tau = tuple(c - 2 * s for c, s in zip(two_p, shift))
    return _transport_at(f, shift, tau, 1)


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
    return _transport(f, _centers(two_c, step=2), step=2)


def skew_split_grid(f: LatticeFn, p: Point) -> list[SkewPiece]:
    """r+1 pieces skew about p, p + e_1, ..., p + e_r for integer p.

    Requires all 2^r grid sums of f to vanish.  This is the fixed-center split
    about the integer point p, where every grid is self-paired; f is moved to
    put p at the origin, split there, and moved back.
    """
    p = tuple(p)
    if len(p) != f.r:
        raise ValueError("center dimension mismatch")
    for v, total in f.grid_sums().items():
        if total != 0:
            raise HypothesisViolation(f"grid {v} sums to {total}, not 0")
    return _transport_at(f, p, (0,) * f.r, 2)
