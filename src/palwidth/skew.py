"""Decompositions of integer functions on Z^r into skew-symmetric pieces.

A piece is skew-symmetric about a (possibly half-integer) center c when
fn(x) = -fn(2c - x) for all x; centers are always carried doubled so the
arithmetic stays in the integers.  Three decompositions are provided:

* half-step centers c, c + e_1/2, ..., c + e_r/2 for zero-sum functions,
* integer-step centers p, p + e_1, ..., p + e_r for functions whose 2^r
  grid sums all vanish (via pullback to the half-step case on each grid),
* fixed half-integer centers c, c + e_1, ..., c + e_r via mass transport,
  used by the metabelian pipeline.

The half-step construction follows the outside-in jump recursion along an
axis where the doubled center is even, slicing off that axis and recursing;
when every coordinate of the doubled center is odd the transport
construction takes over (the slice recursion cannot reach those centers).
Every public operation re-verifies its output before returning it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import HypothesisViolation, VerificationError
from .lattice import LatticeFn, Point, from_items, grid_vectors, zero_fn


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


def check_pieces(f: LatticeFn, pieces: list[SkewPiece], context: str) -> list[SkewPiece]:
    """Raise VerificationError unless every piece is skew about its center and
    the pieces sum to f; return the pieces."""
    total = zero_fn(f.r)
    for piece in pieces:
        if not piece.is_valid():
            raise VerificationError(f"{context}: piece about {piece.two_center} "
                                    "fails skew symmetry")
        total = total.add(piece.fn)
    if total != f:
        raise VerificationError(f"{context}: pieces do not sum to the input")
    return pieces


# ---------------------------------------------------------------------------
# half-step centers
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
    base = _split_parity(f.shift(tuple(-s for s in shift)), tau)
    pieces = [SkewPiece(piece.fn.shift(shift),
                        tuple(c + 2 * s for c, s in zip(piece.two_center, shift)))
              for piece in base]
    return check_pieces(f, pieces, "half-step split")


def _split_parity(f: LatticeFn, tau: Point) -> list[SkewPiece]:
    """Split about tau/2 and tau/2 + e_i/2 where tau is a 0/1 vector."""
    r = f.r
    if f.is_zero():
        return _zero_pieces(r, tau, step=1)
    if r == 1:
        return _split_axis_rank1(f, tau[0])
    for axis in range(r - 1, -1, -1):
        if tau[axis] == 0:
            return _split_even_axis(f, tau, axis)
    # Every coordinate of the center is a strict half-integer: transport.
    centers = _centers(tau, step=1)
    return _transport(f, centers, step=1)


def _zero_pieces(r: int, two_c: Point, step: int) -> list[SkewPiece]:
    return [SkewPiece(zero_fn(r), c) for c in _centers(two_c, step)]


def _centers(two_c: Point, step: int) -> list[Point]:
    """Doubled centers two_c, two_c + step*e_1, ..., two_c + step*e_r."""
    r = len(two_c)
    out = [tuple(two_c)]
    for axis in range(r):
        out.append(tuple(c + (step if j == axis else 0)
                         for j, c in enumerate(two_c)))
    return out


def _split_axis_rank1(f: LatticeFn, tau: int) -> list[SkewPiece]:
    """Rank-1 jump recursion; tau is the doubled center, 0 or 1."""
    n = max(1, f.box_radius())
    g: dict[int, int] = {}
    h: dict[int, int] = {}
    if tau == 0:
        # g skew about 0, h skew about 1/2.
        for i in range(n, 0, -1):
            g[-i] = f[(-i,)] - h.get(-i, 0)
            g[i] = -g[-i]
            h[1 - i] = g[i] - f[(i,)]
            h[i] = -h[1 - i]
        g[0] = f[(0,)] - h.get(0, 0)
        if g[0] != 0:
            raise VerificationError("rank-1 split: center value nonzero despite zero sum")
        pieces = [g, h]
    else:
        # h skew about 1/2, g skew about 1.
        g[-n] = 0
        for i in range(n, 0, -1):
            h[-i] = f[(-i,)] - g.get(-i, 0)
            h[i + 1] = -h[-i]
            g[-i + 1] = h[i + 1] - f[(i + 1,)]
            g[i + 1] = -g[-i + 1]
        h[0] = f[(0,)] - g.get(0, 0)
        h[1] = -h[0]
        g[1] = f[(1,)] - h[1]
        if g[1] != 0:
            raise VerificationError("rank-1 split: center value nonzero despite zero sum")
        pieces = [h, g]
    fns = [LatticeFn(1, {(x,): v for x, v in table.items()}) for table in pieces]
    return [SkewPiece(fns[0], (tau,)), SkewPiece(fns[1], (tau + 1,))]


def _split_even_axis(f: LatticeFn, tau: Point, axis: int) -> list[SkewPiece]:
    """Jump recursion along an axis with an integer center coordinate.

    Produces one piece skew about the center off the fixed hyperplane, one
    piece skew about center + e_axis/2, then recurses on the hyperplane slice
    where the first piece's symmetry cannot be controlled.
    """
    r = f.r
    n = max(1, max((abs(p[axis]) for p in f.support()), default=1))
    s = tuple(c for j, c in enumerate(tau) if j != axis)  # doubled slice center

    def put(x: Point, level: int) -> Point:
        return x[:axis] + (level,) + x[axis:]

    columns = sorted({p[:axis] + p[axis + 1:] for p in f.support()})
    columns = sorted(set(columns)
                     | {tuple(sc - c for sc, c in zip(s, x)) for x in columns})
    g: dict[Point, int] = {}
    h: dict[Point, int] = {}
    for x in columns:
        mx = tuple(sc - c for sc, c in zip(s, x))
        for i in range(n, 0, -1):
            g[put(mx, -i)] = f[put(mx, -i)] - h.get(put(mx, -i), 0)
            g[put(x, i)] = -g[put(mx, -i)]
            h[put(mx, 1 - i)] = g[put(x, i)] - f[put(x, i)]
            h[put(x, i)] = -h[put(mx, 1 - i)]
    for x in columns:
        g[put(x, 0)] = f[put(x, 0)] - h.get(put(x, 0), 0)

    # Recurse on the level-0 slice, then merge its center-piece with g.
    slice_fn = LatticeFn(r - 1, {x: g[put(x, 0)] for x in columns})
    g_off = LatticeFn(r, {p: v for p, v in g.items() if p[axis] != 0})
    sub = _split_parity(slice_fn, s)

    def embed(piece: LatticeFn) -> LatticeFn:
        return LatticeFn(r, {put(x, 0): v for x, v in piece.items()})

    pieces = [SkewPiece(g_off.add(embed(sub[0].fn)), tuple(tau))]
    slice_axes = [j for j in range(r) if j != axis]
    for sub_piece, target_axis in zip(sub[1:], slice_axes):
        fn = embed(sub_piece.fn)
        pieces.append(SkewPiece(fn, _bump(tau, target_axis, 1)))
    pieces.append(SkewPiece(LatticeFn(r, h), _bump(tau, axis, 1)))

    # Reorder so piece alpha sits at center tau + e_alpha/2.
    ordered = [pieces[0]]
    by_center = {p.two_center: p for p in pieces[1:]}
    for alpha in range(r):
        ordered.append(by_center[_bump(tau, alpha, 1)])
    return ordered


def _bump(two_c: Point, axis: int, step: int) -> Point:
    return tuple(c + (step if j == axis else 0) for j, c in enumerate(two_c))


# ---------------------------------------------------------------------------
# mass transport onto fixed centers
# ---------------------------------------------------------------------------

def _transport(f: LatticeFn, centers: list[Point], step: int) -> list[SkewPiece]:
    """Decompose f into dipoles about the given doubled centers.

    A move of value v from u to sigma_alpha(u) = centers[alpha] - u appends
    the dipole v*(delta_u - delta_sigma(u)) to piece alpha; composing a move
    about centers[alpha] with one about centers[0] translates mass by
    +-step*e_alpha.  Every point is carried to the canonical representative
    of its residue class mod step (the origin when step is 1); what remains
    there is a class sum, which the hypotheses force to zero, except that for
    step 2 opposite classes may cancel through one extra reflection.
    """
    r = f.r
    residual = dict(f.items())
    dipoles: list[list[tuple[Point, int]]] = [[] for _ in centers]
    # Max-heap (points negated) of every point that entered the residual off
    # its representative; entries that left the residual since are skipped.
    heap: list[Point] = []

    def canonical(u: Point) -> Point:
        return tuple(c % step if step > 1 else 0 for c in u)

    def enter(u: Point) -> None:
        if u != canonical(u):
            heapq.heappush(heap, tuple(-c for c in u))

    for u in residual:
        enter(u)

    def reflect(u: Point, alpha: int) -> Point:
        return tuple(c - x for c, x in zip(centers[alpha], u))

    def half_move(u: Point, alpha: int) -> Point:
        """One reflection: relocate all mass at u to sigma_alpha(u)."""
        v = residual.pop(u)
        dest = reflect(u, alpha)
        dipoles[alpha].append((u, v))
        dipoles[alpha].append((dest, -v))
        residual[dest] = residual.get(dest, 0) + v
        if residual[dest] == 0:
            del residual[dest]
        else:
            enter(dest)
        return dest

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
        residual[end] = residual.get(end, 0) + v
        if residual[end] == 0:
            del residual[end]
        else:
            enter(end)

    guard = 0
    limit = 8 * (sum(sum(abs(c) for c in p) + 2 * r for p in f.support()) + 4 ** r + 4)
    while residual:
        guard += 1
        if guard > max(limit, 10_000):
            raise VerificationError("transport failed to terminate")
        while heap and tuple(-c for c in heap[0]) not in residual:
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
        u = tuple(-c for c in heapq.heappop(heap))
        target = canonical(u)
        axis = next(j for j in range(r) if u[j] != target[j])
        if u[axis] > target[axis]:
            translate(u, axis + 1, 0)   # net -step*e_axis
        else:
            translate(u, 0, axis + 1)   # net +step*e_axis

    pieces = [SkewPiece(from_items(r, d), c) for d, c in zip(dipoles, centers)]
    return pieces


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
    if f.is_zero():
        return _zero_pieces(f.r, two_c, step=2)
    pieces = _transport(f, _centers(two_c, step=2), step=2)
    return check_pieces(f, pieces, "fixed-center split")


# ---------------------------------------------------------------------------
# integer-step centers via grid doubling
# ---------------------------------------------------------------------------

def skew_split_grid(f: LatticeFn, p: Point) -> list[SkewPiece]:
    """r+1 pieces skew about p, p + e_1, ..., p + e_r for integer p.

    Requires all 2^r grid sums of f to vanish.  Each grid 2Z^r + v is pulled
    back through x -> 2x + v, split with half-step centers (p - v)/2, and
    pushed forward; centers transform to p + e_i uniformly in v, so the
    per-grid pieces add up.
    """
    p = tuple(p)
    if len(p) != f.r:
        raise ValueError("center dimension mismatch")
    r = f.r
    for v, total in f.grid_sums().items():
        if total != 0:
            raise HypothesisViolation(f"grid {v} sums to {total}, not 0")
    totals = [zero_fn(r) for _ in range(r + 1)]
    for v in grid_vectors(r):
        part = {point: val for point, val in f.items()
                if tuple(c % 2 for c in point) == v}
        if not part:
            continue
        pulled = LatticeFn(r, {tuple((c - e) // 2 for c, e in zip(point, v)): val
                               for point, val in part.items()})
        halves = skew_split_half(pulled, tuple(c - e for c, e in zip(p, v)))
        for alpha, piece in enumerate(halves):
            pushed = LatticeFn(r, {tuple(2 * c + e for c, e in zip(point, v)): val
                                   for point, val in piece.fn.items()})
            totals[alpha] = totals[alpha].add(pushed)
    doubled = _centers(tuple(2 * c for c in p), step=2)
    pieces = [SkewPiece(fn, c) for fn, c in zip(totals, doubled)]
    return check_pieces(f, pieces, "grid split")
