"""Exact arithmetic in the free metabelian group of rank r via edge flows.

An element is a shift vector (its abelianization) plus a finitely supported
integer flow on the grid graph of Z^r, with divergence +1 at the origin and
-1 at the shift.  Words over x_1..x_r evaluate by tracing their path; two
words are equal in the group exactly when their flows agree.  A product of
palindromes is traced from their first halves: if H has shift s, the edge
(p, a) of H is the edge (s - p - e_a, a) of reverse(H), each taken relative
to its word's start, with the same value.  Shift-zero elements (the derived
subgroup) convert to and from commutator-power coefficient functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any, Sequence

from .errors import VerificationError
from .lattice import (LatticeFn, Point, json_field, json_int, json_list, json_object,
                      json_point)
from .words import Alphabet, Run, Word

Edge = tuple[Point, int]  # (tail point, 0-based axis)


@cache
def free_alphabet(r: int) -> Alphabet:
    """x1..xr; one Alphabet per rank, so parse_word's letter table is built once."""
    return Alphabet(tuple(f"x{i}" for i in range(1, r + 1)))


@dataclass(frozen=True)
class FlowElement:
    """Shift vector plus sparse edge flow; equality is componentwise."""

    r: int
    shift: Point
    edges: dict[Edge, int]

    def __post_init__(self) -> None:
        _check_divergence(self.r, self.shift, self.edges)

    @classmethod
    def _of(cls, r: int, shift: Point, edges: dict[Edge, int]) -> "FlowElement":
        """Wrap a flow already known to be a path from the origin to shift,
        skipping the divergence check."""
        element = cls.__new__(cls)
        object.__setattr__(element, "r", r)
        object.__setattr__(element, "shift", shift)
        object.__setattr__(element, "edges", edges)
        return element

    def is_identity(self) -> bool:
        return not self.edges and all(c == 0 for c in self.shift)

    def frozen(self) -> tuple:
        return (self.shift, tuple(sorted(self.edges.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowElement):
            return NotImplemented
        return (self.r == other.r and self.shift == other.shift
                and self.edges == other.edges)


def _check_divergence(r: int, shift: Point, edges: dict[Edge, int]) -> None:
    """Net outflow must be +1 at the origin, -1 at the shift, 0 elsewhere."""
    if r < 1 or len(shift) != r:
        raise ValueError(f"shift {shift} does not fit rank {r}")
    div: dict[Point, int] = {}
    for (point, axis), value in edges.items():
        if not 0 <= axis < r or len(point) != r:
            raise ValueError(f"bad edge {(point, axis)} for rank {r}")
        div[point] = div.get(point, 0) + value
        head = tuple(c + (1 if j == axis else 0) for j, c in enumerate(point))
        div[head] = div.get(head, 0) - value
    origin = (0,) * r
    for point in set(div) | {origin, tuple(shift)}:
        expected = (point == origin) - (point == tuple(shift))
        if div.get(point, 0) != expected:
            raise VerificationError(f"divergence at {point} is {div.get(point, 0)}, "
                                    f"expected {expected}")


def identity_flow(r: int) -> FlowElement:
    return FlowElement._of(r, (0,) * r, {})


def _clean(edges: dict[Edge, int]) -> dict[Edge, int]:
    return {e: v for e, v in edges.items() if v}


def _walk(runs: Sequence[Run], key: int, step: dict[int, int], edges: dict[int, int]) -> int:
    """Add the signed edge passages of the runs, walked from the point coded
    `key`, into `edges`; return the code of the end point."""
    get = edges.get
    try:
        for gen, exp in runs:
            move = step[gen]
            if exp == 1:
                k = key + gen
                edges[k] = get(k, 0) + 1
                key += move
            elif exp == -1:
                key -= move
                k = key + gen
                edges[k] = get(k, 0) - 1
            elif exp > 0:
                start = key + gen
                key += exp * move
                for k in range(start, key + gen, move):
                    edges[k] = get(k, 0) + 1
            else:
                start = key + gen - move
                key += exp * move
                for k in range(start, key + gen - 1, -move):
                    edges[k] = get(k, 0) - 1
    except KeyError:
        raise ValueError(f"letter index {gen} outside rank-{len(step)} alphabet") from None
    return key


def evaluate_word_flow(r: int, word: Word | Sequence[Word]) -> FlowElement:
    """Trace the path of a word, or of the product of a factor list, from the
    origin, counting signed edge passages.

    The path never leaves the box |coordinate| <= n, n its number of letters,
    so the walk codes a point as one integer, mixed radix 2n+1 per axis, and
    an edge (point, axis) as code * r + axis.  A letter then costs one
    addition and one dict update; only the nonzero edges are decoded back to
    (point, axis), once, at the end.  A single word is walked letter by
    letter and keeps its edges in first-passage order.

    In a factor list, each literal palindrome H c reverse(H), c empty or one
    run, is walked only through H and c.  Let s be H's shift: an edge (p, a)
    of H, taken relative to H's start, is the edge (s - p - e_a, a) of
    reverse(H), taken relative to reverse(H)'s start, with the same value.
    In key coding that is the key K - k + 2a - step[a], a = k mod r, where K
    is the key after c plus the key after H, so H's edges are added a second
    time, reflected.  Other factors are walked letter by letter.
    """
    if r < 1:
        raise ValueError(f"rank {r} must be at least 1")
    halve = not isinstance(word, Word)
    words = word if halve else (word,)
    span = sum(map(len, words))
    base = 2 * span + 1
    step = {gen: r * base ** gen for gen in range(r)}  # key change per unit step
    reflect = [2 * axis - step[axis] for axis in range(r)]
    key = r * span * sum(base ** axis for axis in range(r))  # the origin
    edges: dict[int, int] = {}
    get = edges.get
    for w in words:
        runs = w.runs
        half = len(runs) // 2
        if halve and half and runs == runs[::-1]:
            mirror: dict[int, int] = {}
            mid = _walk(runs[:half], key, step, mirror)
            end = _walk(runs[half:len(runs) - half], mid, step, edges)
            total = end + mid
            for k, v in mirror.items():
                if v:
                    edges[k] = get(k, 0) + v
                    k = total - k + reflect[k % r]
                    edges[k] = get(k, 0) + v
            key = end + mid - key
        else:
            key = _walk(runs, key, step, edges)

    def point(code: int) -> Point:
        coords = []
        for _ in range(r):
            code, digit = divmod(code, base)
            coords.append(digit - span)
        return tuple(coords)

    flow = {(point(k // r), k % r): v for k, v in edges.items() if v}
    return FlowElement._of(r, point(key // r), flow)


def multiply_flow(a: FlowElement, b: FlowElement) -> FlowElement:
    """Concatenation of flows: b is translated by a's shift, then added."""
    if a.r != b.r:
        raise ValueError("rank mismatch")
    edges = dict(a.edges)
    for (point, axis), value in b.edges.items():
        key = (tuple(c + s for c, s in zip(point, a.shift)), axis)
        edges[key] = edges.get(key, 0) + value
    shift = tuple(x + y for x, y in zip(a.shift, b.shift))
    return FlowElement._of(a.r, shift, _clean(edges))


def invert_flow(a: FlowElement) -> FlowElement:
    neg = tuple(-c for c in a.shift)
    edges = {(tuple(c + n for c, n in zip(point, neg)), axis): -value
             for (point, axis), value in a.edges.items()}
    return FlowElement._of(a.r, neg, edges)


# ---------------------------------------------------------------------------
# commutator-power coefficients
# ---------------------------------------------------------------------------

Pair = tuple[int, int]  # 0-based axis pair (i, j), i < j


@dataclass
class SquareCoeffs:
    """Integer coefficient function per commutator [x_i, x_j] (axes 0-based)."""

    r: int
    coeffs: dict[Pair, LatticeFn]

    def __post_init__(self) -> None:
        for (i, j), fn in list(self.coeffs.items()):
            if not 0 <= i < j < self.r:
                raise ValueError(f"bad axis pair {(i, j)} for rank {self.r}")
            if fn.is_zero():
                del self.coeffs[(i, j)]

    def pairs(self) -> list[Pair]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


def squares_to_element(c: SquareCoeffs) -> FlowElement:
    """Sum of shifted commutator flows; always a shift-zero element.

    [x_i, x_j]^v conjugated to p is v on the edges (p, i) and (p + e_i, j)
    and -v on (p + e_j, i) and (p, j).
    """
    edges: dict[Edge, int] = {}
    get = edges.get
    for pair in c.pairs():
        i, j = pair
        for p, v in c.coeffs[pair].items():
            for edge, w in (((p, i), v), ((p[:i] + (p[i] + 1,) + p[i + 1:], j), v),
                            ((p[:j] + (p[j] + 1,) + p[j + 1:], i), -v), ((p, j), -v)):
                edges[edge] = get(edge, 0) + w
    return FlowElement._of(c.r, (0,) * c.r, _clean(edges))


def circulation_to_squares(h: FlowElement) -> SquareCoeffs:
    """One concrete coefficient choice for a shift-zero element.

    Axes are peeled from the top down.  For the current top axis j, every
    axis-i edge column (i < j) is telescoped along e_j by squares on the
    pair (i, j): above height zero f(y) = -sum_{t>y} E(t), below it
    f(y) = sum_{t<=y} E(t).  Subtracting the implied square flows moves all
    remaining axis-i edges into the height-zero hyperplane and, because the
    residual stays divergence free, wipes out the axis-j edges entirely;
    the residual is then a flow of one rank lower and the peel repeats.
    The final residual must be the identity, which is asserted; since every
    flow here has shift zero, that already means the result's square flows
    sum to h.
    """
    if any(c != 0 for c in h.shift):
        raise ValueError(f"nonzero shift {h.shift}: not in the derived subgroup")
    r = h.r
    coeffs: dict[Pair, LatticeFn] = {}
    residual = h
    for j in range(r - 1, 0, -1):
        batch: dict[Pair, LatticeFn] = {}
        for i in range(j):
            columns: dict[tuple, dict[int, int]] = {}
            for (point, axis), value in residual.edges.items():
                if axis != i:
                    continue
                key = point[:j] + point[j + 1:]
                columns.setdefault(key, {})[point[j]] = value
            table: dict[Point, int] = {}
            for key, col in columns.items():
                heights = sorted(col)
                acc = 0
                for y in range(heights[-1] - 1, -1, -1):
                    acc += col.get(y + 1, 0)
                    if acc:
                        table[key[:j] + (y,) + key[j:]] = -acc
                acc = 0
                for y in range(heights[0], 0):
                    acc += col.get(y, 0)
                    if acc:
                        table[key[:j] + (y,) + key[j:]] = acc
            if table:
                batch[(i, j)] = LatticeFn(r, table)
        if batch:
            implied = squares_to_element(SquareCoeffs(r, dict(batch)))
            residual = multiply_flow(residual, invert_flow(implied))
            coeffs.update(batch)
        for (point, axis) in residual.edges:
            if axis >= j or point[j] != 0:
                raise VerificationError(
                    f"peeling axis {j + 1} left the edge {(point, axis)} behind")
    if residual.edges:
        raise VerificationError("rank-1 residual flow is nonzero")
    return SquareCoeffs(r, coeffs)


def lattice_word(r: int, point: Point) -> Word:
    """Canonical monomial x_1^(u_1) ... x_r^(u_r) for a lattice point."""
    return Word._of(tuple((axis, exp) for axis, exp in enumerate(point) if exp),
                    sum(map(abs, point)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def flow_to_json(e: FlowElement) -> dict:
    return {
        "r": e.r,
        "shift": list(e.shift),
        "edges": [{"pos": list(point), "axis": axis + 1, "val": value}
                  for (point, axis), value in sorted(e.edges.items())],
    }


def flow_from_json(data: Any) -> FlowElement:
    """Inverse of flow_to_json; a malformed shape, or an edge given twice,
    raises ValueError."""
    data = json_object(data, "flow element")
    r = json_int(json_field(data, "r", "flow element"), "rank")
    edges: dict[Edge, int] = {}
    for item in json_list(json_field(data, "edges", "flow element"), "edges"):
        item = json_object(item, "flow edge")
        key = (json_point(json_field(item, "pos", "flow edge"), "edge pos"),
               json_int(json_field(item, "axis", "flow edge"), "edge axis") - 1)
        if key in edges:
            raise ValueError(f"duplicate flow edge at pos {list(key[0])}, axis {key[1] + 1}")
        edges[key] = json_int(json_field(item, "val", "flow edge"), "edge value")
    shift = json_point(json_field(data, "shift", "flow element"), "shift")
    try:
        return FlowElement(r, shift, _clean(edges))
    except VerificationError as exc:  # a flow that is not a path: malformed input
        raise ValueError(f"not a group element: {exc}") from None
