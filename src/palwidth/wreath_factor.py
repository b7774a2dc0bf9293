"""Snake words over the lattice box and the bounded palindromic factorizers
for G wr Z^r.

A snake plan is a Hamiltonian walk of a box, stored in closed form: its core
word as runs, and the position of every box point on the walk by formula.
Injecting a mirror-symmetric word-valued function into the matching plan
yields a palindrome (or a palindrome times one inverse letter), and the
factorizers assemble those words into certificates.

The symmetric split and `inject` are unchecked builders.  Each factorizer
checks its factors once, at its boundary, with `words.check_factorization`:
a wrong split or a revisited walk stop shows there as a factor that is not
a palindrome or as a wrong product.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator

from .lattice import LatticeFn, Point
from .symmetric import symmetric_split, symmetric_split_refined_r1
from .words import EPSILON, Factorization, Word, check_factorization, concat, power
from .wreath import WreathContext, WreathElement, evaluate_word


@dataclass(frozen=True)
class SnakeStops:
    """The box points in walk order, computed on demand.

    The walk is boustrophedon over the slots: slot 1 runs fastest, and each
    sub-walk over slots 1..s-1 is traversed backwards at every odd coordinate
    of slot s.  `len`, `[k]` and `index(p)` each cost O(r); `points` and
    `offsets` do the same for many positions or points at once.
    """

    n: int
    axes: tuple[int, ...]    # 0-based lattice axis of each slot
    blocks: tuple[int, ...]  # points in one sub-walk over slots 1..s, for s = 0..r

    def __len__(self) -> int:
        return self.blocks[-1]

    def __getitem__(self, k: int) -> Point:
        if not 0 <= k < len(self):
            raise IndexError(f"walk stop {k} outside a walk of {len(self)} stops")
        return self.points([k])[0]

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points(range(len(self))))

    def index(self, p: Point) -> int:
        """Walk position of box point p; ValueError when p lies outside the box."""
        if len(p) != len(self.axes):
            raise ValueError(f"support point {p} escapes the snake box")
        return self.offsets([p])[0]

    def points(self, offsets: Iterable[int]) -> list[Point]:
        """The stop at each walk position; positions must lie in range(len(self))."""
        n, axes = self.n, self.axes
        ks = list(offsets)
        coords: list[list[int]] = [[]] * len(axes)
        for s in range(len(axes) - 1, 0, -1):
            block = self.blocks[s]
            cs = [k // block for k in ks]
            ks = [block - 1 - k % block if c & 1 else k % block for k, c in zip(ks, cs)]
            coords[axes[s]] = [c - n for c in cs]
        coords[axes[0]] = [k - n for k in ks]
        return list(zip(*coords))

    def offsets(self, points: list[Point]) -> list[int]:
        """The walk position of each point of rank r; ValueError names the
        first point outside the box."""
        n, axes, blocks = self.n, self.axes, self.blocks
        sizes = [b // a for a, b in zip(blocks, blocks[1:])]
        ks: list[int] = []
        for s, (axis, size) in enumerate(zip(axes, sizes)):
            cs = [p[axis] + n for p in points]
            if cs and (min(cs) < 0 or max(cs) >= size):
                bad = next(p for p in points if not all(
                    0 <= p[a] + n < bound for a, bound in zip(axes, sizes)))
                raise ValueError(f"support point {bad} escapes the snake box")
            block = blocks[s]
            ks = [c * block + (block - 1 - k if c & 1 else k)
                  for c, k in zip(cs, ks)] if s else cs
        return ks


@dataclass(frozen=True)
class SnakePlan:
    """Walk plan for one box: head/core/tail words plus the walk's stops.

    axis == 0 is the even variant (box [-n, n]^r, core a palindrome);
    axis == i >= 1 is the odd variant for that axis (box stretched to n+1
    along it, full word = palindrome times x_i^-1).  Stop k of the walk sits
    after k letters of the core; the walk starts at (-n, ..., -n).
    """

    ctx: WreathContext
    n: int
    axis: int
    head: Word
    core: Word
    tail: Word
    trailing: Word
    stops: SnakeStops

    @cached_property
    def word(self) -> Word:
        return concat([self.head, self.core, self.tail, self.trailing])


def _slot_axes(r: int, axis: int) -> tuple[int, ...]:
    """0-based lattice axis of each walk slot; slot 1 plays the distinguished axis."""
    if axis == 0:
        return tuple(range(r))
    return (axis - 1,) + tuple(a for a in range(r) if a != axis - 1)


def build_snake(ctx: WreathContext, n: int, axis: int = 0) -> SnakePlan:
    """Snake plan of box radius n; axis 0 for the even variant, 1..r otherwise.

    The core is built as runs: one slot-1 row, then for each further slot
    W -> (W x_s W^-1 x_s)^n W, so it costs O((2n+1)^(r-1)) runs.  Rows and
    unit steps alternate, so the runs are maximal as built, and the core has
    one letter per move between stops.
    """
    if n < 0:
        raise ValueError(f"box radius must be >= 0, got {n}")
    if not 0 <= axis <= ctx.r:
        raise ValueError(f"axis {axis} out of range for rank {ctx.r}")
    r = ctx.r
    axes = _slot_axes(r, axis)
    gens = [ctx.lattice_gen(a) for a in axes]
    first_len = 2 * n + (1 if axis else 0)
    runs: list[tuple[int, int]] = [(gens[0], first_len)] if first_len else []
    for gen in gens[1:]:
        step = [(gen, 1)]
        runs = (runs + step + [(g, -e) for g, e in reversed(runs)] + step) * n + runs

    head = concat([power(gen, -n) for gen in gens])
    tail = concat([power(gen, -n) for gen in reversed(gens)])
    trailing = Word(((ctx.lattice_gen(axis - 1), -1),)) if axis else EPSILON
    sizes = (first_len + 1,) + (2 * n + 1,) * (r - 1)
    stops = SnakeStops(n, axes, tuple(accumulate(sizes, operator.mul, initial=1)))
    core = Word._of(tuple(runs), len(stops) - 1)
    return SnakePlan(ctx, n, axis, head, core, tail, trailing, stops)


def _core_letters(core: tuple[tuple[int, int], ...], row: int, a: int, b: int) -> Word:
    """Letters a to b - 1 of a snake core whose runs alternate one slot-1 row
    of row - 1 letters with one unit step, so letter k lies in run
    2 * (k // row); whole runs in between are copied as one slice."""
    def part(run: tuple[int, int], size: int) -> tuple[tuple[int, int], ...]:
        return ((run[0], size if run[1] > 0 else -size),) if size else ()

    i, x = divmod(a, row)
    j, y = divmod(b, row)
    if i == j:
        runs = part(core[2 * i], y - x) if y > x else ()
    else:
        runs = (part(core[2 * i], row - 1 - x) + core[2 * i + 1:2 * j]
                + (part(core[2 * j], y) if y else ()))
    return Word._of(runs, b - a)


def inject(plan: SnakePlan, f: LatticeFn) -> Word:
    """Insert f(x) at every walk stop x; support must stay inside the box.

    Costs O(support * log support) Python steps: the support points are
    sorted by walk position, the core letters between consecutive points are
    cut out by formula, and `concat` merges runs only at the seams.
    """
    stops = plan.stops
    if f.r != len(stops.axes):
        raise ValueError(f"rank-{f.r} function injected into a rank-{len(stops.axes)} snake")
    entries = f.items()
    offsets = stops.offsets([p for p, _ in entries])
    core, row = plan.core.runs, stops.blocks[1]
    parts = [plan.head]
    done = 0  # core letters emitted so far
    for k, value in sorted(zip(offsets, [value for _, value in entries]),
                           key=operator.itemgetter(0)):
        parts += (_core_letters(core, row, done, k), value)
        done = k
    parts += (_core_letters(core, row, done, len(plan.core)), plan.tail, plan.trailing)
    return concat(parts)


def _odd_box_radius(piece: LatticeFn, axis: int) -> int:
    """Smallest n with support in [-n, n+1] along `axis` (0-based) and [-n, n] elsewhere."""
    n = 0
    for p in piece.support():
        for j, c in enumerate(p):
            if j == axis:
                n = max(n, -c, c - 1)
            else:
                n = max(n, abs(c))
    return n


def _assemble(e: WreathElement, split, bound: int | None) -> Factorization:
    ctx = e.ctx
    factors: list[Word] = []

    if split.gamma_factors is not None:
        factors.extend(w for w in split.gamma_factors if w)
    else:
        factors.extend(w for w in ctx.base.palindromic_factorization(split.gamma) if w)

    if not split.f0.is_zero():
        plan = build_snake(ctx, split.f0.box_radius(), 0)
        factors.append(inject(plan, split.f0))

    tail_axis_open = False
    for axis0, piece in enumerate(split.fi):
        if piece.is_zero():
            continue
        plan = build_snake(ctx, _odd_box_radius(piece, axis0), axis0 + 1)
        palindrome, trailing = inject(plan, piece).split(-1)
        factors.append(palindrome)
        if axis0 == ctx.r - 1:
            tail_axis_open = True  # its trailing inverse merges with the shift block
        else:
            factors.append(trailing)

    for axis0 in range(ctx.r - 1, -1, -1):
        exp = e.shift[axis0]
        if axis0 == ctx.r - 1 and tail_axis_open:
            exp -= 1
        if exp:
            factors.append(power(ctx.lattice_gen(axis0), exp))

    check_factorization(lambda ws: evaluate_word(ctx, concat(ws)), e, factors, bound)
    return Factorization(factors, bound)


def factorize_wreath(e: WreathElement) -> Factorization:
    """At most 3r + PW(G) palindromes whose product evaluates to e."""
    ctx = e.ctx
    words = e.fn.map_values(ctx.base.canonical_word, zero=EPSILON)
    split = symmetric_split(words, ctx.base)
    bound = None if ctx.base.pw is None else 3 * ctx.r + ctx.base.pw
    return _assemble(e, split, bound)


def factorize_wreath_z(e: WreathElement) -> Factorization:
    """Rank-1 refinement: at most 2 + PW(G) palindromes."""
    if e.ctx.r != 1:
        raise ValueError(f"rank-1 factorizer got rank {e.ctx.r}")
    ctx = e.ctx
    words = e.fn.map_values(ctx.base.canonical_word, zero=EPSILON)
    split = symmetric_split_refined_r1(words, ctx.base)
    bound = None if ctx.base.pw is None else 2 + ctx.base.pw
    return _assemble(e, split, bound)
