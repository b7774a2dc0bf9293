"""Snake words over the lattice box and the bounded palindromic factorizers
for G wr Z^r.

A snake plan is a Hamiltonian walk of a box together with the insertion slot
for every box point.  Injecting a mirror-symmetric word-valued function into
the matching plan yields a palindrome (or a palindrome times one inverse
letter), and the factorizers assemble those words into certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import VerificationError
from .lattice import LatticeFn, Point
from .symmetric import symmetric_split, symmetric_split_refined_r1
from .words import EPSILON, Factorization, Word, check_factorization, concat, power
from .wreath import WreathContext, WreathElement, evaluate_word


@dataclass(frozen=True)
class SnakePlan:
    """Walk plan for one box: head/core/tail words plus insertion geometry.

    axis == 0 is the even variant (box [-n, n]^r, core a palindrome);
    axis == i >= 1 is the odd variant for that axis (box stretched to n+1
    along it, full word = palindrome times x_i^-1).
    """

    ctx: WreathContext
    n: int
    axis: int
    head: Word
    core: Word
    tail: Word
    trailing: Word
    stops: tuple[Point, ...]

    @cached_property
    def word(self) -> Word:
        return concat([self.head, self.core, self.tail, self.trailing])

    @cached_property
    def prefix_index(self) -> dict[Point, int]:
        """Box point -> letter offset in `word` after which insertions go."""
        offset = len(self.head)
        return {p: offset + k for k, p in enumerate(self.stops)}


def _slot_to_axis(r: int, axis: int) -> list[int]:
    """1-based axis for each template slot; slot 1 plays the distinguished axis."""
    if axis == 0:
        return list(range(1, r + 1))
    rest = [a for a in range(1, r + 1) if a != axis]
    return [axis] + rest


def _core_template(r: int, n: int, first_len: int) -> list[tuple[int, int]]:
    """Letters (slot, sign) of the snake core; slot-1 rows of length first_len."""
    word: list[tuple[int, int]] = [(1, 1)] * first_len
    for slot in range(2, r + 1):
        block = word + [(slot, 1)] + [(g, -s) for g, s in reversed(word)] + [(slot, 1)]
        word = block * n + word
    return word


def build_snake(ctx: WreathContext, n: int, axis: int = 0) -> SnakePlan:
    """Snake plan of box radius n; axis 0 for the even variant, 1..r otherwise."""
    if n < 0:
        raise ValueError(f"box radius must be >= 0, got {n}")
    if not 0 <= axis <= ctx.r:
        raise ValueError(f"axis {axis} out of range for rank {ctx.r}")
    r = ctx.r
    slots = _slot_to_axis(r, axis)
    first_len = 2 * n + (1 if axis else 0)
    template = _core_template(r, n, first_len)

    core_letters = tuple((ctx.lattice_gen(slots[slot - 1] - 1), sign)
                         for slot, sign in template)
    start = [-n] * r
    cur = list(start)
    stops = [tuple(cur)]
    for gen, sign in core_letters:
        cur[gen - ctx.base_size] += sign
        stops.append(tuple(cur))
    if len(set(stops)) != len(stops):
        raise VerificationError("snake walk revisits a box point")

    head = concat([power(ctx.lattice_gen(slots[s] - 1), -n) for s in range(r)])
    tail = concat([power(ctx.lattice_gen(slots[s] - 1), -n) for s in reversed(range(r))])
    trailing = Word(((ctx.lattice_gen(axis - 1), -1),)) if axis else EPSILON
    return SnakePlan(ctx, n, axis, head, Word(core_letters), tail, trailing,
                     tuple(stops))


def inject(plan: SnakePlan, f: LatticeFn) -> Word:
    """Insert f(x) at every walk stop x; support must stay inside the box."""
    slots = set(plan.stops)
    for p in f.support():
        if p not in slots:
            raise ValueError(f"support point {p} escapes the snake box")
    runs: list[tuple[int, int]] = list(plan.head.runs)
    stops = iter(plan.stops)
    for gen, exp in plan.core.runs:
        step = (gen, 1 if exp > 0 else -1)
        for _ in range(abs(exp)):
            runs.extend(f[next(stops)].runs)
            runs.append(step)
    runs.extend(f[next(stops)].runs)
    runs.extend(plan.tail.runs)
    runs.extend(plan.trailing.runs)
    return Word(runs)


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

    check_factorization(lambda w: evaluate_word(ctx, w), e, factors, bound)
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
