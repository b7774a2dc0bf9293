"""Bounded palindromic factorization in the free metabelian group.

Pipeline for an arbitrary element: strip the abelianization as at most r
generator powers, zero every doubled-grid sum of the commutator coefficients
with battlement correction words, split each corrected coefficient function
into skew-symmetric pieces about fixed half-integer centers, and spell each
bundle of pieces as a palindrome conjugated by at most one generator.  All
products are verified in the flow model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisViolation, VerificationError
from .lattice import LatticeFn, Point, grid_vectors
from .metabelian import (FlowElement, Pair, SquareCoeffs, circulation_to_squares,
                         evaluate_word_flow, invert_flow, lattice_word,
                         multiply_flow, squares_to_element)
from .skew import skew_split_fixed_centers
from .words import Word, concat, power
from .wreath_factor import Factorization


def metabelian_width_bound(r: int) -> int:
    """Declared factor bound for rank r: 2^(r-1) r (r+1) (2r+3) + 4r + 1."""
    return 2 ** (r - 1) * r * (r + 1) * (2 * r + 3) + 4 * r + 1


def _pair_center(r: int, pair: Pair) -> Point:
    """Doubled skew center -(e_i + e_j) for the commutator pair."""
    i, j = pair
    return tuple(-(1 if k in (i, j) else 0) for k in range(r))


def _is_skew_about(fn: LatticeFn, two_c: Point) -> bool:
    return all(v == -fn[tuple(c - x for c, x in zip(two_c, p))]
               for p, v in fn.items())


def palindromize_skew(coeffs: SquareCoeffs) -> Word:
    """Single palindrome for coefficients skew about -(e_i + e_j)/2.

    Support points pair up as {u, -u - e_i - e_j}; spelling only the
    lexicographically larger representative of each pair as u rho^f(u) u^-1
    and appending the reversal of the whole prefix supplies the partners,
    so the output is literally of the form G реverse(G).
    """
    r = coeffs.r
    parts: list[Word] = []
    for pair in reversed(coeffs.pairs()):
        i, j = pair
        fn = coeffs.coeffs[pair]
        two_c = _pair_center(r, pair)
        if not _is_skew_about(fn, two_c):
            raise HypothesisViolation(
                f"coefficient for pair {(i + 1, j + 1)} is not skew about "
                f"-(e_{i + 1}+e_{j + 1})/2")
        rho = Word(((i, 1), (j, 1), (i, -1), (j, -1)))
        reps = sorted(
            (p for p, _ in fn.items()
             if p > tuple(c - x for c, x in zip(two_c, p))))
        for u in reps:
            value = fn[u]
            m = lattice_word(r, u)
            core = concat([rho] * value) if value > 0 else concat(
                [rho.invert()] * (-value))
            parts.append(m * core * m.invert())
    half = concat(parts)
    word = half * half.reverse()
    if not word.is_palindrome():
        raise VerificationError("skew spelling is not a palindrome")
    if evaluate_word_flow(r, word) != squares_to_element(coeffs):
        raise VerificationError("skew palindrome does not evaluate to the element")
    return word


def palindromize_conjugated(coeffs: SquareCoeffs, p: Point) -> list[Word]:
    """Factor list [monomial(p), palindrome, monomial(p)^-1] for coefficients
    skew about p - (e_i + e_j)/2; the monomials vanish when p = 0."""
    r = coeffs.r
    p = tuple(p)
    shifted = SquareCoeffs(
        r, {pair: fn.shift(tuple(-c for c in p))
            for pair, fn in coeffs.coeffs.items()})
    pal = palindromize_skew(shifted)
    m = lattice_word(r, p)
    factors = [w for w in (m, pal, m.invert()) if w]
    target = squares_to_element(coeffs)
    product = evaluate_word_flow(r, concat(factors))
    if product != target:
        raise VerificationError("conjugated spelling does not evaluate back")
    return factors


def palindromize_gridzero(h: FlowElement) -> Factorization:
    """At most 3r+1 palindromes for a shift-zero element whose coefficient
    grid sums cancel in the pairs matched by each commutator's center
    (all-zero grid sums, the usual hypothesis, always qualify)."""
    r = h.r
    coeffs = circulation_to_squares(h)
    bundles: list[dict[Pair, LatticeFn]] = [{} for _ in range(r + 1)]
    for pair in coeffs.pairs():
        pieces = skew_split_fixed_centers(coeffs.coeffs[pair], _pair_center(r, pair))
        for alpha, piece in enumerate(pieces):
            if not piece.fn.is_zero():
                bundles[alpha][pair] = piece.fn
    factors: list[Word] = []
    for alpha, bundle in enumerate(bundles):
        if not bundle:
            continue
        p = tuple(1 if k == alpha - 1 else 0 for k in range(r)) if alpha else (0,) * r
        factors.extend(palindromize_conjugated(SquareCoeffs(r, bundle), p))
    for w in factors:
        if not w.is_palindrome():
            raise VerificationError("grid-zero stage emitted a non-palindrome")
    if evaluate_word_flow(r, concat(factors)) != h:
        raise VerificationError("grid-zero factor product does not evaluate back")
    return Factorization(factors, 3 * r + 1)


@dataclass
class BattlementEntry:
    pair: Pair            # 0-based axes (i, j)
    grid: Point
    amount: int           # grid sum being cancelled
    word: Word
    factors: list[Word]   # palindromic pre-split of `word`


@dataclass
class BattlementPlan:
    entries: list[BattlementEntry]
    per_word_bound: int   # 2r + 3

    @property
    def word(self) -> Word:
        return concat([e.word for e in self.entries])

    def inverse_factors(self) -> list[Word]:
        """Palindromic factors of the plan word's inverse."""
        out: list[Word] = []
        for entry in reversed(self.entries):
            out.extend(w.invert() for w in reversed(entry.factors))
        return out


def _battlement_word(r: int, pair: Pair, grid: Point, amount: int
                     ) -> tuple[Word, list[Word]]:
    """Correction word for one (pair, grid) cell and its palindrome pre-split.

    Conjugating (x_j x_i x_j^-1 x_i)^D x_i^(-2D) into the grid multiplies the
    element by D inverse commutators placed on that grid; the core splits as
    x_j times an alternating palindrome, negative D through the inverse core.
    """
    i, j = pair
    d = amount
    open_parts = [power(axis, grid[axis]) for axis in range(r) if grid[axis]]
    close_parts = [w.invert() for w in reversed(open_parts)]
    block = Word(((j, 1), (i, 1), (j, -1), (i, 1)))
    core = concat([block] * d) if d > 0 else concat([block.invert()] * (-d))
    tail = power(i, -2 * d)
    word = concat(open_parts + [core, tail] + close_parts)

    core_factors: list[Word] = []
    if d > 0:
        core_factors = list(core.split(1))
    elif d < 0:
        core_factors = list(core.split(-1))
    for part in core_factors:
        if not part.is_palindrome():
            raise VerificationError("battlement core split is not palindromic")
    factors = open_parts + core_factors + ([tail] if tail else []) + close_parts
    return word, [w for w in factors if w]


def battlement_correct(h: FlowElement) -> tuple[BattlementPlan, FlowElement]:
    """Multiply h by battlement words until every coefficient grid sum is zero.

    The canonical extraction confines pair-(i, j) coefficients to the
    hyperplane where all coordinates beyond axis j vanish, so nonzero grid
    sums only occur on grids supported there; the battlement conjugates for
    those grids re-extract as plain coefficient deltas, which makes the
    correction bookkeeping exact (and re-checked below).
    """
    if any(c != 0 for c in h.shift):
        raise ValueError("battlement correction needs a shift-zero element")
    r = h.r
    coeffs = circulation_to_squares(h)
    entries: list[BattlementEntry] = []
    for pair in coeffs.pairs():
        fn = coeffs.coeffs[pair]
        for v in grid_vectors(r):
            amount = fn.grid_sum(v)
            if amount == 0:
                continue
            word, factors = _battlement_word(r, pair, v, amount)
            entries.append(BattlementEntry(pair, v, amount, word, factors))
    plan = BattlementPlan(entries, 2 * r + 3)
    for entry in entries:
        if len(entry.factors) > plan.per_word_bound:
            raise VerificationError("battlement word exceeds its palindrome budget")
        if concat(entry.factors) != entry.word:
            raise VerificationError("battlement pre-split does not spell the word")
        for w in entry.factors:
            if not w.is_palindrome():
                raise VerificationError("battlement pre-split factor not a palindrome")
    corrected = multiply_flow(h, evaluate_word_flow(r, plan.word))
    check = circulation_to_squares(corrected)
    for pair in check.pairs():
        for v in grid_vectors(r):
            if check.coeffs[pair].grid_sum(v) != 0:
                raise VerificationError("battlement correction left a nonzero grid sum")
    return plan, corrected


def factorize_metabelian(g: FlowElement) -> Factorization:
    """Verified palindromic factorization of any element, within the printed bound."""
    r = g.r
    shift_parts = [power(axis, exp) for axis, exp in enumerate(g.shift) if exp]
    shift_word = concat(shift_parts)
    h = multiply_flow(g, invert_flow(evaluate_word_flow(r, shift_word)))

    plan, corrected = battlement_correct(h)
    core = palindromize_gridzero(corrected)
    factors = core.factors + plan.inverse_factors() + shift_parts

    for w in factors:
        if not w.is_palindrome():
            raise VerificationError("metabelian factor is not a palindrome")
    if evaluate_word_flow(r, concat(factors)) != g:
        raise VerificationError("metabelian factor product does not evaluate back")
    bound = metabelian_width_bound(r)
    if len(factors) > bound:
        raise VerificationError(f"{len(factors)} factors exceed the bound {bound}")
    return Factorization(factors, bound)
