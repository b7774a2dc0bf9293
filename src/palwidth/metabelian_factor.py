"""Bounded palindromic factorization in the free metabelian group.

Pipeline for an arbitrary element: strip the abelianization as at most r
generator powers, zero every doubled-grid sum of the commutator coefficients
with battlement correction words, split each corrected coefficient function
into skew-symmetric pieces about fixed half-integer centers, and spell each
bundle of pieces as a palindrome conjugated by at most one generator.

A bundle's palindrome is G reverse(G), where the half G is the free
reduction of its conjugates m_u [x_i, x_j]^f(u) m_u^-1 in a fixed order, so
the monomial walks of neighbouring conjugates cancel.  Free reduction keeps
the element, and reversal commutes with cancellation, so a reduced G still
gives a literal palindrome: its middle seam repeats one letter and cannot
cancel.  Factor counts and bounds are those of the unreduced spelling.

Each stage is an unchecked builder, and so is the skew split the stages
call.  `factorize_metabelian` chains them and checks its output once, at its
boundary, with `words.check_factorization` over the flow model: every factor
is a literal palindrome, the product evaluates to the input, and the count is
within the bound; skew pieces that do not sum to the input show there as a
wrong product.  `palindromize_skew` and `palindromize_gridzero` wrap their
builder with the same check on their own output; `palindromize_conjugated`,
whose monomial factors are not palindromes, checks only its product.
`battlement_correct` adds each correction word's coefficients in closed
form rather than evaluating the word, and checks the corrected grid sums;
a wrong closed form shows at the boundary as a wrong product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisViolation, VerificationError
from .lattice import LatticeFn, Point
from .metabelian import (FlowElement, Pair, SquareCoeffs, circulation_to_squares,
                         evaluate_word_flow, invert_flow, lattice_word,
                         multiply_flow, squares_to_element)
from .skew import SkewPiece, skew_split_fixed_centers
from .words import (Factorization, Word, check_factorization, concat, power,
                    reduced_concat)


def metabelian_width_bound(r: int) -> int:
    """Declared factor bound for rank r: 2^(r-1) r (r+1) (2r+3) + 4r + 1."""
    return 2 ** (r - 1) * r * (r + 1) * (2 * r + 3) + 4 * r + 1


def _pair_center(r: int, pair: Pair) -> Point:
    """Doubled skew center -(e_i + e_j) for the commutator pair."""
    i, j = pair
    return tuple(-(1 if k in (i, j) else 0) for k in range(r))


def _require_skew(coeffs: SquareCoeffs, p: Point) -> None:
    """Hypothesis of the skew spellings: each pair's coefficient function is
    skew about p - (e_i + e_j)/2."""
    for pair in coeffs.pairs():
        i, j = pair
        two_c = tuple(2 * c + d for c, d in zip(p, _pair_center(coeffs.r, pair)))
        if not SkewPiece(coeffs.coeffs[pair], two_c).is_valid():
            where = f"-(e_{i + 1}+e_{j + 1})/2" + (f" + {p}" if any(p) else "")
            raise HypothesisViolation(
                f"coefficient for pair {(i + 1, j + 1)} is not skew about {where}")


def _skew_palindrome(coeffs: SquareCoeffs) -> Word:
    """Unchecked builder behind palindromize_skew.

    The half G is reduced_concat over the parts m, rho^|v|, m^-1 of each
    conjugate, reduced words wrapped from runs, so letters cancel only at part
    seams, O(1 + runs cancelled) steps each; G reverse(G) is reduced too.
    """
    r = coeffs.r
    parts: list[Word] = []
    for pair in reversed(coeffs.pairs()):
        i, j = pair
        two_c = _pair_center(r, pair)
        up, down = ((i, 1), (j, 1), (i, -1), (j, -1)), ((j, 1), (i, 1), (j, -1), (i, -1))
        for u, value in coeffs.coeffs[pair].items():  # in point order
            if u > tuple(c - x for c, x in zip(two_c, u)):
                m, n = lattice_word(r, u), abs(value)
                parts += (m, Word._of((up if value > 0 else down) * n, 4 * n), m.invert())
    half = reduced_concat(parts)
    return half * half.reverse()


def palindromize_skew(coeffs: SquareCoeffs) -> Word:
    """Single palindrome for coefficients skew about -(e_i + e_j)/2.

    Support points pair up as {u, -u - e_i - e_j}; spelling only the
    lexicographically larger representative of each pair as u rho^f(u) u^-1
    and appending the reversal of the whole prefix supplies the partners,
    so the output is literally of the form G reverse(G).  G is the free
    reduction of those conjugates in that order: the same element, and
    since reverse(G) is reduced whenever G is, G reverse(G) is a freely
    reduced palindrome.
    """
    _require_skew(coeffs, (0,) * coeffs.r)
    word = _skew_palindrome(coeffs)
    check_factorization(lambda ws: evaluate_word_flow(coeffs.r, ws),
                        squares_to_element(coeffs), [word])
    return word


def _conjugated_factors(coeffs: SquareCoeffs, p: Point) -> list[Word]:
    """Unchecked builder behind palindromize_conjugated."""
    r = coeffs.r
    p = tuple(p)
    shifted = SquareCoeffs(
        r, {pair: fn.shift(tuple(-c for c in p))
            for pair, fn in coeffs.coeffs.items()})
    m = lattice_word(r, p)
    return [w for w in (m, _skew_palindrome(shifted), m.invert()) if w]


def palindromize_conjugated(coeffs: SquareCoeffs, p: Point) -> list[Word]:
    """Factor list [monomial(p), palindrome, monomial(p)^-1] for coefficients
    skew about p - (e_i + e_j)/2; the monomials vanish when p = 0."""
    _require_skew(coeffs, tuple(p))
    factors = _conjugated_factors(coeffs, p)
    if evaluate_word_flow(coeffs.r, factors) != squares_to_element(coeffs):
        raise VerificationError("conjugated spelling does not evaluate back")
    return factors


def _gridzero_factors(coeffs: SquareCoeffs) -> list[Word]:
    """Unchecked builder behind palindromize_gridzero, from the coefficients."""
    r = coeffs.r
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
        factors.extend(_conjugated_factors(SquareCoeffs(r, bundle), p))
    return factors


def palindromize_gridzero(h: FlowElement) -> Factorization:
    """At most 3r+1 palindromes for a shift-zero element whose coefficient
    grid sums cancel in the pairs matched by each commutator's center
    (all-zero grid sums, the usual hypothesis, always qualify)."""
    factors = _gridzero_factors(circulation_to_squares(h))
    bound = 3 * h.r + 1
    check_factorization(lambda ws: evaluate_word_flow(h.r, ws), h, factors, bound)
    return Factorization(factors, bound)


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
    corrected_coeffs: SquareCoeffs  # those of h * word; grid sums all zero

    @property
    def word(self) -> Word:
        return concat([e.word for e in self.entries])

    def inverse_factors(self) -> list[Word]:
        """Palindromic factors of the plan word's inverse."""
        return [w.invert() for entry in reversed(self.entries)
                for w in reversed(entry.factors)]


def _battlement_word(r: int, pair: Pair, grid: Point, amount: int
                     ) -> tuple[Word, list[Word]]:
    """Correction word for one (pair, grid) cell, amount D != 0, and its
    palindrome pre-split.

    The core (x_j x_i x_j^-1 x_i)^D x_i^(-2D) places D inverse commutators
    on the grid, 2 apart along axis i, all on one side of the grid point and
    up to 2|D| from it.  Conjugating the core by o = x_i^(-2 floor(D/2))
    (x_i^(2 floor(|D|/2)) when D < 0) centres that line on the grid point,
    within |D| + 1 of it on either side; o commutes with the tail, so the word
    is still the core conjugated into the grid.  The core splits as x_j
    times an alternating palindrome (that palindrome times x_j^-1 through
    the inverse core when D < 0); o is absorbed into those two factors, as
    o A o and o^-1 B o^-1 for the split A B, so the count is still that of
    the grid monomials plus 3.
    """
    i, j = pair
    d = amount
    open_parts = [power(axis, grid[axis]) for axis in range(r) if grid[axis]]
    close_parts = [w.invert() for w in reversed(open_parts)]
    block = Word(((j, 1), (i, 1), (j, -1), (i, 1)))
    core = concat([block] * d) if d > 0 else concat([block.invert()] * -d)
    first, second = core.split(1 if d > 0 else -1)
    centre = 2 * (abs(d) // 2)
    o = power(i, -centre if d > 0 else centre)
    factors = (open_parts
               + [reduced_concat([o, first, o]),
                  reduced_concat([o.invert(), second, o.invert()]),
                  power(i, -2 * d)]
               + close_parts)
    return concat(factors), factors


def _battlement_delta(pair: Pair, grid: Point, amount: int) -> dict[Point, int]:
    """Coefficients of the cell's battlement word: -sign(D) on |D| points 2
    apart on axis i, from 2 |floor(D/2)| below the grid point up (the core's
    line starts at it, or 2 below it going down, and o moves it back)."""
    i = pair[0]
    start = grid[i] - 2 * abs(amount // 2)
    value = -1 if amount > 0 else 1
    return {grid[:i] + (start + 2 * k,) + grid[i + 1:]: value for k in range(abs(amount))}


def battlement_correct(h: FlowElement) -> tuple[BattlementPlan, FlowElement]:
    """Multiply h by battlement words until every coefficient grid sum is zero.

    The canonical extraction confines pair-(i, j) coefficients to the
    hyperplane where all coordinates beyond axis j vanish, so nonzero grid
    sums only occur on grids supported there; the battlement conjugates for
    those grids re-extract as plain coefficient deltas, which makes the
    correction bookkeeping exact.  Each word spreads its amount D over a
    line of |D| commutators along axis i, centred on the grid point; the
    skew split then carries that mass back, so a correction costs Theta(D^2)
    letters, about half of what a line running 2|D| to one side would.

    The extraction is linear, so the corrected coefficients are h's plus
    each word's `_battlement_delta`; no word is evaluated.  The corrected
    grid sums are checked, since a nonzero one would surface later as a
    hypothesis violation of the skew split; the deltas and each entry's
    pre-split (at most 2r + 3 palindromes) are left to the factorizer's
    boundary check.  The element returned is h times the plan word.
    """
    if any(c != 0 for c in h.shift):
        raise ValueError("battlement correction needs a shift-zero element")
    r = h.r
    coeffs = circulation_to_squares(h)
    entries: list[BattlementEntry] = []
    corrected: dict[Pair, LatticeFn] = {}
    for pair in coeffs.pairs():
        fn, delta = coeffs.coeffs[pair], {}
        for v, amount in fn.grid_sums().items():
            if amount:
                entries.append(BattlementEntry(pair, v, amount,
                                               *_battlement_word(r, pair, v, amount)))
                delta.update(_battlement_delta(pair, v, amount))
        corrected[pair] = fn.add(LatticeFn._of(r, delta))
        if any(corrected[pair].grid_sums().values()):
            raise VerificationError("battlement correction left a nonzero grid sum")
    plan = BattlementPlan(entries, SquareCoeffs(r, corrected))
    return plan, squares_to_element(plan.corrected_coeffs)


def factorize_metabelian(g: FlowElement) -> Factorization:
    """Verified palindromic factorization of any element, within the printed bound.

    The stages run unchecked; the product of the returned factors is checked
    once, exactly, against g.
    """
    r = g.r
    shift_parts = [power(axis, exp) for axis, exp in enumerate(g.shift) if exp]
    shift_word = concat(shift_parts)
    h = multiply_flow(g, invert_flow(evaluate_word_flow(r, shift_word)))

    plan, _ = battlement_correct(h)
    factors = (_gridzero_factors(plan.corrected_coeffs) + plan.inverse_factors()
               + shift_parts)
    bound = metabelian_width_bound(r)
    check_factorization(lambda ws: evaluate_word_flow(r, ws), g, factors, bound)
    return Factorization(factors, bound)
