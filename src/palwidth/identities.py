"""Free-group word identities that rewrite commutators and conjugations
into palindromic factor lists.

Both rewrites are literal word identities: the factor concatenation is
freely equal to the target, so they hold in every quotient group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import EPSILON, Word, check_factorization, concat


@dataclass
class PalindromicFactorList:
    factors: list[Word]
    target: Word

    @property
    def count(self) -> int:
        return sum(1 for w in self.factors if w)


def commutator_three_palindromes(g: Word, b: Word) -> PalindromicFactorList:
    """[g, b] = (g b rev(g)) (rev(g)^-1 g^-1) (b^-1) for a single letter b."""
    if len(b) != 1:
        raise ValueError(f"conjugating letter must be a single letter, got length {len(b)}")
    target = g * b * g.invert() * b.invert()
    factors = [g * b * g.reverse(),
               g.reverse().invert() * g.invert(),
               b.invert()]
    check_factorization(lambda ws: concat(ws).free_reduce(), target.free_reduce(), factors)
    return PalindromicFactorList(factors, target)


def conjugate_factorization(h: Word, factors: list[Word]) -> PalindromicFactorList:
    """Conjugate a palindromic factor list by h at the cost of one extra factor.

    Odd lists are padded with the empty word; factors then alternate between
    h g rev(h) and rev(h)^-1 g h^-1, both palindromic, and the inner h-parts
    cancel freely.
    """
    for w in factors:
        if not w.is_palindrome():
            raise ValueError("input factors must be palindromes")
    padded = list(factors)
    if len(padded) % 2:
        padded.append(EPSILON)
    target = h * concat(factors) * h.invert()
    out: list[Word] = []
    for index, g in enumerate(padded):
        if index % 2 == 0:
            out.append(h * g * h.reverse())
        else:
            out.append(h.reverse().invert() * g * h.invert())
    check_factorization(lambda ws: concat(ws).free_reduce(), target.free_reduce(), out,
                        len(factors) + 1)
    return PalindromicFactorList(out, target)
