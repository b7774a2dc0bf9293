"""Exact words over a finite generating alphabet with formal inverses.

A word is stored run-length encoded: a tuple of maximal runs (generator
index, nonzero exponent), where adjacent runs differ in generator or in the
sign of the exponent.  Such runs are unique for each letter sequence, so
equality, palindromicity and every other operation here work on runs in
O(runs) time, and memory does not grow with exponent values.  Palindromicity
is still judged on the literal letter sequence (a^3 t a^3 is a palindrome,
a A is not), never on a reduced form.

`check_factorization` is the one statement of the contract every
palindromic factorization here meets; the factorizers and the certificate
checkers all call it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable

from .errors import VerificationError

_NAME_RE = re.compile(r"[a-z][0-9]*\Z")
# One token (name, optional exponent) or one stray non-space character.
_TOKEN_RE = re.compile(r"[A-Za-z][0-9]*(?:\^-?[0-9]+)?|\S")

Letter = tuple[int, int]  # (generator index, sign in {+1, -1})
Run = tuple[int, int]     # (generator index, nonzero exponent)


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names; lowercase in text form, uppercase = inverse."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("alphabet needs at least one generator")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate generator names in {self.names}")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}: want [a-z][0-9]*")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r} (alphabet {self.names})")

    @cached_property
    def _letters(self) -> dict[str, Letter]:
        """Text letter to (generator, sign), built on first use."""
        return {text: (gen, sign) for gen, name in enumerate(self.names)
                for text, sign in ((name, 1), (name.upper(), -1))}


class Word:
    """Immutable word stored as maximal runs; Word() is the empty word.

    `Word(runs)` accepts any sequence of (generator, exponent) pairs with
    nonzero exponents and merges neighbours with the same generator and the
    same sign, so a tuple of unit letters is accepted as it is.  `len()` is
    the number of letters.
    """

    __slots__ = ("runs", "_len")

    def __init__(self, runs: Iterable[Run] = ()) -> None:
        out: list[Run] = []
        total = 0
        for gen, exp in runs:
            if gen < 0 or not exp:
                raise ValueError(f"bad run ({gen}, {exp})")
            total += exp if exp > 0 else -exp
            if out:
                last_gen, last_exp = out[-1]
                if last_gen == gen and (last_exp > 0) == (exp > 0):
                    out[-1] = (gen, last_exp + exp)
                    continue
            out.append((gen, exp))
        self.runs: tuple[Run, ...] = tuple(out)
        self._len = total

    @classmethod
    def _of(cls, runs: tuple[Run, ...], length: int) -> "Word":
        """Wrap runs already known to be maximal, skipping the merge pass."""
        word = cls.__new__(cls)
        word.runs = runs
        word._len = length
        return word

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"Word({self.runs!r})"

    def __mul__(self, other: "Word") -> "Word":
        return concat((self, other))

    @property
    def letters(self) -> tuple[Letter, ...]:
        """Unit-letter expansion; O(len), for tests and tiny words only."""
        return tuple((gen, 1 if exp > 0 else -1)
                     for gen, exp in self.runs for _ in range(abs(exp)))

    def split(self, index: int) -> tuple["Word", "Word"]:
        """(first `index` letters, the rest); a negative index counts from the
        end, and the walk to it starts from the end too."""
        length, runs = self._len, self.runs
        if not -length <= index <= length:
            raise ValueError(f"split index {index} outside a word of length {length}")
        if not runs:
            return self, self
        if index < 0:
            k, seen = len(runs), 0        # seen: letters in runs[k:]
            while seen < -index:
                k -= 1
                seen += abs(runs[k][1])
            cut = seen + index            # letters of runs[k] left in the head
            index += length
        else:
            k, seen = 0, 0                # seen: letters in runs[:k]
            while seen + abs(runs[k][1]) < index:
                seen += abs(runs[k][1])
                k += 1
            cut = index - seen            # letters of runs[k] in the head
        gen, exp = runs[k]
        sign = 1 if exp > 0 else -1
        head = runs[:k] + (((gen, sign * cut),) if cut else ())
        tail = (((gen, exp - sign * cut),) if cut < abs(exp) else ()) + runs[k + 1:]
        return Word._of(head, index), Word._of(tail, length - index)

    def reverse(self) -> "Word":
        """Same letters in reverse order, signs unchanged."""
        return Word._of(self.runs[::-1], self._len)

    def invert(self) -> "Word":
        """Group inverse: reversed order with all signs flipped."""
        return Word._of(tuple((g, -e) for g, e in self.runs[::-1]), self._len)

    def is_palindrome(self) -> bool:
        """True iff the letter sequence equals its own reversal, signs included."""
        return self.runs == self.runs[::-1]

    def free_reduce(self) -> "Word":
        """Cancel adjacent inverse letters until none remain (unique reduced form)."""
        stack: list[Run] = []
        for gen, exp in self.runs:
            if stack and stack[-1][0] == gen:
                # Neighbouring stack runs never share a generator, so what is
                # left after this merge cannot meet the run below it.
                total = stack[-1][1] + exp
                if total:
                    stack[-1] = (gen, total)
                else:
                    stack.pop()
            else:
                stack.append((gen, exp))
        return Word._of(tuple(stack), sum(abs(e) for _, e in stack))


EPSILON = Word()


def power(gen: int, exp: int) -> Word:
    """The word gen^exp as a single run (the empty word for exp = 0)."""
    if gen < 0:
        raise ValueError(f"bad generator index {gen}")
    if exp == 0:
        return EPSILON
    return Word._of(((gen, exp),), abs(exp))


def concat(words: Iterable[Word]) -> Word:
    """Product of the words; only the runs meeting at each seam can merge."""
    out: list[Run] = []
    total = 0
    for w in words:
        runs = w.runs
        if not runs:
            continue
        total += w._len
        if out:
            last_gen, last_exp = out[-1]
            gen, exp = runs[0]
            if last_gen == gen and (last_exp > 0) == (exp > 0):
                out[-1] = (gen, last_exp + exp)
                out.extend(runs[1:])
                continue
        out.extend(runs)
    return Word._of(tuple(out), total)


def reduced_concat(words: Iterable[Word]) -> Word:
    """Free reduction of the product of freely reduced words.

    Inside a reduced word no two neighbouring runs share a generator, so
    letters can cancel only at a seam: each word costs O(1 + runs cancelled)
    steps there, and the rest of its runs are copied in one slice.
    """
    out: list[Run] = []
    total = 0
    for w in words:
        runs = w.runs
        total += w._len
        k = 0
        while out and k < len(runs) and out[-1][0] == runs[k][0]:
            last_exp, exp = out[-1][1], runs[k][1]
            k += 1
            merged = last_exp + exp
            total -= abs(last_exp) + abs(exp) - abs(merged)
            if merged:
                # runs[k] has another generator, so the seam ends here.
                out[-1] = (out[-1][0], merged)
                break
            out.pop()
        out.extend(runs[k:])
    return Word._of(tuple(out), total)


def free_equal(a: Word, b: Word) -> bool:
    return a.free_reduce() == b.free_reduce()


@dataclass
class Factorization:
    """Palindromic factor list for one element, with the declared count bound."""

    factors: list[Word]
    bound: int | None

    @property
    def count(self) -> int:
        return len(self.factors)


def check_factorization(evaluate: Callable[[list[Word]], Any], target: Any,
                        factors: list[Word], bound: int | None = None) -> None:
    """Raise VerificationError unless every factor is a literal palindrome,
    evaluate(factors), the model's value of their product, == target, and
    there are at most `bound` factors (no limit when bound is None).

    The model gets the list, not its concatenation, so it may use the
    palindromes: the flow model walks each one only through its first half
    and its middle run and reflects the half's edges."""
    for index, w in enumerate(factors):
        if not w.is_palindrome():
            raise VerificationError(f"factor {index} is not a palindrome")
    if evaluate(factors) != target:
        raise VerificationError("factor product does not evaluate to the target")
    if bound is not None and len(factors) > bound:
        raise VerificationError(f"{len(factors)} factors exceed the bound {bound}")


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse text form: lowercase = generator, uppercase = inverse, ^k = exponent.

    Tokens may be juxtaposed or whitespace-separated; each token becomes one
    run, so `a^-3` and `A^3` are both the single run (a, -3) and `a^0` is
    empty.  Each distinct token is resolved once, so parsing costs O(tokens)
    table lookups, whatever the exponents.  The first bad token, in text
    order, names the error.
    """
    letters = alphabet._letters
    tokens = _TOKEN_RE.findall(text)
    runs_of: dict[str, Run | None] = {}  # None for a zero exponent
    kind_of: dict[str, int] = {}  # (generator, sign) as one int
    size_of: dict[str, int] = {}
    for token in dict.fromkeys(tokens):
        if not (token.isascii() and token[0].isalpha()):
            at = next(m.start() for m in _TOKEN_RE.finditer(text) if m.group() == token)
            raise ValueError(f"cannot parse word at ...{text[at:at + 12]!r}")
        name, _, exp_str = token.partition("^")
        letter = letters.get(name)
        if letter is None:
            alphabet.index(name.lower())  # not a generator name, so this raises
        gen, sign = letter
        exp = sign * int(exp_str) if exp_str else sign
        runs_of[token] = (gen, exp) if exp else None
        kind_of[token] = 2 * gen + (exp > 0)
        size_of[token] = abs(exp)
    runs = list(map(runs_of.__getitem__, tokens))
    kinds = list(map(kind_of.__getitem__, tokens))
    if None in runs_of.values() or any(map(operator.eq, kinds, kinds[1:])):
        return Word(run for run in runs if run)  # merge neighbours, drop ^0
    return Word._of(tuple(runs), sum(map(size_of.__getitem__, tokens)))


def format_word(alphabet: Alphabet, word: Word) -> str:
    """Compact run-length text form, e.g. t^-6a^-2ta^2; the empty word is ''."""
    names = alphabet.names
    text = {run: names[run[0]] if run[1] == 1 else f"{names[run[0]]}^{run[1]}"
            for run in set(word.runs)}
    return "".join(map(text.__getitem__, word.runs))
