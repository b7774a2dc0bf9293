"""Wreath products G wr Z^r with lamplighter-style word evaluation.

The base group G is a runtime-pluggable contract.  Built-ins: the integers
(one generator `a`), cyclic groups Z_m, and free groups on named
generators, whose values are freely reduced words.  Elements of G wr Z^r pair
a finitely supported configuration Z^r -> G with a shift vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from .lattice import (LatticeFn, Point, json_field, json_int, json_object,
                      json_point, json_str)
from .words import Alphabet, EPSILON, Word, concat, power


class BaseGroup:
    """Contract for the base factor of the wreath product.

    Subclasses supply exact group arithmetic on hashable values, evaluation
    of words over the base alphabet, a fixed spelling `canonical_word` with
    its mirror `reverse`, and a palindromic factorization with a declared
    width bound.  Every value a method takes or returns is canonical: one
    representative per group element, so `==` is the group's equality.
    `canonical` maps a value given from Python code to its representative;
    `decode_value` returns canonical values.  The symmetric split computes
    on values and relies on the law
    canonical_word(reverse(v)) == canonical_word(v).reverse(), letter for
    letter, for every canonical value v.
    """

    name: str
    alphabet: Alphabet
    pw: int | None  # declared palindromic width bound, None if unknown

    def identity(self) -> Any:
        raise NotImplementedError

    def multiply(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def invert(self, a: Any) -> Any:
        raise NotImplementedError

    def evaluate(self, word: Word) -> Any:
        """Monoid homomorphism from words over the base alphabet to G."""
        raise NotImplementedError

    def power(self, gen: int, exp: int) -> Any:
        """The element gen^exp; wreath evaluation calls this once per base run."""
        return self.evaluate(power(gen, exp))

    def canonical(self, value: Any) -> Any:
        """Canonical representative of a value given from Python code."""
        return value

    def canonical_word(self, element: Any) -> Word:
        """A fixed representative word for the element."""
        raise NotImplementedError

    def reverse(self, element: Any) -> Any:
        """The value whose canonical word is canonical_word(element).reverse()."""
        raise NotImplementedError

    def palindromic_factorization(self, element: Any) -> list[Word]:
        """Palindromic words whose product evaluates to the element.

        The list length is at most the declared `pw` when that is not None;
        factors for the identity may be empty.
        """
        raise NotImplementedError

    def encode_value(self, element: Any) -> Any:
        return element

    def decode_value(self, raw: Any) -> Any:
        """The canonical value a JSON lamp value encodes."""
        return raw

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseGroup) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"<base group {self.name}>"


class IntegerGroup(BaseGroup):
    """The integers under addition, generated by `a`; every n is the palindrome a^n."""

    def __init__(self) -> None:
        self.name = "Z"
        self.alphabet = Alphabet(("a",))
        self.pw = 1

    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        return a + b

    def invert(self, a: int) -> int:
        return -a

    def evaluate(self, word: Word) -> int:
        return sum(exp for _gen, exp in word.runs)

    def power(self, gen: int, exp: int) -> int:
        return exp

    def decode_value(self, raw: Any) -> int:
        return json_int(raw, "lamp value")

    def canonical_word(self, element: int) -> Word:
        return power(0, element)

    def reverse(self, element: int) -> int:
        return element

    def palindromic_factorization(self, element: int) -> list[Word]:
        return [self.canonical_word(element)] if element else []


class CyclicGroup(IntegerGroup):
    """Z_m under addition mod m, generated by `a`; canonical exponents in [0, m)."""

    def __init__(self, m: int) -> None:
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        super().__init__()
        self.m = m
        self.name = f"Zm:{m}"

    def multiply(self, a: int, b: int) -> int:
        return (a + b) % self.m

    def invert(self, a: int) -> int:
        return (-a) % self.m

    def evaluate(self, word: Word) -> int:
        return sum(exp for _gen, exp in word.runs) % self.m

    def power(self, gen: int, exp: int) -> int:
        return exp % self.m

    def canonical(self, value: int) -> int:
        return value % self.m

    def decode_value(self, raw: Any) -> int:
        return json_int(raw, "lamp value") % self.m


class WordGroup(BaseGroup):
    """The free group on the alphabet; values are freely reduced words.

    Each run g^k of a reduced word is a palindrome, so every element
    factors run by run, and no width bound is declared.
    """

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.name = "free:" + ",".join(alphabet.names)
        self.pw = None

    def identity(self) -> Word:
        return EPSILON

    def multiply(self, a: Word, b: Word) -> Word:
        return (a * b).free_reduce()

    def invert(self, a: Word) -> Word:
        return a.invert()

    def evaluate(self, word: Word) -> Word:
        return word.free_reduce()

    def power(self, gen: int, exp: int) -> Word:
        return power(gen, exp)

    def canonical(self, value: Word) -> Word:
        return value.free_reduce()

    def canonical_word(self, element: Word) -> Word:
        return element

    def reverse(self, element: Word) -> Word:
        return element.reverse()

    def palindromic_factorization(self, element: Word) -> list[Word]:
        return [power(gen, exp) for gen, exp in element.runs]

    def encode_value(self, element: Word) -> str:
        from .words import format_word

        return format_word(self.alphabet, element)

    def decode_value(self, raw: Any) -> Word:
        from .words import parse_word

        return parse_word(self.alphabet, json_str(raw, "lamp value")).free_reduce()


def base_from_name(name: str) -> BaseGroup:
    """Parse a base-group tag: "Z", "Zm:<modulus>" or "free:<gen>,<gen>,..."."""
    if name == "Z":
        return IntegerGroup()
    if name.startswith("Zm:"):
        return CyclicGroup(int(name.split(":", 1)[1]))
    if name.startswith("free:"):
        return WordGroup(Alphabet(tuple(name.split(":", 1)[1].split(","))))
    raise ValueError(f"unknown base group {name!r} (want Z, Zm:<m> or free:<gens>)")


@dataclass(frozen=True)
class WreathContext:
    """Base group plus lattice rank; owns the combined generating alphabet."""

    base: BaseGroup
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"rank must be >= 1, got {self.r}")
        overlap = set(self.base.alphabet.names) & set(self.lattice_names())
        if overlap:
            raise ValueError(f"base alphabet collides with lattice generators: {overlap}")

    def lattice_names(self) -> tuple[str, ...]:
        if self.r == 1:
            return ("t",)
        return tuple(f"x{i}" for i in range(1, self.r + 1))

    @cached_property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.base.alphabet.names + self.lattice_names())

    @property
    def base_size(self) -> int:
        return len(self.base.alphabet)

    def lattice_gen(self, axis: int) -> int:
        """Letter index of the lattice generator for 0-based axis."""
        if not 0 <= axis < self.r:
            raise ValueError(f"axis {axis} out of range for rank {self.r}")
        return self.base_size + axis


@dataclass(frozen=True)
class WreathElement:
    """Pair (configuration Z^r -> G, shift vector) of G wr Z^r."""

    ctx: WreathContext
    fn: LatticeFn
    shift: Point

    def __post_init__(self) -> None:
        if self.fn.r != self.ctx.r or len(self.shift) != self.ctx.r:
            raise ValueError("rank mismatch between configuration and context")

    def is_identity(self) -> bool:
        return self.fn.is_zero() and all(c == 0 for c in self.shift)

    def frozen(self) -> tuple:
        return (self.fn.frozen(), self.shift)


def identity_element(ctx: WreathContext) -> WreathElement:
    return WreathElement(ctx, LatticeFn(ctx.r, {}, ctx.base.identity()), (0,) * ctx.r)


def make_element(ctx: WreathContext, fn: dict[Point, Any] | LatticeFn,
                 shift: Point) -> WreathElement:
    """Element with the given lamps and shift; values are canonicalized, so a
    value equal to the identity (such as 3 in Z_3) is dropped."""
    base = ctx.base
    fn = LatticeFn(ctx.r, {p: base.canonical(v) for p, v in fn.items()}, base.identity())
    return WreathElement(ctx, fn, tuple(shift))


def evaluate_word(ctx: WreathContext, word: Word | Sequence[Word]) -> WreathElement:
    """Operational semantics: base letters multiply the lamp under the cursor,
    lattice letters move the cursor.  One step per run: a base run g^k
    multiplies by base.power(g, k), a lattice run moves the cursor k places.
    A factor list evaluates as its concatenation: a palindrome's half
    touches each of its lamps about once, so reflecting it would cost as
    much as the walk."""
    base = ctx.base
    nb = ctx.base_size
    ident = base.identity()
    config: dict[Point, Any] = {}
    pos = [0] * ctx.r
    for gen, exp in (word if isinstance(word, Word) else concat(word)).runs:
        if gen < nb:
            value = base.power(gen, exp)
            key = tuple(pos)
            combined = base.multiply(config.get(key, ident), value)
            if combined == ident:
                config.pop(key, None)
            else:
                config[key] = combined
        elif gen < nb + ctx.r:
            pos[gen - nb] += exp
        else:
            raise ValueError(f"letter index {gen} outside alphabet {ctx.alphabet.names}")
    return WreathElement(ctx, LatticeFn(ctx.r, config, ident), tuple(pos))


def multiply(a: WreathElement, b: WreathElement) -> WreathElement:
    """(a.fn, a.shift) * (b.fn, b.shift): b's configuration acts shifted by
    a.shift.  Each entry of b, moved by a.shift, is multiplied into a copy of
    a's entries, one base.multiply per entry of b; by the identity law this
    is the pointwise product over the union of supports."""
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    multiply_base, zero = a.ctx.base.multiply, a.fn.zero
    out = dict(a.fn._entries)
    for point, value in b.fn._entries.items():
        point = ((point[0] + a.shift[0],) if a.fn.r == 1  # rank 1 needs no tuple map
                 else tuple(map(operator.add, point, a.shift)))
        out[point] = value = multiply_base(out.get(point, zero), value)
        if value == zero:
            del out[point]
    shift = tuple(x + y for x, y in zip(a.shift, b.shift))
    return WreathElement(a.ctx, LatticeFn._of(a.fn.r, out, zero), shift)


def invert(a: WreathElement) -> WreathElement:
    base = a.ctx.base
    neg = tuple(-c for c in a.shift)
    fn = a.fn.shift(neg).map_values(base.invert)
    return WreathElement(a.ctx, fn, neg)


def element_to_json(e: WreathElement) -> dict:
    return {
        "base": e.ctx.base.name,
        "r": e.ctx.r,
        "fn": e.fn.to_json(e.ctx.base.encode_value),
        "shift": list(e.shift),
    }


def element_from_json(data: Any) -> WreathElement:
    """Inverse of element_to_json; a malformed shape raises ValueError."""
    data = json_object(data, "wreath element")
    base = base_from_name(json_str(json_field(data, "base", "wreath element"), "base"))
    ctx = WreathContext(base, json_int(json_field(data, "r", "wreath element"), "rank"))
    fn = LatticeFn.from_json(json_field(data, "fn", "wreath element"), zero=base.identity(),
                             decode=base.decode_value)
    return WreathElement(ctx, fn, json_point(json_field(data, "shift", "wreath element"),
                                             "shift"))
