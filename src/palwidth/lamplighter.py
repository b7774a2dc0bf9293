"""Palindromicity certificates for the integer lamplighter group Z wr Z.

Contains the symmetric-configuration characterization of one-palindrome
elements, an exact per-center decision for two-palindrome products, a
scanning certifier, and an exhaustive minimal-length oracle.

The decision is in closed form.  A target (f, k) is (g, p)(h, k - p) with
both factors palindromic exactly when, for k != 0 and m = |k|,
S(c) = S((p - c) mod m) for every residue c, where S(c) is the sum of f over
x = c mod m; and, for k = 0, when f is symmetric about p/2.

The certifier's scan decides every center of its range from one table of the
residue sums S of the target: for k != 0 the rule depends on p mod m only, so
it is checked once per residue, and a failing center costs its one-line
trace.  A passing class is solved once, by two_palindrome_decision, and each
later center of it is stepped: g_{p+m}(x) = g_p(x) + sgn(k) f(p + max(k,0) - x),
since moving the center by m adds one reflected copy of f to the equation
g(x) - g(x - k) = f(x) - f(p + k - x) that g solves.  Every solution is
checked alike: both symmetries, and the product of the two factors, as
g + h(. - p) = f on the returned lamp functions rather than through multiply.
`palwidth verify` re-decides a width-3 certificate with the same scan.

The oracle searches breadth first by factor count, with one layer step on
plain (shift, lamp items) keys for every depth from 2 on; its `states`
counts the distinct non-identity elements in the layers it built, the
palindromes themselves included.  A probe e^-1 * target is formed only when
its abelian image (shift, lamp total), a homomorphism onto Z^2, is among
the images of the layer it is looked up in; the skipped probes never hit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import BudgetExceeded, HypothesisViolation, VerificationError
from .lattice import LatticeFn
# invert and multiply are unused here; the benchmark tracer wraps
# lamplighter.invert and lamplighter.multiply.
from .wreath import (IntegerGroup, WreathContext, WreathElement, evaluate_word,
                     invert, make_element, multiply)
from .wreath_factor import factorize_wreath_z
from .words import Factorization, Word, check_factorization, concat, power

LAMP_CTX = WreathContext(IntegerGroup(), 1)
A, T = 0, 1  # letter indices in the (a, t) alphabet


def _require_lamp(e: WreathElement) -> None:
    if e.ctx != LAMP_CTX:
        raise ValueError("expected an element of Z wr Z over (a, t)")


def lamp_element(fn: dict[int, int], shift: int) -> WreathElement:
    return make_element(LAMP_CTX, {(x,): v for x, v in fn.items()}, (shift,))


def is_palindromic_element(e: WreathElement) -> bool:
    """True iff the configuration is symmetric about shift/2."""
    _require_lamp(e)
    k = e.shift[0]
    return all(e.fn[(x,)] == e.fn[(k - x,)] for (x,) in e.fn.support())


def palindrome_for(e: WreathElement) -> Word:
    """One palindromic word for a symmetric element: walk to the leftmost
    relevant lamp, sweep right setting lamps, then walk to the shift.  The
    sweep spells one t run per gap between lamps, so the word costs the
    support, not the length of the sweep.  A negative shift k spells the
    mirror (t -> t^-1) of the word for the mirrored element (f(-x), -k), so
    no walk passes the origin side and comes back."""
    _require_lamp(e)
    if not is_palindromic_element(e):
        raise HypothesisViolation("element configuration is not symmetric about shift/2")
    sign = -1 if e.shift[0] < 0 else 1
    walk = lambda n: power(T, sign * n)
    lamps = sorted((sign * x, v) for x, v in _lamps(e).items())
    lo = min([0] + [x for x, _v in lamps])
    hi = abs(e.shift[0]) - lo
    parts = [walk(lo)]
    at = lo
    for x, v in lamps:
        parts += [walk(x - at), power(A, v)]
        at = x
    parts += [walk(hi - at), walk(lo)]
    word = concat(parts)
    check_factorization(lambda ws: evaluate_word(LAMP_CTX, concat(ws)), e, [word])
    return word


@dataclass
class TwoPalDecomposition:
    """Verified solution target = (g, p) * (h, q) with both parts symmetric;
    the product was checked as g + h(. - p) = f on these lamp functions."""

    g: LatticeFn
    p: int
    h: LatticeFn
    q: int

    def as_elements(self) -> tuple[WreathElement, WreathElement]:
        return (WreathElement(LAMP_CTX, self.g, (self.p,)),
                WreathElement(LAMP_CTX, self.h, (self.q,)))

    def words(self) -> tuple[Word, Word]:
        left, right = self.as_elements()
        return palindrome_for(left), palindrome_for(right)


def _lamps(e: WreathElement) -> dict[int, int]:
    return {p[0]: v for p, v in e.fn.items()}


def _key(e: WreathElement) -> tuple:
    """Hashable (shift, sorted lamp items) of an element of Z wr Z."""
    return e.shift[0], tuple(sorted(_lamps(e).items()))


def _times(a: tuple, b: tuple) -> tuple:
    """The key of a * b from the keys of a and b: a's lamps plus b's lamps
    translated by a's shift, and the sum of the shifts."""
    s, lamps = a
    t, items = b
    acc = dict(lamps)
    for x, v in items:
        x += s
        total = acc.get(x, 0) + v
        if total:
            acc[x] = total
        else:
            del acc[x]
    return s + t, tuple(sorted(acc.items()))


def _image(key: tuple) -> tuple[int, int]:
    """The abelian image (shift, lamp total) of a key: a homomorphism onto Z^2."""
    return key[0], sum(v for _x, v in key[1])


def _residue_sums(f: dict[int, int], m: int) -> dict[int, int]:
    """The nonzero residue sums S(c) of f over x = c mod m."""
    sums: dict[int, int] = {}
    for x, v in f.items():
        sums[x % m] = sums.get(x % m, 0) + v
    return {c: total for c, total in sums.items() if total}


def _residue_gap(sums: dict[int, int], m: int, p: int) -> tuple[int, int] | None:
    """k != 0: the smallest residue c with S(c) != S((p - c) mod m) and that
    difference, or None when there is none.  Only residues in `sums` or
    mirrored from it can differ, and the answer depends on p mod m only."""
    gaps = {c: sums.get(c, 0) - sums.get((p - c) % m, 0)
            for c in {*sums, *((p - c) % m for c in sums)}}
    c = min((c for c, gap in gaps.items() if gap), default=None)
    return None if c is None else (c, gaps[c])


def _residue_trace(p: int, m: int, gap: tuple[int, int] | None) -> str | None:
    if gap is None:
        return None
    c, total = gap
    return f"p={p}: residue class {c} mod {m} sums to {total}"


def _mirror_trace(f: dict[int, int], p: int) -> str | None:
    """k = 0: the trace naming the first lamp of f, in f's order, that differs
    from its mirror about p/2, or None when f is symmetric about p/2."""
    for x, v in f.items():
        if f.get(p - x, 0) != v:
            return (f"p={p}: lamps not symmetric about p/2: "
                    f"f({x}) = {v}, f({p - x}) = {f.get(p - x, 0)}")
    return None


def two_palindrome_decision(target: WreathElement, p: int
                            ) -> TwoPalDecomposition | str:
    """Exact decision for the given left shift p: a verified decomposition,
    or a one-line trace string when none exists.

    Let (f, k) be the target and m = |k|.  A solution (g, p)(h, k - p) has g
    symmetric about p/2 and h0 := f - g symmetric about (p + k)/2, which
    together say g(x) - g(x - k) = d(x) := f(x) - f(p + k - x).  For k != 0
    the finitely supported g is unique: a running sum of d along each residue
    class mod m, taken in the direction of k.  It exists exactly when every
    class sums to zero, i.e. S(c) = S((p - c) mod m) for every residue c,
    where S(c) is the sum of f over the class of c.  For k = 0 a solution
    exists exactly when f is symmetric about p/2; then g := f and h := 0.
    """
    _require_lamp(target)
    f = _lamps(target)
    k = target.shift[0]
    if k == 0:
        trace = _mirror_trace(f, p)
        if trace is not None:
            return trace
        g = dict(f)
    else:
        m = abs(k)
        trace = _residue_trace(p, m, _residue_gap(_residue_sums(f, m), m, p))
        if trace is not None:
            return trace
        d: dict[int, int] = {}
        for x, v in f.items():
            d[x] = d.get(x, 0) + v
            d[p + k - x] = d.get(p + k - x, 0) - v
        classes: dict[int, list[int]] = {}
        for x in filter(d.get, d):  # supp d
            classes.setdefault(x % m, []).append(x)
        # g(x) = g(x - k) + d(x): walk each class in the direction of k; g is
        # constant on the class between consecutive points of supp d.
        g = {}
        for xs in classes.values():
            xs.sort(reverse=k < 0)
            running = 0
            for x, stop in zip(xs, xs[1:]):
                running += d[x]
                if running:
                    g.update(dict.fromkeys(range(x, stop, k), running))
    return _checked(target, f, p, g)


def _checked(target: WreathElement, f: dict[int, int], p: int,
             g: dict[int, int]) -> TwoPalDecomposition | str:
    """The decomposition (g, p)(f - g, k - p) of the target (f, k), checked on
    lamp dicts: g (zero entries ignored) symmetric about p/2, h0 := f - g
    about (p + k)/2, and the product of the returned factors, g plus h
    translated by p, equal to f; their shift p + (k - p) is k as built.
    Else the failing trace."""
    k = target.shift[0]
    g_entries = {}
    h0 = dict(f)  # f - g, without zero entries
    for x, v in g.items():
        if not v:
            continue
        if g.get(p - x, 0) != v:
            return f"p={p}: solved g breaks its symmetry at {x}"
        g_entries[(x,)] = v
        rest = h0.get(x, 0) - v
        if rest:
            h0[x] = rest
        else:
            h0.pop(x, None)
    for x, v in h0.items():
        if h0.get(p + k - x, 0) != v:
            return f"p={p}: residual h breaks its symmetry at {x}"
    decomposition = TwoPalDecomposition(
        LatticeFn._of(1, g_entries), p,
        LatticeFn._of(1, {(x - p,): v for x, v in h0.items()}), k - p)
    product = {x: v for (x,), v in decomposition.g._entries.items()}
    for (x,), v in decomposition.h._entries.items():
        x += p
        v += product.get(x, 0)
        if v:
            product[x] = v
        else:
            del product[x]
    if product != f:
        raise VerificationError("verified decomposition fails to multiply back")
    return decomposition


def scan_centers(target: WreathElement, lo: int, hi: int
                 ) -> dict[int, TwoPalDecomposition | str]:
    """two_palindrome_decision at every center p in [lo, hi], from one residue
    table.  For k != 0 a center fails exactly when S(c) != S((p - c) mod m)
    for some residue c, which depends on p mod m only, so the rule is checked
    once per residue of p; for k = 0 it fails when f is not symmetric about
    p/2.  A failing center's verdict is the trace that two_palindrome_decision
    gives.  A passing center p steps the decomposition at p - m, if any:
    g_p(x) = g_{p-m}(x) + sgn(k) f(p + min(k, 0) - x), the one reflected copy
    of f by which g(x) - g(x - k) = f(x) - f(p + k - x) grows from p - m to p.
    Other passing centers are solved by two_palindrome_decision.  Every
    passing center is checked alike: both symmetries, and g + h(. - p) = f on
    the returned lamp functions, with no multiply through the group model."""
    _require_lamp(target)
    f = _lamps(target)
    k = target.shift[0]
    m = abs(k)
    if k:
        sums = _residue_sums(f, m)
        gap = functools.cache(lambda r: _residue_gap(sums, m, r))
        trace = lambda p: _residue_trace(p, m, gap(p % m))
    else:
        trace = lambda p: _mirror_trace(f, p)
    verdicts: dict[int, TwoPalDecomposition | str] = {}
    for p in range(lo, hi + 1):
        failed, before = trace(p), verdicts.get(p - m)  # k = 0: p - m is p
        if failed or not isinstance(before, TwoPalDecomposition):
            verdicts[p] = failed or two_palindrome_decision(target, p)
            continue
        g = {x: v for (x,), v in before.g._entries.items()}
        for x, v in f.items():
            y = p + min(k, 0) - x
            g[y] = g.get(y, 0) + (v if k > 0 else -v)
        verdicts[p] = _checked(target, f, p, g)
    return verdicts


@dataclass
class TwoPalWitness:
    """Per-center verdict table plus the upper factorization certificate."""

    target: WreathElement
    p_range: tuple[int, int]
    verdicts: dict[int, TwoPalDecomposition | str]
    in_hypothesis: bool
    upper: Factorization

    @property
    def all_none(self) -> bool:
        return all(isinstance(v, str) for v in self.verdicts.values())

    def found(self) -> list[int]:
        return [p for p, v in self.verdicts.items()
                if isinstance(v, TwoPalDecomposition)]


def default_scan_radius(target: WreathElement) -> int:
    k = target.shift[0]
    return abs(k) + target.fn.box_radius() + 22


def in_width3_hypothesis(target: WreathElement) -> bool:
    """The paper's width-3 witnesses: lamps a != b at 0 and 1, shift 3."""
    f = _lamps(target)
    return set(f) == {0, 1} and f[0] != f[1] and target.shift[0] == 3


def certify_width_three(target: WreathElement,
                        scan_radius: int | None = None) -> TwoPalWitness:
    """Scan all centers p in [-P, P + |k|] and attach the <=3-factor upper bound."""
    _require_lamp(target)
    if scan_radius is not None and scan_radius < 0:
        raise ValueError(f"scan radius must be >= 0, got {scan_radius}")
    radius = default_scan_radius(target) if scan_radius is None else scan_radius
    k = target.shift[0]
    lo, hi = -radius, radius + abs(k)
    return TwoPalWitness(target, (lo, hi), scan_centers(target, lo, hi),
                         in_width3_hypothesis(target), factorize_wreath_z(target))


def enumerate_palindromes(max_len: int) -> list[Word]:
    """All nonempty palindromes over (a, t) of length <= max_len, shortest first.

    A palindrome is its first ceil(L/2) letters mirrored, so each length-L
    word comes from a free choice of half letters.
    """
    alphabet = [(A, 1), (A, -1), (T, 1), (T, -1)]
    out: list[Word] = []
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        for prefix in itertools.product(alphabet, repeat=half):
            mirror = prefix[:length - half][::-1]
            out.append(Word(prefix + mirror))
    return out


@functools.lru_cache(maxsize=8)
def _palindrome_table(max_len: int) -> tuple[Mapping[tuple, tuple[Word, ...]],
                                             tuple[tuple, ...], frozenset[tuple]]:
    """The oracle's first layer: the distinct non-identity elements of the
    palindromes of length <= max_len, each under its _key and with its first
    word in enumeration order as a one-factor witness; the same elements in
    the same order as (key, key of the inverse, image, word); and the set of
    their images."""
    layer: dict[tuple, tuple[Word, ...]] = {}
    steps: list[tuple[tuple, tuple, tuple, Word]] = []
    for w in enumerate_palindromes(max_len):
        e = evaluate_word(LAMP_CTX, w)
        s, lamps = key = _key(e)
        if not e.is_identity() and key not in layer:
            layer[key] = (w,)
            # (f, s)^-1 is (-f translated by -s, -s)
            steps.append((key, (-s, tuple((x - s, -v) for x, v in lamps)),
                          _image(key), w))
    return MappingProxyType(layer), tuple(steps), frozenset(step[2] for step in steps)


@dataclass
class OracleResult:
    status: str  # "exact" | "exceeds-max-factors" | "budget-exceeded"
    minimal: int | None
    palindromes: int = 0
    states: int = 0  # distinct non-identity elements in the layers built
    witness: list[Word] = field(default_factory=list)


def minimal_palindromic_length_bfs(target: WreathElement, max_len: int,
                                   max_factors: int,
                                   max_states: int = 2_000_000) -> OracleResult:
    """Exact minimum number of palindromes of length <= max_len multiplying to
    the target, or the reason none was found within the budget.

    Breadth-first over layers: layer d holds the elements first reached as a
    product of d palindromes, each with one witness.  Layer 1 is the cached
    palindrome table, and one step on element keys serves every depth d >= 2:
    the target has length d when e^-1 * target lies in layer d - 1 for some
    single e, and layer d is singles * layer (d - 1), new elements only.
    `states` counts the elements of the layers built, layer 1 included, and
    growing a layer past `max_states` raises BudgetExceeded.
    """
    _require_lamp(target)
    for name, value in (("max_len", max_len), ("max_factors", max_factors),
                        ("max_states", max_states)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if target.is_identity():
        return OracleResult("exact", 0)

    singles, steps, images = _palindrome_table(max_len)
    if not singles:
        return OracleResult("exceeds-max-factors", None)
    palindromes = states = len(singles)
    goal = _key(target)
    if max_factors >= 1 and goal in singles:
        return OracleResult("exact", 1, palindromes=palindromes, states=states,
                            witness=list(singles[goal]))

    gs, gv = _image(goal)
    layer: Mapping[tuple, tuple[Word, ...]] = singles
    for depth in range(2, max_factors + 1):
        if depth > 2:
            if depth == 3:  # the first grown layer; the identity is never a state
                seen = {*singles, (0, ())}
            grown: dict[tuple, tuple[Word, ...]] = {}
            for key, ws in layer.items():
                for e, _, _, w in steps:
                    product = _times(e, key)
                    if product in seen:
                        continue
                    seen.add(product)
                    grown[product] = (w, *ws)
                    states += 1
                    if states > max_states:
                        raise BudgetExceeded(
                            f"state budget {max_states} exceeded at depth {depth}")
            layer, images = grown, {_image(key) for key in grown}
        for _, inverse, (s, v), w in steps:
            # e^-1 * target lies in the layer only if its image does
            hit = (gs - s, gv - v) in images and layer.get(_times(inverse, goal))
            if hit:
                return OracleResult("exact", depth, palindromes=palindromes,
                                    states=states, witness=[w, *hit])
    return OracleResult("exceeds-max-factors", None, palindromes=palindromes,
                        states=states)
