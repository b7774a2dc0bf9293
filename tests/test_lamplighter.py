import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from palwidth import (BudgetExceeded, HypothesisViolation, OracleResult,
                      TwoPalDecomposition, VerificationError, certify_width_three,
                      check_factorization, concat,
                      enumerate_palindromes, evaluate_word, format_word, invert,
                      is_palindromic_element, lamp_element,
                      minimal_palindromic_length_bfs, multiply, palindrome_for,
                      parse_word, two_palindrome_decision)
from palwidth import cli
from palwidth.certificates import canonical_json, decomposition_json
from palwidth.lamplighter import LAMP_CTX, _lamps, _require_lamp, scan_centers
from palwidth.lattice import LatticeFn
from palwidth.wreath import element_to_json

from test_wreath import G_ROW, W_G

WITNESS = lamp_element({0: 1, 1: 2}, 3)
BUDGET = settings(max_examples=400, deadline=None, database=None)


# The window-propagation decision that the closed form replaced, kept as the
# reference it is compared against.
def _window(f, k, p):
    """Interval outside which every finitely supported solution vanishes.

    Base interval: min/max of {0, p, k, supp f} padded by |k| + 2.  For k != 0
    the solution is unique and its support lies within the reflection-chain
    bounds computed from where the propagation jumps can hit supp f; the
    window is the hull of both.
    """
    pts = [0, p, k] + list(f)
    lo, hi = min(pts) - abs(k) - 2, max(pts) + abs(k) + 2
    if f and k != 0:
        min_f, max_f = min(f), max(f)
        if k > 0:
            a = max(p - min_f, max_f - k)       # g support within [p - a, a]
            b = min(p + k - max_f, min_f + k)   # h0 support within [b, p + k - b]
            hull = [a, p - a, b, p + k - b]
        else:
            a = min(p - max_f, min_f - k)
            b = max(p + k - min_f, max_f + k)
            hull = [a, p - a, b, p + k - b]
        lo = min([lo] + [c - 2 for c in hull])
        hi = max([hi] + [c + 2 for c in hull])
    return lo, hi


def _window_decision(target, p):
    """Exact decision for the given left shift p: a verified decomposition,
    or a contradiction trace string when none exists.

    Solves for g on a finite window with zero boundary; g must be symmetric
    about p/2 and h0 := f - g symmetric about (p + k)/2, where k is the
    target shift.  Outside the window any finitely supported solution is
    forced to vanish, so the procedure is complete as well as sound.
    """
    _require_lamp(target)
    f = _lamps(target)
    k = target.shift[0]
    q = k - p
    lo, hi = _window(f, k, p)
    window = range(lo, hi + 1)
    in_window = lambda x: lo <= x <= hi

    fval = lambda x: f.get(x, 0)
    g: dict[int, int] = {}

    def relations(x: int) -> list[tuple[int, int]]:
        # g(x) = g(p - x); g(x) = g(p + k - x) + (f(x) - f(p + k - x))
        return [(p - x, 0), (p + k - x, fval(x) - fval(p + k - x))]

    def set_value(x: int, value: int, note: str) -> str | None:
        if x in g:
            if g[x] != value:
                return f"p={p}: g({x}) forced to both {g[x]} and {value} ({note})"
            return None
        g[x] = value
        frontier.append(x)
        return None

    seen: set[int] = set()
    for start in window:
        if start in seen or start in g:
            seen.add(start)
            continue
        # Explore the constraint component of `start`.
        component = []
        stack = [start]
        comp_seen = set()
        anchored = False
        while stack:
            x = stack.pop()
            if x in comp_seen or not in_window(x):
                continue
            comp_seen.add(x)
            component.append(x)
            for y, _ in relations(x):
                if in_window(y):
                    stack.append(y)
                else:
                    anchored = True
        seen.update(comp_seen)
        frontier: list[int] = []
        if anchored:
            # Some relation exits the window; propagate zeros inward.
            for x in sorted(component):
                for y, delta in relations(x):
                    if not in_window(y):
                        # g(y) = 0 pinned, so g(x) = 0 + delta along that relation.
                        trace = set_value(x, delta, f"boundary via {y}")
                        if trace:
                            return trace
        if not any(x in g for x in component):
            # Closed component (only possible when k = 0): choose h0 = 0 there.
            x0 = min(component)
            trace = set_value(x0, fval(x0), "free component, h0 := 0")
            if trace:
                return trace
        while frontier:
            x = frontier.pop()
            base = g[x]
            for y, delta in relations(x):
                # g(x) = g(y) + delta
                if in_window(y):
                    trace = set_value(y, base - delta, f"from g({x})")
                    if trace:
                        return trace
                elif base - delta != 0:
                    return (f"p={p}: g({y}) = {base - delta} outside the window "
                            f"contradicts finite support")

    g_fn = LatticeFn(1, {(x,): v for x, v in g.items()})
    h0 = {x: fval(x) - g.get(x, 0) for x in set(f) | set(g)}
    # Verify both symmetries exactly before reporting success.
    for x in set(g) | {p - x for x in g}:
        if g.get(x, 0) != g.get(p - x, 0):
            return f"p={p}: solved g breaks its symmetry at {x}"
    for x in set(h0) | {p + k - x for x in h0}:
        if h0.get(x, 0) != h0.get(p + k - x, 0):
            return f"p={p}: residual h breaks its symmetry at {x}"
    h_fn = LatticeFn(1, {(x - p,): v for x, v in h0.items() if v})
    decomposition = TwoPalDecomposition(g_fn, p, h_fn, q)
    left, right = decomposition.as_elements()
    if multiply(left, right) != target:
        raise VerificationError("verified decomposition fails to multiply back")
    return decomposition


def test_is_palindromic_element():
    assert is_palindromic_element(lamp_element({-1: 5, 0: 7, 1: 5}, 0))
    assert not is_palindromic_element(WITNESS)
    assert is_palindromic_element(lamp_element(G_ROW, 0))
    assert is_palindromic_element(lamp_element({}, 0))


def test_palindrome_for_examples():
    assert palindrome_for(lamp_element({}, 0)) == parse_word(LAMP_CTX.alphabet, "")
    word = palindrome_for(lamp_element({-1: 5, 0: 7, 1: 5}, 0))
    assert format_word(LAMP_CTX.alphabet, word) == "t^-1a^5ta^7ta^5t^-1"
    assert format_word(LAMP_CTX.alphabet, palindrome_for(lamp_element(G_ROW, 0))) == W_G
    # far lamps cost their support, not the sweep between them
    far = palindrome_for(lamp_element({-10 ** 6: 1, 10 ** 6: 1}, 0))
    assert format_word(LAMP_CTX.alphabet, far) == "t^-1000000at^2000000at^-1000000"
    far = palindrome_for(lamp_element({10 ** 6: 3}, 2 * 10 ** 6))
    assert format_word(LAMP_CTX.alphabet, far) == "t^1000000a^3t^1000000"
    with pytest.raises(HypothesisViolation):
        palindrome_for(WITNESS)


def test_palindrome_for_random_symmetric():
    rng = random.Random(0)
    for _ in range(200):
        k = rng.randint(-6, 6)
        half = {x: rng.randint(-4, 4) for x in range(k, k + rng.randint(0, 4))}
        fn = {}
        for x, v in half.items():
            fn[x] = fn.get(x, 0) + v
            fn[k - x] = fn.get(k - x, 0) + (v if 2 * x != k else 0)
        fn = {x: v for x, v in fn.items() if v}
        e = lamp_element(fn, k)
        if not is_palindromic_element(e):
            continue
        word = palindrome_for(e)
        assert word.is_palindrome()
        assert evaluate_word(LAMP_CTX, word) == e


# sha256 over palindrome_for's text, one word per line, for the seeded
# symmetric elements of shift k >= 0 below.
GOLDEN_PALINDROME_FOR_SHA256 = \
    "ee28df79f0ab5dacc8af5fb6742bfc45aeb6ed8190816459002f7885b204ff5e"


def _symmetric_elements(shifts):
    """Seeded palindromic elements, 50 per shift: up to 4 lamps of
    [-12, 12] mirrored about k/2."""
    rng = random.Random(20261022)
    for _ in range(50):
        for k in shifts:
            half = {rng.randint(-12, 12): rng.choice([-3, -1, 1, 2, 5])
                    for _ in range(rng.randint(0, 4))}
            yield lamp_element({x: v for x, v in _symmetric(half, k).items() if v}, k)


def test_palindrome_for_nonnegative_shift_matches_golden():
    lines = [format_word(LAMP_CTX.alphabet, palindrome_for(e))
             for e in _symmetric_elements(range(0, 9))]
    assert len(lines) == 450
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_PALINDROME_FOR_SHA256


def test_palindrome_for_negative_shift_is_the_mirror_word():
    """For k < 0 the word is freely reduced and has 2|k| fewer t letters than
    the sweep from min(0, k, supp) to k - min(0, k, supp) and back, which
    costs k - 4 min(0, k, supp) t letters."""
    for fn, k, text in (({-4: 1, -6: 1}, -10, "t^-4at^-2at^-4"),
                        ({-1: 5}, -2, "t^-1a^5t^-1")):
        assert format_word(LAMP_CTX.alphabet, palindrome_for(lamp_element(fn, k))) == text
    for e in _symmetric_elements(range(-8, 0)):
        word = palindrome_for(e)
        assert word.is_palindrome() and word.free_reduce() == word
        assert evaluate_word(LAMP_CTX, word) == e
        k, lamps = e.shift[0], _lamps(e)
        sweep = k - 4 * min([k, *lamps])
        assert len(word) == sum(map(abs, lamps.values())) + sweep - 2 * abs(k)


def _solve_window_fractions(f, k, p, lo, hi):
    """Independent oracle: dense Gaussian elimination for g on the window."""
    xs = list(range(lo, hi + 1))
    index = {x: i for i, x in enumerate(xs)}
    rows = []

    def g_coeff(x):
        row = [Fraction(0)] * len(xs)
        inside = lo <= x <= hi
        if inside:
            row[index[x]] = Fraction(1)
        return row, inside

    fval = lambda x: Fraction(f.get(x, 0))
    for x in xs:
        # g(x) - g(p - x) = 0
        row1, _ = g_coeff(x)
        row2, _ = g_coeff(p - x)
        rows.append(([a - b for a, b in zip(row1, row2)], Fraction(0)))
        # g(x) - g(p + k - x) = f(x) - f(p + k - x)
        row3, _ = g_coeff(p + k - x)
        rows.append(([a - b for a, b in zip(row1, row3)], fval(x) - fval(p + k - x)))
    # f must vanish outside the window for solutions pinned to it
    for x in f:
        if not lo <= x <= hi and f[x]:
            return None

    matrix = [row + [rhs] for row, rhs in rows]
    cols = len(xs)
    pivot_row = 0
    pivots = []
    for col in range(cols):
        sel = next((i for i in range(pivot_row, len(matrix)) if matrix[i][col]), None)
        if sel is None:
            continue
        matrix[pivot_row], matrix[sel] = matrix[sel], matrix[pivot_row]
        pivot = matrix[pivot_row][col]
        matrix[pivot_row] = [v / pivot for v in matrix[pivot_row]]
        for i in range(len(matrix)):
            if i != pivot_row and matrix[i][col]:
                factor = matrix[i][col]
                matrix[i] = [v - factor * w for v, w in zip(matrix[i], matrix[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for i in range(pivot_row, len(matrix)):
        if matrix[i][-1] != 0:
            return None  # inconsistent
    # free variables: set to f(x) (mirrors the solver's h0 := 0 tie-break)
    solution = [None] * cols
    free = [c for c in range(cols) if c not in pivots]
    for c in free:
        solution[c] = fval(xs[c])
    for row_i, col in reversed(list(enumerate(pivots))):
        value = matrix[row_i][-1]
        for c in range(col + 1, cols):
            if matrix[row_i][c]:
                value -= matrix[row_i][c] * solution[c]
        solution[col] = value
    if any(v.denominator != 1 for v in solution):
        return None
    return {x: int(v) for x, v in zip(xs, solution) if v}


def test_decision_none_for_witness():
    for p in (-1, 0):
        verdict = two_palindrome_decision(WITNESS, p)
        assert isinstance(verdict, str)


def test_decision_full_scan_witness():
    for p in range(-25, 29):
        assert isinstance(two_palindrome_decision(WITNESS, p), str)


def test_decision_finds_constructed():
    rng = random.Random(1)
    for _ in range(60):
        p = rng.randint(-5, 5)
        q = rng.randint(-5, 5)
        g = {}
        for _ in range(rng.randint(0, 3)):
            x = rng.randint(-4, 4)
            v = rng.randint(-3, 3)
            g[x] = g.get(x, 0) + v
            g[p - x] = g.get(p - x, 0) + (v if 2 * x != p else 0)
        h = {}
        for _ in range(rng.randint(0, 3)):
            x = rng.randint(-4, 4)
            v = rng.randint(-3, 3)
            h[x] = h.get(x, 0) + v
            h[q - x] = h.get(q - x, 0) + (v if 2 * x != q else 0)
        left = lamp_element({x: v for x, v in g.items() if v}, p)
        right = lamp_element({x: v for x, v in h.items() if v}, q)
        if not (is_palindromic_element(left) and is_palindromic_element(right)):
            continue
        target = multiply(left, right)
        verdict = two_palindrome_decision(target, p)
        assert isinstance(verdict, TwoPalDecomposition)
        l2, r2 = verdict.as_elements()
        assert multiply(l2, r2) == target
        assert is_palindromic_element(l2) and is_palindromic_element(r2)
        w1, w2 = verdict.words()
        assert evaluate_word(LAMP_CTX, w1 * w2) == target


def test_decision_cross_oracle():
    # 100 random small targets x a few centers: propagation agrees with an
    # independent exact linear solve on the same window.
    rng = random.Random(2)
    for _ in range(100):
        fn = {x: rng.randint(-2, 2) for x in range(rng.randint(-2, 0),
                                                   rng.randint(1, 3))}
        fn = {x: v for x, v in fn.items() if v}
        k = rng.randint(-3, 4)
        target = lamp_element(fn, k)
        p = rng.randint(-6, 6)
        verdict = two_palindrome_decision(target, p)
        lo, hi = _window(fn, k, p)
        oracle = _solve_window_fractions(fn, k, p, lo, hi)
        if isinstance(verdict, TwoPalDecomposition):
            assert oracle is not None
            assert {x: v for (x,), v in verdict.g.items()} == oracle
        else:
            assert oracle is None, (fn, k, p, oracle)


def _symmetric(half, center2):
    """Symmetrize a dict of lamps about center2 / 2."""
    out = {}
    for x, v in half.items():
        out[x] = out.get(x, 0) + v
        if 2 * x != center2:
            out[center2 - x] = out.get(center2 - x, 0) + v
    return out


@st.composite
def decision_cases(draw):
    """(target, p) with |k| <= 8, lamps in [-9, 9] and p in [-13, 13]: half
    the targets random, half products of two palindromic elements at p."""
    k = draw(st.integers(-8, 8))
    p = draw(st.integers(-13, 13))
    lamps = st.dictionaries(st.integers(-9, 9), st.integers(-3, 3), max_size=6)
    if draw(st.booleans()):
        fn = draw(lamps)
    else:
        fn = _symmetric(draw(lamps), p)
        for x, v in _symmetric(draw(lamps), k - p).items():
            fn[x + p] = fn.get(x + p, 0) + v
    return lamp_element({x: v for x, v in fn.items() if v}, k), p


@BUDGET
@given(decision_cases())
@example((lamp_element({0: 1, 1: 2}, 3), 0))
@example((lamp_element({-2: 1, 2: 1, 5: 3}, 0), 0))
@example((lamp_element({-2: 1, 2: 1}, 0), 0))
@example((lamp_element({0: 4, 7: -1}, -2), 3))
def test_closed_form_matches_window_propagation(case):
    target, p = case
    new, old = two_palindrome_decision(target, p), _window_decision(target, p)
    assert isinstance(new, str) == isinstance(old, str), (new, old)
    if isinstance(new, TwoPalDecomposition):
        assert (new.g, new.p, new.h, new.q) == (old.g, old.p, old.h, old.q)
        assert new.words() == old.words()


@functools.cache
@settings(max_examples=300, deadline=None, database=None)
@given(decision_cases())
@example((lamp_element({}, 0), 0))
@example((lamp_element({-2: 1, 2: 1}, 0), 0))
@example((WITNESS, 0))
@example((lamp_element({0: 4, 7: -1}, -2), 3))
# Each center passes at k = +-1; these ranges start mid-chain, so the first
# center is solved and the rest are stepped.
@example((lamp_element({-3: 2, 0: -1, 4: 5}, 1), 0, (5, 12)))
@example((lamp_element({-2: 1, 1: 3, 6: -4}, -1), 0, (-3, 4)))
# Negative k, every center passing: stepping walks g against the shift.
@example((lamp_element({0: -1, 1: -1, 2: -1}, -3), 0))
# |k| = 9 exceeds the 7 centers scanned, each of which passes and starts its chain.
@example((lamp_element({0: 1, 1: 1, 2: 1, 3: 3, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 12: -2}, 9),
          0, (-2, 4)))
def test_scan_matches_per_center_decision(case):
    target, _, *scan = case  # an example may fix the scan range
    lo, hi = scan[0] if scan else (-16, 16 + abs(target.shift[0]))
    scanned = scan_centers(target, lo, hi)
    assert list(scanned) == list(range(lo, hi + 1))
    for p, verdict in scanned.items():
        # the group law is the oracle for the library's check on lamp dicts
        if isinstance(verdict, TwoPalDecomposition):
            assert multiply(*verdict.as_elements()) == target, p
        assert (decomposition_json(verdict)
                == decomposition_json(two_palindrome_decision(target, p))), p


def _reference_table(max_len):
    elements = {}
    for w in enumerate_palindromes(max_len):
        e = evaluate_word(LAMP_CTX, w)
        if not e.is_identity():
            elements.setdefault(e.frozen(), (e, w))
    return elements


def _reference_oracle(target, max_len, max_factors=2):
    """The oracle as multiply(invert(e), target) loops over a table rebuilt
    here from enumerate_palindromes, with the WreathElement search that the
    plain-dict layers replaced at depth >= 3."""
    elements = _reference_table(max_len)
    if target.is_identity():
        return OracleResult("exact", 0)
    # every later return has built the single layer, which counts as states
    if max_factors >= 1 and target.frozen() in elements:
        return OracleResult("exact", 1, palindromes=len(elements), states=len(elements),
                            witness=[elements[target.frozen()][1]])
    if max_factors >= 2:
        for e, w in elements.values():
            hit = elements.get(multiply(invert(e), target).frozen())
            if hit is not None:
                return OracleResult("exact", 2, palindromes=len(elements),
                                    states=len(elements), witness=[w, hit[1]])
    # Depth >= 3: breadth-first layers over right multiplication by single
    # palindromes; depth d divides one palindrome off the right of the target.
    singles = list(elements.values())
    layer = {key: [w] for key, (_, w) in elements.items()}
    layer_elems = {key: e for key, (e, _) in elements.items()}
    visited = set(layer)
    states = len(layer)
    for depth in range(3, max_factors + 1):
        new_layer, new_elems = {}, {}
        for key, ws in layer.items():
            left = layer_elems[key]
            for e, w in singles:
                prod = multiply(left, e)
                pkey = prod.frozen()
                if pkey in visited or pkey in new_layer or prod.is_identity():
                    continue
                new_layer[pkey] = ws + [w]
                new_elems[pkey] = prod
                states += 1
        visited.update(new_layer)
        layer, layer_elems = new_layer, new_elems
        for e, w in singles:
            hit = layer.get(multiply(target, invert(e)).frozen())
            if hit is not None:
                return OracleResult("exact", depth, palindromes=len(elements),
                                    states=states, witness=hit + [w])
    return OracleResult("exceeds-max-factors", None, palindromes=len(elements),
                        states=states)


_PALINDROMES_9 = enumerate_palindromes(9)


@BUDGET
@given(st.sampled_from((5, 7)),
       st.one_of(st.tuples(st.sampled_from(_PALINDROMES_9), st.sampled_from(_PALINDROMES_9))
                 .map(lambda ws: evaluate_word(LAMP_CTX, ws[0] * ws[1])),
                 st.tuples(st.integers(-20, 20), st.integers(-20, 20))
                 .map(lambda ab: lamp_element({0: ab[0], 1: ab[1]}, 3))))
@example(7, WITNESS)
@example(7, lamp_element({}, 0))
def test_oracle_two_factor_step_matches_reference(max_len, target):
    got = minimal_palindromic_length_bfs(target, max_len, 2)
    want = _reference_oracle(target, max_len)
    assert (got.status, got.minimal, got.palindromes, got.states) == \
        (want.status, want.minimal, want.palindromes, want.states)
    assert got.witness == want.witness


def _search_cases(bounds):
    """(bounds, target): a product of three palindromes within max_len, or a
    few small lamps."""
    pals = enumerate_palindromes(bounds[0])
    return st.tuples(st.just(bounds), st.one_of(
        st.lists(st.sampled_from(pals), min_size=3, max_size=3)
        .map(lambda ws: evaluate_word(LAMP_CTX, concat(ws))),
        st.builds(lamp_element, st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                                                min_size=1, max_size=3),
                  st.integers(-3, 3))))


# (max_len, max_factors) pairs; the reference takes seconds per example once
# a (5, 4) search runs past depth 3.
@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([(3, 3), (3, 4), (4, 3), (4, 4), (5, 3)]).flatmap(_search_cases))
@example(((3, 4), lamp_element({0: 3, 2: -3}, 3)))  # exact at depth 4
@example(((3, 4), lamp_element({-2: 3, 1: -3, 2: 2}, -3)))  # no 4 factors
@example(((4, 4), lamp_element({-2: 3, 0: -3, 2: 3}, 1)))  # 15,478 states
def test_oracle_matches_reference_search(case):
    (max_len, max_factors), target = case
    got = minimal_palindromic_length_bfs(target, max_len, max_factors)
    want = _reference_oracle(target, max_len, max_factors)
    assert (got.status, got.minimal, got.palindromes, got.states) == \
        (want.status, want.minimal, want.palindromes, want.states)
    assert len(got.witness) == (got.minimal or 0)
    if got.minimal:
        assert all(len(w) <= max_len for w in got.witness)
        check_factorization(lambda w: evaluate_word(LAMP_CTX, w), target, got.witness)
    if got.minimal is not None and got.minimal <= 2:
        assert got.witness == want.witness  # deeper witnesses may differ


def test_certify_width_three_witness():
    witness = certify_width_three(WITNESS, scan_radius=25)
    assert witness.in_hypothesis
    assert witness.all_none
    assert witness.p_range == (-25, 28)
    assert witness.upper.count <= 3


def test_certify_rejects_negative_scan_radius():
    with pytest.raises(ValueError, match="scan radius"):
        certify_width_three(lamp_element({0: 1}, 3), scan_radius=-5)
    assert certify_width_three(WITNESS, scan_radius=0).p_range == (0, 3)


def test_certify_out_of_hypothesis_still_runs():
    eq = lamp_element({0: 1, 1: 1}, 3)
    witness = certify_width_three(eq, scan_radius=6)
    assert not witness.in_hypothesis
    assert len(witness.verdicts) == 6 + 6 + 3 + 1


def test_certify_exploratory_shift_two():
    witness = certify_width_three(lamp_element({0: 1, 1: 2}, 2), scan_radius=8)
    assert not witness.in_hypothesis
    # cross-check every found/none verdict against the oracle count
    res = minimal_palindromic_length_bfs(lamp_element({0: 1, 1: 2}, 2), 7, 2)
    if witness.found():
        assert res.status == "exact" and res.minimal <= 2


def test_oracle_identity_and_single():
    assert minimal_palindromic_length_bfs(lamp_element({}, 0), 5, 3).minimal == 0
    assert minimal_palindromic_length_bfs(lamp_element({0: 1}, 0), 5, 3).minimal == 1


def test_oracle_witness_not_two():
    res = minimal_palindromic_length_bfs(WITNESS, 9, 2)
    assert res.status == "exceeds-max-factors"
    assert res.minimal is None


def test_oracle_consistent_with_decision():
    rng = random.Random(3)
    pals = enumerate_palindromes(7)
    for _ in range(25):
        w1, w2 = rng.choice(pals), rng.choice(pals)
        target = evaluate_word(LAMP_CTX, w1 * w2)
        res = minimal_palindromic_length_bfs(target, 7, 2)
        assert res.status == "exact" and res.minimal <= 2
        if res.minimal == 2:
            scan = certify_width_three(target)
            assert scan.found(), "decision scan missed a two-palindrome product"


def test_oracle_budget_guard():
    with pytest.raises(BudgetExceeded):
        minimal_palindromic_length_bfs(WITNESS, 7, 5, max_states=500)


@pytest.mark.parametrize("budgets", [(-1, 2, 100), (3, -2, 100), (3, 2, -1)])
def test_oracle_rejects_negative_budgets(budgets):
    max_len, max_factors, max_states = budgets
    for target in (lamp_element({}, 0), lamp_element({0: 1}, 1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            minimal_palindromic_length_bfs(target, max_len, max_factors,
                                           max_states=max_states)


def test_oracle_three_factors():
    # a three-palindrome product that no two short palindromes reproduce
    res = minimal_palindromic_length_bfs(WITNESS, 7, 4)
    assert res.status == "exact"
    assert res.minimal == 3
    assert evaluate_word(LAMP_CTX, concat(res.witness)) == WITNESS


# sha256 over the canonical JSON of the certificates below, one per line.
GOLDEN_WIDTH3_SHA256 = "f62f1aa9d551b92b5e2b93602bd61db91360d4dc4a0f2ade24fc5490b6073743"


def _golden_width3_targets():
    """Seeded (target, scan radius) pairs: witnesses ({0:a, 1:b}, 3), products
    of two palindromes with k = 0, +-1, ..., +-7, random lamps, the identity,
    and radius 0."""
    rng = random.Random(20261020)
    lamps = lambda: {rng.randint(-6, 6): rng.choice([-5, -3, -1, 1, 2, 4])
                     for _ in range(rng.randint(0, 4))}
    for radius in (None, 0, 5):
        a, b = rng.sample([v for v in range(-20, 21) if v], 2)
        yield lamp_element({0: a, 1: b}, 3), radius
        yield lamp_element({0: a, 1: a}, 3), radius
    for k in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7):
        for radius in (None, rng.choice((0, 3, 8))):
            p = rng.randint(-8, 8)
            fn = _symmetric(lamps(), p)
            for x, v in _symmetric(lamps(), k - p).items():
                fn[x + p] = fn.get(x + p, 0) + v
            yield lamp_element({x: v for x, v in fn.items() if v}, k), radius
    for k in (0, 5, -2):
        yield lamp_element(lamps(), k), None
    yield lamp_element({}, 0), None


def test_width3_certificates_match_golden(tmp_path):
    lines = []
    for i, (target, radius) in enumerate(_golden_width3_targets()):
        src, out = tmp_path / f"in{i}.json", tmp_path / f"out{i}.json"
        src.write_text(json.dumps(element_to_json(target)))
        argv = ["certify-width3", "--in", str(src), "--out", str(out)]
        if radius is not None:
            argv += ["--scan-radius", str(radius)]
        assert cli.main(argv) == 0
        lines.append(canonical_json(json.loads(out.read_text())))
    assert len(lines) == 40
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_WIDTH3_SHA256


# sha256 over (status, minimal, palindromes, states, witness text) of the
# oracle on the targets below, one result per line.
GOLDEN_ORACLE_SHA256 = "ce870a218e5229319efa54973b40005398f61e91255040901cf7717736656d6f"


def _golden_oracle_targets():
    """Seeded ((max_len, max_factors), target) pairs: products of
    max_factors and of max_factors + 1 palindromes within max_len, width-3
    witnesses ({0:a, 1:b}, 3), random small lamps, and the identity."""
    rng = random.Random(20261021)
    for bounds in ((7, 2), (5, 3), (4, 3), (3, 4)):
        max_len, max_factors = bounds
        pals = enumerate_palindromes(max_len)
        yield bounds, lamp_element({}, 0)
        for _ in range(6):
            for count in (max_factors, max_factors + 1):
                word = concat(rng.choice(pals) for _ in range(count))
                yield bounds, evaluate_word(LAMP_CTX, word)
            a, b = rng.sample([v for v in range(-20, 21) if v], 2)
            yield bounds, lamp_element({0: a, 1: b}, 3)
            yield bounds, lamp_element({rng.randint(-3, 3): rng.randint(-3, 3)
                                        for _ in range(rng.randint(1, 3))},
                                       rng.randint(-4, 4))


def test_oracle_results_match_golden():
    lines = []
    for (max_len, max_factors), target in _golden_oracle_targets():
        res = minimal_palindromic_length_bfs(target, max_len, max_factors)
        lines.append(repr((res.status, res.minimal, res.palindromes, res.states,
                           [format_word(LAMP_CTX.alphabet, w) for w in res.witness])))
    assert len(lines) == 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_ORACLE_SHA256
