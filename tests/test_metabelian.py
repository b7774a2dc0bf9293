import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from palwidth import (FlowElement, LatticeFn, SquareCoeffs, VerificationError, Word,
                      circulation_to_squares, concat, evaluate_word_flow,
                      flow_from_json, flow_to_json, free_alphabet, identity_flow,
                      invert_flow, lattice_word, multiply_flow, parse_word,
                      squares_to_element)

from gens import random_flow_element, random_word

X2 = free_alphabet(2)
X3 = free_alphabet(3)


def ev(r, text):
    return evaluate_word_flow(r, parse_word(free_alphabet(r), text))


def test_commutator_flow_trace():
    flow = ev(2, "x1x2X1X2")
    assert flow.shift == (0, 0)
    assert flow.edges == {((0, 0), 0): 1, ((1, 0), 1): 1,
                          ((0, 1), 0): -1, ((0, 0), 1): -1}


def test_word_times_inverse_is_identity():
    rng = random.Random(0)
    for _ in range(100):
        w = random_word(rng, 2, 12)
        assert evaluate_word_flow(2, w * w.invert()) == identity_flow(2)


def ref_flow_walk(r, runs):
    """Letter-by-letter walk with tuple points; edges in first-passage order."""
    edges, pos = {}, [0] * r
    for gen, exp in runs:
        for _ in range(abs(exp)):
            if exp < 0:
                pos[gen] -= 1
            key = (tuple(pos), gen)
            edges[key] = edges.get(key, 0) + (1 if exp > 0 else -1)
            if exp > 0:
                pos[gen] += 1
    return tuple(pos), [(e, v) for e, v in edges.items() if v]


ranked_runs = st.integers(1, 5).flatmap(lambda r: st.tuples(st.just(r), st.lists(
    st.tuples(st.integers(0, r - 1), st.integers(-40, 40).filter(bool)), max_size=16)))


# Example budget; never lowered to hide a failure.
@settings(max_examples=300, deadline=None, database=None)
@given(ranked_runs, st.integers(0, 16), st.integers(0, 3), st.sampled_from((1, -1, 7)))
@example((1, []), 0, 0, 1)  # the empty word
@example((5, []), 0, 3, -1)
def test_flow_evaluation_matches_letter_walk(ranked, at, offset, exp):
    r, runs = ranked
    word = Word(runs)
    flow = evaluate_word_flow(r, word)
    shift, edges = ref_flow_walk(r, word.runs)
    assert flow.shift == shift
    assert list(flow.edges.items()) == edges
    at = min(at, len(runs))
    with pytest.raises(ValueError, match=f"letter index {r + offset} outside rank-{r}"):
        evaluate_word_flow(r, Word(runs[:at] + [(r + offset, exp)] + runs[at:]))


def _factors(r):
    """Literal palindromes H c reverse(H), H of 0-6 runs, c empty or one run,
    mixed with arbitrary words."""
    run = st.tuples(st.integers(0, r - 1), st.integers(-40, 40).filter(bool))
    palindrome = st.builds(lambda half, middle: Word(half + middle + half[::-1]),
                           st.lists(run, max_size=6), st.lists(run, max_size=1))
    return st.one_of(palindrome, st.builds(Word, st.lists(run, max_size=4)))


ranked_factor_lists = st.integers(1, 5).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(_factors(r), max_size=6)))


# Example budget; never lowered to hide a failure.
@settings(max_examples=300, deadline=None, database=None)
@given(ranked_factor_lists)
@example((2, [Word(((0, 1), (1, 1), (0, -2), (1, 1), (0, 1)))] * 2))
@example((3, [Word(((2, -40),)), Word(((1, 1), (2, 3), (1, 1)))]))
def test_product_evaluation_matches_letter_walk(ranked):
    # each palindrome is walked through its half and middle, its mirror reflected
    r, factors = ranked
    flow = evaluate_word_flow(r, factors)
    shift, edges = ref_flow_walk(r, concat(factors).runs)
    assert flow.shift == shift
    assert flow.edges == dict(edges)


def test_free_alphabet_built_once():
    # parse_word caches its letter table per Alphabet, so each rank keeps one.
    assert free_alphabet(3) is free_alphabet(3)
    assert free_alphabet(3).names == ("x1", "x2", "x3")


def test_noncommuting_generators():
    a = ev(2, "x1x2")
    b = ev(2, "x2x1")
    assert a != b
    assert a.shift == b.shift == (1, 1)


def test_flow_group_laws():
    rng = random.Random(1)
    for _ in range(100):
        w1 = random_word(rng, 3, 10)
        w2 = random_word(rng, 3, 10)
        a = evaluate_word_flow(3, w1)
        b = evaluate_word_flow(3, w2)
        assert evaluate_word_flow(3, w1 * w2) == multiply_flow(a, b)
        assert multiply_flow(a, invert_flow(a)) == identity_flow(3)
        assert multiply_flow(identity_flow(3), a) == a


def test_divergence_guard():
    with pytest.raises(VerificationError):
        FlowElement(2, (0, 0), {((0, 0), 0): 1})


def test_extraction_examples():
    c = circulation_to_squares(ev(2, "x1x2X1X2"))
    assert c.coeffs == {(0, 1): LatticeFn(2, {(0, 0): 1})}
    assert circulation_to_squares(identity_flow(2)).is_zero()
    conj = circulation_to_squares(ev(2, "x1^5 x1x2X1X2 x1^-5"))
    assert conj.coeffs == {(0, 1): LatticeFn(2, {(5, 0): 1})}


def test_extraction_rejects_nonzero_shift():
    with pytest.raises(ValueError):
        circulation_to_squares(ev(2, "x1"))


def test_extraction_rank3_low_pair():
    # an element whose spelling needs the pair (1, 2), not only (i, 3)
    c = circulation_to_squares(ev(3, "x1x2X1X2"))
    assert squares_to_element(c) == ev(3, "x1x2X1X2")
    assert (0, 1) in c.coeffs


def test_conjugated_square_is_shifted_square():
    rng = random.Random(2)
    for _ in range(50):
        r = rng.randint(2, 3)
        point = tuple(rng.randint(-3, 3) for _ in range(r))
        i, j = sorted(rng.sample(range(r), 2))
        rho = parse_word(free_alphabet(r), f"x{i + 1}x{j + 1}X{i + 1}X{j + 1}")
        monomial = lattice_word(r, point)
        flow = evaluate_word_flow(r, monomial * rho * monomial.invert())
        single = SquareCoeffs(r, {(i, j): LatticeFn(r, {point: 1})})
        assert flow == squares_to_element(single)


def test_squares_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        r = rng.randint(2, 3)
        coeffs = {}
        for pair in itertools.combinations(range(r), 2):
            points = {tuple(rng.randint(-3, 3) for _ in range(r)): rng.randint(-2, 2)
                      for _ in range(rng.randint(0, 4))}
            fn = LatticeFn(r, points)
            if not fn.is_zero():
                coeffs[pair] = fn
        sc = SquareCoeffs(r, coeffs)
        element = squares_to_element(sc)
        extracted = circulation_to_squares(element)
        assert squares_to_element(extracted) == element


def test_extraction_is_left_inverse_on_top_pairs():
    # data supported on the pairs (i, r) with per-column balance comes back as is
    rng = random.Random(4)
    for _ in range(100):
        r = rng.randint(2, 3)
        coeffs = {}
        for i in range(r - 1):
            points = {tuple(rng.randint(-3, 3) for _ in range(r)): rng.randint(-2, 2)
                      for _ in range(rng.randint(0, 4))}
            fn = LatticeFn(r, points)
            if not fn.is_zero():
                coeffs[(i, r - 1)] = fn
        sc = SquareCoeffs(r, coeffs)
        extracted = circulation_to_squares(squares_to_element(sc))
        assert extracted.coeffs == sc.coeffs


def test_flow_json_round_trip():
    rng = random.Random(6)
    for _ in range(50):
        element = random_flow_element(rng, 2, 3, 2, 3)
        assert flow_from_json(flow_to_json(element)) == element


def test_lattice_word():
    assert lattice_word(3, (2, 0, -1)) == parse_word(X3, "x1^2x3^-1")
