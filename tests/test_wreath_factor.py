import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from palwidth import (Alphabet, CyclicGroup, EPSILON, IntegerGroup, LatticeFn,
                      VerificationError, Word, WordGroup, WreathContext, build_snake,
                      concat, evaluate_word, factorize_wreath, factorize_wreath_z,
                      format_word, identity_element, inject, parse_word, wreath_factor)
from palwidth.certificates import canonical_json, wreath_certificate
from palwidth.symmetric import check_split, symmetric_split, symmetric_split_refined_r1

from gens import asymmetric_even_value, random_wreath_element, wrong_gamma
from test_wreath import F_ROW, G_ROW, H_ROW, W_G, W_H, ZZ, lamp

ZZ2 = WreathContext(IntegerGroup(), 2)


def test_snake_core_rank2_example():
    plan = build_snake(ZZ2, 1, axis=0)
    assert format_word(ZZ2.alphabet, plan.core) == "x1^2x2x1^-2x2x1^2"
    assert plan.core.is_palindrome()


def test_snake_word_rank1():
    plan = build_snake(ZZ, 1, axis=0)
    assert plan.word.letters == parse_word(ZZ.alphabet, "T t t T").letters
    assert plan.word.is_palindrome()
    assert evaluate_word(ZZ, plan.word) == identity_element(ZZ)


def test_snake_odd_variant_structure():
    plan = build_snake(ZZ, 0, axis=1)
    # walk covers {0, 1}; the full word is x1 x1^-1 with the trailing inverse
    assert plan.word.letters == ((1, 1), (1, -1))
    first = concat([plan.head, plan.core, plan.tail])
    assert first.is_palindrome()
    assert plan.trailing.letters == ((1, -1),)
    assert evaluate_word(ZZ, plan.word) == identity_element(ZZ)


def test_snake_is_hamiltonian():
    for r in (1, 2, 3):
        ctx = WreathContext(IntegerGroup(), r)
        for n in range(0, 5):
            for axis in range(0, r + 1):
                plan = build_snake(ctx, n, axis)
                first = concat([plan.head, plan.core, plan.tail])
                assert first.is_palindrome()
                dims = []
                for j in range(r):
                    dims.append(2 * n + 2 if j + 1 == axis else 2 * n + 1)
                size = 1
                for d in dims:
                    size *= d
                assert len(plan.stops) == size
                assert len(set(plan.stops)) == size
                for k in range(size):
                    assert plan.stops.index(plan.stops[k]) == k
                assert evaluate_word(ctx, plan.word) == identity_element(ctx)


def reference_snake(ctx, n, axis):
    """Core letters and stops of the snake walked one letter at a time."""
    r = ctx.r
    slots = ([axis] + [a for a in range(1, r + 1) if a != axis]) if axis \
        else list(range(1, r + 1))
    template = [(1, 1)] * (2 * n + (1 if axis else 0))
    for slot in range(2, r + 1):
        block = (template + [(slot, 1)] + [(g, -s) for g, s in reversed(template)]
                 + [(slot, 1)])
        template = block * n + template
    letters = [(ctx.lattice_gen(slots[slot - 1] - 1), sign) for slot, sign in template]
    cur = [-n] * r
    stops = [tuple(cur)]
    for gen, sign in letters:
        cur[gen - ctx.base_size] += sign
        stops.append(tuple(cur))
    return letters, stops


def reference_inject(plan, f):
    """f(x) inserted before every core letter and after the last, stop by stop."""
    letters, stops = reference_snake(plan.ctx, plan.n, plan.axis)
    runs = list(plan.head.runs)
    for letter, stop in zip(letters, stops):
        runs.extend(f[stop].runs)
        runs.append(letter)
    runs.extend(f[stops[-1]].runs)
    return Word(runs + list(plan.tail.runs) + list(plan.trailing.runs))


@st.composite
def snake_cases(draw):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    axis = draw(st.integers(0, r))
    ctx = WreathContext(IntegerGroup(), r)
    coords = [st.integers(-n, n + 1 if j + 1 == axis else n) for j in range(r)]
    runs = st.lists(st.tuples(st.integers(0, r), st.sampled_from((-2, -1, 1, 3))),
                    min_size=1, max_size=3)
    values = draw(st.dictionaries(st.tuples(*coords), runs.map(Word), max_size=6))
    return ctx, n, axis, LatticeFn(r, values, EPSILON)


# Example budget; never lowered to hide a failure.
@settings(max_examples=200, deadline=None, database=None)
@given(snake_cases())
def test_snake_matches_per_letter_reference(case):
    ctx, n, axis, f = case
    plan = build_snake(ctx, n, axis)
    letters, stops = reference_snake(ctx, n, axis)
    assert plan.core == Word(letters)
    assert list(plan.stops) == stops
    assert inject(plan, f) == reference_inject(plan, f)


def test_inject_reproduces_worked_words():
    base = IntegerGroup()
    g_words = LatticeFn(1, {(x,): base.canonical_word(v) for x, v in G_ROW.items()},
                        EPSILON)
    plan = build_snake(ZZ, 6, axis=0)
    assert format_word(ZZ.alphabet, inject(plan, g_words)) == W_G

    h_words = LatticeFn(1, {(x,): base.canonical_word(v) for x, v in H_ROW.items()},
                        EPSILON)
    vplan = build_snake(ZZ, 6, axis=1)
    full = inject(vplan, h_words)
    assert full == parse_word(ZZ.alphabet, W_H) * parse_word(ZZ.alphabet, "t^-1")
    first_palindrome = Word(full.letters[:-1])
    assert format_word(ZZ.alphabet, first_palindrome) == W_H
    assert evaluate_word(ZZ, full) == lamp(H_ROW, 0)


def test_inject_zero_gives_bare_snake():
    plan = build_snake(ZZ2, 2, axis=0)
    from palwidth import zero_fn

    assert inject(plan, zero_fn(2, EPSILON)) == plan.word


def test_inject_rejects_escaping_support():
    plan = build_snake(ZZ, 1, axis=0)
    f = LatticeFn(1, {(5,): IntegerGroup().canonical_word(1)}, EPSILON)
    with pytest.raises(ValueError):
        inject(plan, f)


def test_stops_reject_points_outside_the_box():
    stops = build_snake(ZZ2, 1, axis=2).stops  # box [-1, 1] x [-1, 2]
    assert len(stops) == 12
    for p in [(2, 0), (0, 3), (0, -2), (0,), (0, 0, 0)]:
        with pytest.raises(ValueError, match="escapes the snake box"):
            stops.index(p)
    with pytest.raises(IndexError):
        stops[12]


def test_worked_example_factorization():
    fact = factorize_wreath_z(lamp(F_ROW, 7))
    texts = [format_word(ZZ.alphabet, w) for w in fact.factors]
    assert texts == [W_G, W_H, "t^6"]
    assert fact.count == 3 <= fact.bound == 3


def test_identity_factorization_is_empty():
    assert factorize_wreath_z(identity_element(ZZ)).count == 0
    assert factorize_wreath(identity_element(ZZ2)).count == 0


def test_single_lamp():
    fact = factorize_wreath_z(lamp({0: 1}, 0))
    assert fact.count <= 3
    texts = [format_word(ZZ.alphabet, w) for w in fact.factors]
    assert texts == ["a"]


def test_general_path_on_worked_example():
    fact = factorize_wreath(lamp(F_ROW, 7))
    assert fact.count <= 4  # 3r + PW at r = 1
    for w in fact.factors:
        assert w.is_palindrome()


def test_random_factorizations_all_contexts():
    rng = random.Random(0)
    contexts = [
        (WreathContext(IntegerGroup(), 1), (-3, -1, 1, 2)),
        (WreathContext(IntegerGroup(), 2), (-3, -1, 1, 2)),
        (WreathContext(IntegerGroup(), 3), (-2, 1)),
        (WreathContext(CyclicGroup(3), 1), (1, 2)),
        (WreathContext(CyclicGroup(3), 2), (1, 2)),
        (WreathContext(CyclicGroup(3), 3), (1, 2)),
    ]
    for ctx, values in contexts:
        radius = 3 if ctx.r < 3 else 2
        for _ in range(200):
            e = random_wreath_element(rng, ctx, radius, values, 3)
            fact = factorize_wreath(e)
            assert fact.bound == 3 * ctx.r + 1
            assert fact.count <= fact.bound
            # palindromicity and the product are verified inside; re-check here
            assert all(w.is_palindrome() for w in fact.factors)
            assert evaluate_word(ctx, concat(fact.factors)) == e
            # the factorizers check only their factors; check the split here
            words = e.fn.map_values(ctx.base.canonical_word, zero=EPSILON)
            check_split(words, ctx.base, symmetric_split(words, ctx.base))
            if ctx.r == 1:
                zfact = factorize_wreath_z(e)
                assert zfact.count <= 3
                assert evaluate_word(ctx, concat(zfact.factors)) == e
                check_split(words, ctx.base, symmetric_split_refined_r1(words, ctx.base))


@pytest.mark.parametrize("factorize, name", [
    (factorize_wreath, "symmetric_split"),
    (factorize_wreath_z, "symmetric_split_refined_r1")])
@pytest.mark.parametrize("tamper, message", [
    (asymmetric_even_value, "not a palindrome"),
    (wrong_gamma, "does not evaluate")])
def test_boundary_check_catches_corrupt_split(monkeypatch, factorize, name, tamper, message):
    # The split is a builder; only the factorizer's final check stands
    # between a corrupt split and the returned factors.
    element = lamp(F_ROW, 7)
    assert factorize(element).count > 0
    monkeypatch.setattr(wreath_factor, name, tamper(getattr(wreath_factor, name)))
    with pytest.raises(VerificationError, match=message):
        factorize(element)


def test_determinism():
    rng = random.Random(1)
    e = random_wreath_element(rng, ZZ2, 3, (-2, 1, 4), 3)
    first = factorize_wreath(e)
    second = factorize_wreath(e)
    assert first.factors == second.factors


# sha256 over the canonical JSON of the certificates below, one per line.
GOLDEN_CERTS_SHA256 = "f19b6545d7e4a6a6d064997afb4d6b5b2d31bbbf27933a1566d917b62d627760"


def _golden_certificates():
    """Seeded Z and Zm:5 elements at ranks 1-3, through both factorizers at rank 1."""
    rng = random.Random(20261019)
    for base, values in ((IntegerGroup(), (-7, -2, 1, 3, 12)), (CyclicGroup(5), (1, 2, 3, 4))):
        for r, radius in ((1, 6), (2, 3), (3, 2)):
            ctx = WreathContext(base, r)
            factorizers = (factorize_wreath_z, factorize_wreath) if r == 1 \
                else (factorize_wreath,)
            for _ in range(5):
                e = random_wreath_element(rng, ctx, radius, values, 3, max_points=6)
                for factorize in factorizers:
                    yield wreath_certificate(e, factorize(e), {})


def test_certificates_match_golden():
    lines = [canonical_json(cert) for cert in _golden_certificates()]
    assert len(lines) == 40
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_CERTS_SHA256


# The same over the free base group on a, b; lamp values are free words,
# some given unreduced.
GOLDEN_FREE_CERTS_SHA256 = "f3fe1db2ef37e82f74341ff127916466f2cd35e7957f65ed65ddf7fb3964570d"


def _golden_free_certificates():
    """Seeded free:a,b elements at ranks 1-3, through both factorizers at rank 1."""
    base = WordGroup(Alphabet(("a", "b")))
    values = tuple(parse_word(base.alphabet, text)
                   for text in ("a", "B", "a b^2 A", "B^3 a^5", "b a B A", "a B b a"))
    rng = random.Random(20261020)
    for r, radius in ((1, 5), (2, 3), (3, 2)):
        ctx = WreathContext(base, r)
        factorizers = (factorize_wreath_z, factorize_wreath) if r == 1 \
            else (factorize_wreath,)
        for _ in range(8):
            e = random_wreath_element(rng, ctx, radius, values, 3, max_points=6)
            for factorize in factorizers:
                yield wreath_certificate(e, factorize(e), {})


def test_free_certificates_match_golden():
    lines = [canonical_json(cert) for cert in _golden_free_certificates()]
    assert len(lines) == 32
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_FREE_CERTS_SHA256
