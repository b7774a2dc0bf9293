import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from palwidth import (CyclicGroup, IntegerGroup, Word, WordGroup, WreathContext,
                      Alphabet, base_from_name, element_from_json, element_to_json,
                      concat, evaluate_word, factorize_wreath, factorize_wreath_z,
                      identity_element, invert, make_element, multiply, parse_word)
from palwidth.certificates import verify_certificate, wreath_certificate

from gens import random_wreath_element

ZZ = WreathContext(IntegerGroup(), 1)

# Table rows of the worked rank-1 example.
F_ROW = {-4: 3, -3: -1, -2: 4, 1: 1, 2: 5, 7: 2}
G_ROW = {-6: -2, -5: -2, -4: 1, -2: 4, -1: -1, 0: -2, 1: -1, 2: 4, 4: 1, 5: -2, 6: -2}
H_ROW = {-6: 2, -5: 2, -4: 2, -3: -1, -1: 1, 0: 2, 1: 2, 2: 1, 4: -1, 5: 2, 6: 2, 7: 2}

W_G = "t^-6a^-2ta^-2tat^2a^4ta^-1ta^-2ta^-1ta^4t^2ata^-2ta^-2t^-6"
W_H = "t^-6a^2ta^2ta^2ta^-1t^2ata^2ta^2tat^2a^-1ta^2ta^2ta^2t^-6"


def lamp(fn, shift):
    return make_element(ZZ, {(x,): v for x, v in fn.items()}, (shift,))


def test_worked_example_words_evaluate():
    w_g = parse_word(ZZ.alphabet, W_G)
    w_h = parse_word(ZZ.alphabet, W_H)
    assert evaluate_word(ZZ, w_g) == lamp(G_ROW, 0)
    assert evaluate_word(ZZ, w_h) == lamp(H_ROW, 1)
    t6 = parse_word(ZZ.alphabet, "t^6")
    assert evaluate_word(ZZ, w_g * w_h * t6) == lamp(F_ROW, 7)


def test_evaluate_epsilon_is_identity():
    assert evaluate_word(ZZ, parse_word(ZZ.alphabet, "")) == identity_element(ZZ)


def test_lamplighter_traces():
    # Hand trace: t moves right, a increments the lamp under the cursor.
    assert evaluate_word(ZZ, parse_word(ZZ.alphabet, "t a t a a t t")) == \
        lamp({1: 1, 2: 2}, 4)
    assert evaluate_word(ZZ, parse_word(ZZ.alphabet, "a t a a t t")) == \
        lamp({0: 1, 1: 2}, 3)


def test_multiply_matches_concatenation():
    rng = random.Random(0)
    ctx3 = WreathContext(CyclicGroup(3), 2)
    free = WreathContext(WordGroup(Alphabet(("b", "c"))), 2)  # order of lamp values matters
    for ctx in (ZZ, ctx3, free):
        for _ in range(100):
            from gens import random_word
            w1 = random_word(rng, len(ctx.alphabet.names), 10)
            w2 = random_word(rng, len(ctx.alphabet.names), 10)
            assert evaluate_word(ctx, w1 * w2) == \
                multiply(evaluate_word(ctx, w1), evaluate_word(ctx, w2))


def test_group_laws():
    rng = random.Random(1)
    for ctx in (ZZ, WreathContext(IntegerGroup(), 2), WreathContext(CyclicGroup(3), 2)):
        values = (1, 2) if isinstance(ctx.base, CyclicGroup) else (-2, -1, 1, 3)
        ident = identity_element(ctx)
        for _ in range(60):
            a = random_wreath_element(rng, ctx, 3, values, 3)
            b = random_wreath_element(rng, ctx, 3, values, 3)
            c = random_wreath_element(rng, ctx, 3, values, 3)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, invert(a)) == ident
            assert multiply(invert(a), a) == ident
            assert multiply(ident, a) == a
            assert multiply(a, ident) == a


def test_invert_solves_for_the_inverse():
    a = lamp({0: 1}, 1)
    assert invert(a) == lamp({-1: -1}, -1)
    assert multiply(a, invert(a)) == identity_element(ZZ)
    assert invert(lamp({0: 1}, 0)) == lamp({0: -1}, 0)
    assert invert(identity_element(ZZ)) == identity_element(ZZ)


def test_disjoint_supports_add():
    # The table rows satisfy f = g + h pointwise, so (g,0)(h,1) = (f,1).
    g, h = lamp(G_ROW, 0), lamp(H_ROW, 1)
    assert multiply(g, h) == lamp(F_ROW, 1)


def test_cyclic_base_reduces_values():
    ctx = WreathContext(CyclicGroup(3), 1)
    e = evaluate_word(ctx, parse_word(ctx.alphabet, "a a a"))
    assert e == identity_element(ctx)
    e2 = evaluate_word(ctx, parse_word(ctx.alphabet, "a^5"))
    assert e2 == make_element(ctx, {(0,): 2}, (0,))


def test_context_alphabet_built_once():
    # parse_word caches its letter table per Alphabet, so the context keeps one.
    ctx = WreathContext(CyclicGroup(5), 3)
    assert ctx.alphabet is ctx.alphabet
    assert ctx.alphabet.names == ("a", "x1", "x2", "x3")
    assert ctx == WreathContext(CyclicGroup(5), 3)


def test_word_group_base():
    base = WordGroup(Alphabet(("b", "c")))
    ctx = WreathContext(base, 1)
    w = parse_word(ctx.alphabet, "b t c t B")
    e = evaluate_word(ctx, w)
    assert e.shift == (2,)
    assert e.fn[(0,)] == parse_word(base.alphabet, "b")
    assert e.fn[(1,)] == parse_word(base.alphabet, "c")
    assert multiply(e, invert(e)) == identity_element(ctx)


def test_alphabet_collision_rejected():
    with pytest.raises(ValueError):
        WreathContext(WordGroup(Alphabet(("t",))), 1)


def test_json_round_trip():
    for ctx, values in ((ZZ, (-2, 5)), (WreathContext(CyclicGroup(4), 2), (1, 3))):
        rng = random.Random(2)
        for _ in range(20):
            e = random_wreath_element(rng, ctx, 3, values, 3)
            assert element_from_json(element_to_json(e)) == e


def test_cyclic_values_canonicalized_at_the_boundary():
    ctx = WreathContext(CyclicGroup(3), 1)
    e = make_element(ctx, {(0,): 4, (2,): 3, (5,): -1}, (1,))
    assert dict(e.fn.items()) == {(0,): 1, (5,): 2}
    raw = {"base": "Zm:3", "r": 1, "shift": [1],
           "fn": {"r": 1, "entries": [{"pos": [0], "val": 4}, {"pos": [2], "val": 3},
                                      {"pos": [5], "val": -1}]}}
    assert element_from_json(raw) == e


def test_free_base_round_trip_and_certificate():
    base = base_from_name("free:a,b")
    assert isinstance(base, WordGroup)
    assert base.alphabet == Alphabet(("a", "b"))
    for r in (1, 2):
        ctx = WreathContext(base, r)
        word = lambda text: parse_word(base.alphabet, text)
        origin, e1 = (0,) * r, (1,) + (0,) * (r - 1)
        e = make_element(ctx, {origin: word("a b^2 A"), e1: word("B^3 a^5"),
                               tuple(-c for c in e1): word("a")}, e1)
        data = json.loads(json.dumps(element_to_json(e)))
        assert data["base"] == "free:a,b"
        assert element_from_json(data) == e
        fact = factorize_wreath(e)
        verify_certificate(json.loads(json.dumps(wreath_certificate(e, fact, {}))))


def test_free_base_lamp_values_are_reduced():
    # The lamp B b is the identity, so the element is t itself.
    ctx = WreathContext(base_from_name("free:a,b"), 1)
    e = make_element(ctx, {(0,): parse_word(ctx.base.alphabet, "B b")}, (1,))
    assert e == evaluate_word(ctx, parse_word(ctx.alphabet, "t"))
    for factorize in (factorize_wreath_z, factorize_wreath):
        fact = factorize(e)
        assert evaluate_word(ctx, concat(fact.factors)) == e
        verify_certificate(json.loads(json.dumps(wreath_certificate(e, fact, {}))))


@st.composite
def canonical_values(draw):
    """A base group (Z, Zm:2..9 or free:a,b) and one canonical value of it."""
    kind = draw(st.sampled_from(("Z", "Zm", "free")))
    if kind == "Z":
        return IntegerGroup(), draw(st.integers(-10 ** 6, 10 ** 6))
    if kind == "Zm":
        base = CyclicGroup(draw(st.integers(2, 9)))
        return base, base.canonical(draw(st.integers(-50, 50)))
    base = WordGroup(Alphabet(("a", "b")))
    letters = st.tuples(st.integers(0, 1), st.sampled_from((-1, 1)))
    return base, base.canonical(Word(tuple(draw(st.lists(letters, max_size=12)))))


# Example budget; never lowered to hide a failure.
@settings(max_examples=300, deadline=None, database=None)
@given(canonical_values())
def test_decode_returns_canonical_values(case):
    # Values compare with ==, so a decoded JSON value must be canonical.
    base, v = case
    assert base.decode_value(json.loads(json.dumps(base.encode_value(v)))) == v


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(2, 9), st.integers(-10 ** 6, 10 ** 6))
def test_cyclic_decode_reduces_mod_m(m, raw):
    assert CyclicGroup(m).decode_value(raw) == raw % m


# Example budget; never lowered to hide a failure.
@settings(max_examples=300, deadline=None, database=None)
@given(canonical_values())
def test_reverse_law(case):
    # The symmetric split computes on values and spells them at the end; this
    # law is what makes its spelled pieces mirror images letter for letter.
    base, v = case
    spelled = base.canonical_word(v).reverse()
    assert base.canonical_word(base.reverse(v)) == spelled
    assert base.reverse(v) == base.evaluate(spelled)
