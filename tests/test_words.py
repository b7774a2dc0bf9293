import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from palwidth import (Alphabet, CyclicGroup, EPSILON, IntegerGroup, Word,
                      WreathContext, concat, evaluate_word, factorize_wreath_z,
                      format_word, lamp_element, parse_word, power, reduced_concat)
from palwidth.certificates import verify_certificate, wreath_certificate

from gens import random_word

AT = Alphabet(("a", "t"))
X3 = Alphabet(("x1", "x2", "x3"))

W_H_TEXT = "t^-6a^2ta^2ta^2ta^-1t^2ata^2ta^2tat^2a^-1ta^2ta^2ta^2t^-6"


def test_reverse_examples():
    w = parse_word(AT, "a t A")
    assert format_word(AT, w.reverse()) == "a^-1ta"
    assert EPSILON.reverse() == EPSILON
    rho = parse_word(X3, "x1x2X1X2")
    assert format_word(X3, rho.reverse()) == "x2^-1x1^-1x2x1"


def test_invert_examples():
    assert format_word(AT, parse_word(AT, "a t").invert()) == "t^-1a^-1"
    assert EPSILON.invert() == EPSILON
    comm = parse_word(X3, "x1x2X1X2")
    assert format_word(X3, comm.invert()) == "x2x1x2^-1x1^-1"


def test_palindrome_examples():
    assert parse_word(X3, "x1^2x2x1^-2x2x1^2").is_palindrome()
    assert not parse_word(AT, "a t").is_palindrome()
    assert parse_word(AT, W_H_TEXT).is_palindrome()


def test_free_reduce_examples():
    assert format_word(AT, parse_word(AT, "a A t").free_reduce()) == "t"
    assert parse_word(X3, "x1x2X2X1").free_reduce() == EPSILON
    product = parse_word(X3, "x1x2 x3 x2x1 X1X2 X2X1 X3")
    assert format_word(X3, product.free_reduce()) == "x1x2x3x2^-1x1^-1x3^-1"


def test_involutions_and_commuting():
    rng = random.Random(0)
    for _ in range(300):
        w = random_word(rng, 3, 12)
        assert w.reverse().reverse() == w
        assert w.invert().invert() == w
        assert w.reverse().invert() == w.invert().reverse()
        assert w.is_palindrome() == w.reverse().is_palindrome()
        assert (w * w.reverse()).is_palindrome()
        reduced = w.free_reduce()
        assert reduced.free_reduce() == reduced
        assert len(reduced) <= len(w)
        assert (w * w.invert()).free_reduce() == EPSILON


def test_parse_run_length_and_case():
    assert parse_word(AT, "a^-3") == power(0, -3)
    assert parse_word(AT, "A^2") == power(0, -2)
    assert parse_word(AT, "A^-2") == power(0, 2)
    assert parse_word(AT, "a^0") == EPSILON
    assert parse_word(X3, "x1X2") == Word(((0, 1), (1, -1)))
    with pytest.raises(ValueError):
        parse_word(AT, "b")


def test_parse_error_messages():
    unknown = "unknown generator 'x4' (alphabet ('x1', 'x2', 'x3'))"
    with pytest.raises(ValueError, match=f"^{re.escape(unknown)}$"):
        parse_word(X3, "x1 X4^2")
    stray = "cannot parse word at ...'^2 x1'"
    with pytest.raises(ValueError, match=f"^{re.escape(stray)}$"):
        parse_word(X3, "x2 ^2 x1")


def test_format_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        w = random_word(rng, 2, 15)
        assert parse_word(AT, format_word(AT, w)) == w


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("A",))


def test_concat():
    assert concat([power(0, 2), power(1, -1)]) == parse_word(AT, "a a T")


# ---------------------------------------------------------------------------
# Run-length words against a unit-letter reference
# ---------------------------------------------------------------------------

# Example budget for every property below; never lowered to hide a failure.
BUDGET = settings(max_examples=300, deadline=None, database=None)

XYZ = Alphabet(("x", "y", "z"))

unit_letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))),
                        max_size=24).map(tuple)
# Random letter lists are almost never palindromes, so mirror some of them.
letter_words = st.one_of(unit_letters,
                         unit_letters.map(lambda h: h + h[::-1]),
                         unit_letters.map(lambda h: h + h[-2::-1]))
run_lists = st.lists(st.tuples(st.integers(0, 2),
                               st.integers(-6, 6).filter(bool)), max_size=12)


def expand(runs):
    return tuple((g, 1 if e > 0 else -1) for g, e in runs for _ in range(abs(e)))


def ref_reduce(letters):
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def ref_format(names, letters):
    """Letter-by-letter grouping into name^count text."""
    parts, k = [], 0
    while k < len(letters):
        j = k
        while j < len(letters) and letters[j] == letters[k]:
            j += 1
        gen, sign = letters[k]
        count = sign * (j - k)
        parts.append(names[gen] if count == 1 else f"{names[gen]}^{count}")
        k = j
    return "".join(parts)


@BUDGET
@given(run_lists)
def test_runs_are_maximal_and_expand_to_letters(runs):
    w = Word(runs)
    letters = expand(runs)
    assert w.letters == letters
    assert len(w) == len(letters)
    assert w == Word(letters)
    assert all(e != 0 for _, e in w.runs)
    assert all(a[0] != b[0] or (a[1] > 0) != (b[1] > 0)
               for a, b in zip(w.runs, w.runs[1:]))


@BUDGET
@given(letter_words)
def test_format_parse_round_trip_matches_reference(letters):
    w = Word(letters)
    text = format_word(XYZ, w)
    assert text == ref_format(XYZ.names, letters)
    assert parse_word(XYZ, text).letters == letters


def ref_first_error(text):
    """The error for the first bad token, scanning by hand; None if all parse."""
    digits = "0123456789"
    k = 0
    while k < len(text):
        if text[k] == " ":
            k += 1
        elif text[k] in "xyzXYZ":
            j = k + 1
            while j < len(text) and text[j] in digits:
                j += 1
            name = text[k:j].lower()
            if name not in XYZ.names:
                return f"unknown generator {name!r} (alphabet {XYZ.names})"
            if text[j:j + 1] == "^":
                m = j + 2 if text[j + 1:j + 2] == "-" else j + 1
                end = m
                while end < len(text) and text[end] in digits:
                    end += 1
                if end > m:
                    j = end
            k = j
        else:
            return f"cannot parse word at ...{text[k:k + 12]!r}"
    return None


@BUDGET
@given(st.lists(st.tuples(st.sampled_from("xyzXYZ"), st.none() | st.integers(-7, 7),
                          st.sampled_from(("", " "))), max_size=10),
       st.sampled_from("^!0123456789"), st.integers(0, 60))
def test_parse_tokens_matches_reference(tokens, stray, at):
    text = "".join(name + ("" if exp is None else f"^{exp}") + gap
                   for name, exp, gap in tokens)
    letters = []
    for name, exp, _ in tokens:
        count = (1 if exp is None else exp) * (-1 if name.isupper() else 1)
        letters += expand([(XYZ.index(name.lower()), count)] if count else [])
    assert parse_word(XYZ, text).letters == tuple(letters)
    at = min(at, len(text))
    bad = text[:at] + stray + text[at:]
    expected = ref_first_error(bad)
    if expected is None:  # the character joined a token, e.g. a digit in an exponent
        parse_word(XYZ, bad)
    else:
        with pytest.raises(ValueError) as info:
            parse_word(XYZ, bad)
        assert str(info.value) == expected


def same(word, letters):
    """The run word spells exactly these letters, in canonical runs."""
    return word.letters == letters and word == Word(letters) and len(word) == len(letters)


@BUDGET
@given(letter_words, letter_words)
def test_operations_match_reference(a, b):
    wa, wb = Word(a), Word(b)
    assert wa.is_palindrome() == (a == a[::-1])
    assert same(wa.reverse(), a[::-1])
    assert same(wa.invert(), tuple((g, -s) for g, s in reversed(a)))
    assert same(wa * wb, a + b)
    assert same(concat([wa, wb, wa]), a + b + a)
    assert same(wa.free_reduce(), ref_reduce(a))
    assert same((wa * wb).free_reduce(), ref_reduce(a + b))
    for k in range(-len(a), len(a) + 1):
        head, tail = wa.split(k)
        assert same(head, a[:k]) and same(tail, a[k:])


@st.composite
def reduced_parts(draw):
    """Freely reduced words over 3 generators, some followed by inverses of
    earlier parts or of a part's tail, so that whole parts cancel at a seam
    and a seam's cancellation can reach back across several parts."""
    parts = [Word(letters).free_reduce() for letters in draw(st.lists(unit_letters,
                                                                      max_size=6))]
    for k in draw(st.lists(st.integers(0, 30), max_size=3)):
        if not parts:
            break
        if k % 2:
            parts += [w.invert() for w in reversed(parts[-(k % len(parts)) - 1:])]
        else:
            _, tail = parts[-1].split(k % (len(parts[-1]) + 1))
            parts.append(tail.invert())
    return parts


@BUDGET
@given(reduced_parts())
def test_reduced_concat_is_free_reduction_of_concat(parts):
    assert all(w.free_reduce() == w for w in parts)
    expected = concat(parts).free_reduce()
    got = reduced_concat(parts)
    assert got == expected and len(got) == len(expected)


@BUDGET
@given(run_lists, st.integers(0, 72))
def test_split_from_either_end_agrees(runs, k):
    # A negative index walks the runs from the end; both walks cut alike.
    w = Word(runs)
    k = k % len(w) if w else 0
    assert w.split(k) == w.split(k - len(w))


def ref_walk(r, modulus, letters):
    """Per-letter walk: generator 0 is the base letter, 1..r move the cursor."""
    lamps, pos = {}, [0] * r
    for g, s in letters:
        if g == 0:
            key = tuple(pos)
            value = lamps.get(key, 0) + s
            value = value % modulus if modulus else value
            if value:
                lamps[key] = value
            else:
                lamps.pop(key, None)
        else:
            pos[g - 1] += s
    return lamps, tuple(pos)


@BUDGET
@given(st.integers(1, 3), st.sampled_from((None, 5)), st.data())
def test_wreath_evaluation_matches_letter_walk(r, modulus, data):
    runs = data.draw(st.lists(st.tuples(st.integers(0, r),
                                        st.integers(-40, 40).filter(bool)), max_size=16))
    base = IntegerGroup() if modulus is None else CyclicGroup(modulus)
    e = evaluate_word(WreathContext(base, r), Word(runs))
    assert (dict(e.fn.items()), e.shift) == ref_walk(r, modulus, expand(runs))


def test_unary_blowup_stays_compressed():
    w = parse_word(AT, "a^1000000000t")
    assert len(w) == 1_000_000_001
    assert w.runs == ((0, 10 ** 9), (1, 1))
    start = time.perf_counter()
    e = lamp_element({-3: 10 ** 9, 2: -7, 5: 10 ** 9 + 1}, 4)
    fact = factorize_wreath_z(e)
    cert = json.loads(json.dumps(wreath_certificate(e, fact, {})))
    verify_certificate(cert)
    assert time.perf_counter() - start < 5.0
    assert sum(len(f) for f in fact.factors) > 2 * 10 ** 9
    assert fact.count <= fact.bound


def test_only_words_module_expands_letters():
    src = Path(__file__).resolve().parent.parent / "src" / "palwidth"
    offenders = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
                 if path.name != "words.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"\.letters\b", line)]
    assert offenders == []
