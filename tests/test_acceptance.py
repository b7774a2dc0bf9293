"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its runtime; run with `pytest -s` to see
them.  All checks are exact: no tolerances anywhere.
"""

import json
import random
import subprocess
import sys
import time

from palwidth import (CyclicGroup, IntegerGroup, LatticeFn, SquareCoeffs, Word,
                      WreathContext, certify_width_three, concat,
                      enumerate_palindromes, evaluate_word, evaluate_word_flow,
                      factorize_metabelian, factorize_wreath, factorize_wreath_z,
                      lamp_element, lattice_word, make_element,
                      minimal_palindromic_length_bfs, multiply, power,
                      skew_split_fixed_centers, skew_split_grid, skew_split_half,
                      squares_to_element, two_palindrome_decision, TwoPalDecomposition)
from palwidth.certificates import (metabelian_certificate, verify_certificate,
                                   wreath_certificate)
from palwidth.lamplighter import LAMP_CTX, default_scan_radius
from palwidth.skew import check_pieces

from gens import (dense_grid_zero, grid_zero, random_flow_element,
                  random_wreath_element, random_word, zero_sum)

WITNESS = lamp_element({0: 1, 1: 2}, 3)


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_worked_example_bit_exact():
    started = time.time()
    proc = subprocess.run([sys.executable, "-m", "palwidth.cli", "demo-paper"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert ("g(x)  |   0  -2  -2   1   0   4  -1  -2  -1   4   0   1  -2  -2   0"
            in lines)
    assert ("h(x)  |   0   2   2   2  -1   0   1   2   2   1   0  -1   2   2   2"
            in lines)
    assert ("w_g = t^-6a^-2ta^-2tat^2a^4ta^-1ta^-2ta^-1ta^4t^2ata^-2ta^-2t^-6"
            in lines)
    assert ("w_h = t^-6a^2ta^2ta^2ta^-1t^2ata^2ta^2tat^2a^-1ta^2ta^2ta^2t^-6"
            in lines)
    assert "w_g evaluates to (g, 0): ok" in lines
    assert "w_h evaluates to (h, 1): ok" in lines
    assert "w_g w_h tail evaluates to (f, 7): ok" in lines
    _report("1 (worked example)", started, 1.0)


def test_criterion_2_rank1_refinement():
    started = time.time()
    rng = random.Random(0)
    values = [v for v in range(-9, 10) if v]
    for _ in range(1000):
        e = random_wreath_element(rng, LAMP_CTX, 8, values, 8, max_points=10)
        fact = factorize_wreath_z(e)
        assert fact.count <= 3
        for w in fact.factors:
            assert w.is_palindrome()
        assert evaluate_word(LAMP_CTX, concat(fact.factors)) == e
    _report("2 (rank-1, 1000 elements, <= 3 factors)", started, 5.0)


def test_criterion_3_general_wreath():
    started = time.time()
    rng = random.Random(1)
    cases = [
        (WreathContext(IntegerGroup(), 2), [v for v in range(-9, 10) if v]),
        (WreathContext(IntegerGroup(), 3), [v for v in range(-9, 10) if v]),
        (WreathContext(CyclicGroup(3), 2), [1, 2]),
    ]
    for ctx, values in cases:
        bound = 3 * ctx.r + 1
        for _ in range(200):
            e = random_wreath_element(rng, ctx, 3, values, 3, max_points=8)
            fact = factorize_wreath(e)
            assert fact.count <= bound
            for w in fact.factors:
                assert w.is_palindrome()
            assert evaluate_word(ctx, concat(fact.factors)) == e
    _report("3 (general wreath, 600 elements)", started, 30.0)


def test_criterion_4_width_three_lower_bound():
    started = time.time()
    for p in range(-25, 29):
        verdict = two_palindrome_decision(WITNESS, p)
        assert isinstance(verdict, str), f"decomposition found at p={p}"
    result = minimal_palindromic_length_bfs(WITNESS, 9, 2)
    assert result.status == "exceeds-max-factors"
    assert result.minimal is None
    _report("4 (width-3 witness: p scan + oracle)", started, 120.0)


def test_criterion_5_skew_suite():
    started = time.time()
    rng = random.Random(2)
    for _ in range(500):
        r = rng.randint(1, 3)
        f = zero_sum(rng, r, 4, 6)
        two_p = tuple(rng.randint(-3, 3) for _ in range(r))
        pieces = skew_split_half(f, two_p)
        check_pieces(f, pieces, "half-step split")  # sums + predicates
        assert len(pieces) == r + 1
    for _ in range(500):
        r = rng.randint(1, 3)
        f = grid_zero(rng, r, 4, 6)
        p = tuple(rng.randint(-3, 3) for _ in range(r))
        pieces = skew_split_grid(f, p)
        check_pieces(f, pieces, "grid split")
        assert len(pieces) == r + 1
        two_c = tuple(rng.randint(-3, 3) for _ in range(r))
        pieces = skew_split_fixed_centers(f, two_c)
        check_pieces(f, pieces, "fixed-center split")
        assert len(pieces) == r + 1
    _report("5 (skew suite, 500 + 500)", started, 30.0)


def test_criterion_6_metabelian():
    started = time.time()
    rng = random.Random(3)
    counts = {2: [], 3: []}
    for r, trials, bound in ((2, 200, 93), (3, 50, 445)):
        for _ in range(trials):
            e = random_flow_element(rng, r, 4, 3, 4, points_per_pair=5)
            fact = factorize_metabelian(e)
            assert fact.count <= bound
            for w in fact.factors:
                assert w.is_palindrome()
            assert evaluate_word_flow(r, concat(fact.factors)) == e
            counts[r].append(fact.count)
    print(f"  realized counts: r=2 max {max(counts[2])}, r=3 max {max(counts[3])}")
    _report("6 (metabelian, 200 + 50 elements)", started, 120.0)


def test_criterion_7_flow_soundness():
    started = time.time()
    rng = random.Random(4)
    for _ in range(1000):
        r = rng.randint(2, 3)
        prefix = random_word(rng, r, 6)
        suffix = random_word(rng, r, 6)
        u = lattice_word(r, tuple(rng.randint(-2, 2) for _ in range(r)))
        v = lattice_word(r, tuple(rng.randint(-2, 2) for _ in range(r)))
        i1, j1 = sorted(rng.sample(range(r), 2))
        i2, j2 = sorted(rng.sample(range(r), 2))
        rho1 = Word(((i1, 1), (j1, 1), (i1, -1), (j1, -1)))
        rho2 = Word(((i2, 1), (j2, 1), (i2, -1), (j2, -1)))
        left = u * rho1 * u.invert() * v * rho2 * v.invert()
        right = v * rho2 * v.invert() * u * rho1 * u.invert()
        w = prefix * left * suffix
        # free insertion plus the commuted rearrangement
        cut = rng.randint(0, len(prefix))
        g = rng.randrange(r)
        insertion = Word(((g, 1), (g, -1)))
        w_prime = (Word(prefix.letters[:cut]) * insertion *
                   Word(prefix.letters[cut:]) * right * suffix)
        assert evaluate_word_flow(r, w) == evaluate_word_flow(r, w_prime)
    checked = 0
    while checked < 1000:
        r = 3
        a = tuple(rng.randint(-5, 5) for _ in range(r))
        b = tuple(rng.randint(-5, 5) for _ in range(r))
        if a == b:
            continue
        ea = evaluate_word_flow(r, lattice_word(r, a))
        eb = evaluate_word_flow(r, lattice_word(r, b))
        assert ea != eb
        checked += 1
    _report("7 (flow soundness, 1000 + 1000)", started, 30.0)


def test_criterion_8_rewrites():
    started = time.time()
    from palwidth import commutator_three_palindromes, conjugate_factorization, free_equal

    rng = random.Random(5)
    for _ in range(500):
        g = random_word(rng, 3, 8)
        b = Word(((rng.randrange(3), rng.choice((1, -1))),))
        out = commutator_three_palindromes(g, b)
        assert len(out.factors) == 3
        assert all(w.is_palindrome() for w in out.factors)
        assert free_equal(concat(out.factors), g * b * g.invert() * b.invert())
    for _ in range(500):
        h = random_word(rng, 3, 6)
        factors = []
        for _ in range(rng.randint(0, 6)):
            half = random_word(rng, 3, 3)
            middle = random_word(rng, 3, 1)
            factors.append(half * middle * half.reverse())
        out = conjugate_factorization(h, factors)
        assert all(w.is_palindrome() for w in out.factors)
        assert out.count <= len(factors) + 1
        assert free_equal(concat(out.factors), h * concat(factors) * h.invert())
    _report("8 (rewrites, 500 + 500)", started, 10.0)


def test_criterion_9_oracle_consistency():
    started = time.time()
    rng = random.Random(6)
    palindromes = enumerate_palindromes(7)
    for _ in range(50):
        w1, w2 = rng.choice(palindromes), rng.choice(palindromes)
        target = evaluate_word(LAMP_CTX, w1 * w2)
        p = evaluate_word(LAMP_CTX, w1).shift[0]
        radius = default_scan_radius(target)
        k = target.shift[0]
        assert -radius <= p <= radius + abs(k), "construction fell outside the scan"
        verdict = two_palindrome_decision(target, p)
        assert isinstance(verdict, TwoPalDecomposition)
        left, right = verdict.as_elements()
        assert multiply(left, right) == target
        result = minimal_palindromic_length_bfs(target, 7, 2)
        assert result.status == "exact" and result.minimal <= 2
    _report("9 (oracle consistency, 50 products)", started, 300.0)


def _factorize_far_lamps(ctx, lamps, n, budget, name):
    """factorize_wreath on lamps n away from the origin: its certificate
    verifies, within the wall-clock budget, in at most 8 runs per box row.

    The snake box has radius about n, so (2n+1)^(r-1) rows; the output has
    Theta(rows) runs whatever the letter count."""
    started = time.time()
    e = make_element(ctx, lamps, (0,) * ctx.r)
    fact = factorize_wreath(e)
    cert = wreath_certificate(e, fact, {})
    verify_certificate(json.loads(json.dumps(cert)))
    runs = sum(len(w.runs) for w in fact.factors)
    assert runs <= 8 * (2 * n + 1) ** (ctx.r - 1), runs
    _report(name, started, budget)


def test_size_lone_lamp_far_from_origin_rank1():
    """factorize_wreath_z on one lamp a^5 at t^N, N = 10^4: the split is
    centred at the origin, so its chain runs from the lamp to the origin and
    the output has Theta(N) runs; its certificate verifies."""
    n = 10 ** 4
    started = time.time()
    e = make_element(WreathContext(IntegerGroup(), 1), {(n,): 5}, (0,))
    fact = factorize_wreath_z(e)
    assert fact.count == 3
    runs = sum(len(w.runs) for w in fact.factors)
    letters = sum(len(w) for w in fact.factors)
    assert runs <= 8 * n + 8 and letters <= 28 * n, (runs, letters)
    cert = wreath_certificate(e, fact, {})
    verify_certificate(json.loads(json.dumps(cert)))
    _report("size (lamp a^5 at t^N, N = 10^4, r = 1)", started, 1.0)


def test_size_lone_lamp_far_from_origin_rank2():
    _factorize_far_lamps(WreathContext(IntegerGroup(), 2), {(1000, 0): 5}, 1000, 1.0,
                         "size (lamp a^5 at (1000, 0), r = 2)")


def test_size_two_far_lamps_rank3_cyclic():
    _factorize_far_lamps(WreathContext(CyclicGroup(5), 3), {(100, 0, 0): 1, (0, -100, 1): 2},
                         100, 5.0, "size (Zm:5 lamps at (100,0,0), (0,-100,1), r = 3)")


def test_size_commutator_conjugated_far_rank2():
    """x1^N [x1,x2] x1^-N at N = 10^4: the skew pieces form a chain of N
    points whose conjugating monomials cancel pairwise once the skew halves
    are freely reduced, so the output stays within 16N letters."""
    n = 10 ** 4
    started = time.time()
    word = concat([power(0, n), Word(((0, 1), (1, 1), (0, -1), (1, -1))), power(0, -n)])
    e = evaluate_word_flow(2, word)
    fact = factorize_metabelian(e)
    letters = sum(len(w) for w in fact.factors)
    assert letters <= 16 * n, letters
    cert = metabelian_certificate(e, fact, {})
    verify_certificate(json.loads(json.dumps(cert)))
    _report("size (x1^N [x1,x2] x1^-N, N = 10^4, r = 2)", started, 2.0)


def test_size_two_lamps_far_apart_rank1():
    """factorize_wreath_z on lamps a^5 at 0 and a^3 at t^N, N = 3000: the
    support's own diameter is N, so the split's chain runs between the lamps
    with one run pair per step; about 8N runs and 20N letters in 3 factors."""
    n = 3000
    started = time.time()
    e = make_element(LAMP_CTX, {(0,): 5, (n,): 3}, (0,))
    fact = factorize_wreath_z(e)
    assert fact.count == 3
    runs = sum(len(w.runs) for w in fact.factors)
    letters = sum(len(w) for w in fact.factors)
    assert runs <= 8 * n + 8 and letters <= 20 * n, (runs, letters)
    cert = wreath_certificate(e, fact, {})
    verify_certificate(json.loads(json.dumps(cert)))
    _report("size (lamps at 0 and t^N, N = 3000, r = 1)", started, 0.4)


def test_size_commutators_along_two_axes_rank2():
    """x1^N x2^N [x1,x2] x2^-N x1^-N [x1,x2] at N = 200: two chains along
    different axes whose neighbouring points share no monomial prefix, so
    the output has about 4N^2 letters, in about 20N runs and 10 factors."""
    n = 200
    commutator = Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    started = time.time()
    e = evaluate_word_flow(2, concat([power(0, n), power(1, n), commutator,
                                      power(1, -n), power(0, -n), commutator]))
    fact = factorize_metabelian(e)
    assert fact.count <= 10
    runs = sum(len(w.runs) for w in fact.factors)
    letters = sum(len(w) for w in fact.factors)
    assert runs <= 20 * n + 32 and letters <= 4.5 * n * n, (runs, letters)
    cert = metabelian_certificate(e, fact, {})
    verify_certificate(json.loads(json.dumps(cert)))
    _report("size (x1^N x2^N [x1,x2] x2^-N x1^-N [x1,x2], N = 200, r = 2)",
            started, 0.3)


def test_size_same_grid_pair_rank2():
    """+-v at (0,0) and (2,0), one grid, v = 1000: no battlement correction,
    but each [x1,x2]^v is spelled as 4v single-letter runs, so the output
    has about 16v letters in as many runs."""
    v = 1000
    started = time.time()
    e = squares_to_element(SquareCoeffs(2, {(0, 1): LatticeFn(2, {(0, 0): v, (2, 0): -v})}))
    fact = factorize_metabelian(e)
    runs = sum(len(w.runs) for w in fact.factors)
    letters = sum(len(w) for w in fact.factors)
    assert runs <= 16 * v + 8 and letters <= 16 * v + 8, (runs, letters)
    cert = metabelian_certificate(e, fact, {})
    verify_certificate(json.loads(json.dumps(cert)))
    _report("size (+-1000 at (0,0) and (2,0), r = 2)", started, 0.1)


def _factorize_battlement_heavy(e, v, letters_per_v2, budget, name):
    """factorize_metabelian on an element whose grid sums are about v: the
    battlement lines put about v commutators on each grid, centred on its
    grid point, so the skew pieces carry Theta(v^2) mass.  The output stays
    within letters_per_v2 * v^2 letters and its certificate verifies, within
    the wall-clock budget."""
    started = time.time()
    fact = factorize_metabelian(e)
    letters = sum(len(w) for w in fact.factors)
    assert letters <= letters_per_v2 * v * v, letters
    cert = metabelian_certificate(e, fact, {})
    verify_certificate(json.loads(json.dumps(cert)))
    _report(name, started, budget)


def test_size_commutator_power_rank2():
    v = 300
    e = evaluate_word_flow(2, concat([Word(((0, 1), (1, 1), (0, -1), (1, -1)))] * v))
    _factorize_battlement_heavy(e, v, 4.5, 1.5, "size ([x1,x2]^300, r = 2)")


def test_size_different_grid_pair_rank2():
    v = 100
    e = squares_to_element(SquareCoeffs(2, {(0, 1): LatticeFn(2, {(0, 0): v, (3, 1): -v})}))
    _factorize_battlement_heavy(e, v, 9.0, 1.0,
                                "size (+-100 at (0,0) and (3,1), r = 2)")


def test_time_metabelian_battlement_heavy():
    """Four seeded elements of ranks 3 and 4 with coefficients up to +-30,
    whose grid sums need about 1,550 battlement commutators in all: the
    corrected coefficients come in closed form, so the op costs the spelling
    and the boundary check of about 244,000 output letters."""
    elements = [random_flow_element(random.Random(seed), r, 2, 30, 3, points_per_pair=6)
                for seed, r in ((1, 3), (2, 3), (3, 4), (4, 4))]
    started = time.time()
    for e in elements:
        factorize_metabelian(e)
    _report("time (factorize_metabelian, 4 battlement-heavy elements)", started, 0.4)


def test_time_verify_metabelian_battlement_heavy():
    """`palwidth verify` on the certificates of the four elements above, about
    244,000 letters: parsing, then the flow walk, which takes each palindrome
    through its first half and middle run only."""
    certs = []
    for seed, r in ((1, 3), (2, 3), (3, 4), (4, 4)):
        e = random_flow_element(random.Random(seed), r, 2, 30, 3, points_per_pair=6)
        cert = metabelian_certificate(e, factorize_metabelian(e), {})
        certs.append(json.loads(json.dumps(cert)))
    started = time.time()
    for cert in certs:
        verify_certificate(cert)
    _report("time (verify, 4 battlement-heavy metabelian certificates)", started, 0.35)


def test_time_half_split_dense_rank1():
    """skew_split_half moves each point's merged mass once, so 1400 points
    within radius 1000 split in well under a second."""
    f = dense_grid_zero(random.Random(1), 1, 1000, 9, 1400)
    started = time.time()
    pieces = skew_split_half(f, (0,))
    _report("time (skew_split_half, 1400 points in radius 1000)", started, 0.5)
    check_pieces(f, pieces, "half-step split")


def test_time_fixed_split_far_cancelling_pair():
    """+1 at (10^9, 0) and -1 at (10^9 - 2, 0): the transport walks the one
    step between them, where the carried mass cancels, and jumps the rest of
    the line, so the split costs its four dipoles, not the distance 10^9."""
    f = LatticeFn(2, {(10 ** 9, 0): 1, (10 ** 9 - 2, 0): -1})
    started = time.time()
    pieces = skew_split_fixed_centers(f, (-1, -1))
    _report("time (fixed split, cancelling pair at 10^9)", started, 0.01)
    check_pieces(f, pieces, "fixed-center split")
    assert sum(piece.fn.support_size() for piece in pieces) == 4


def test_time_fixed_split_transport_heavy_rank3():
    """About 3,000 points within radius 12 in rank 3, every grid sum zero:
    the axis sweeps carry about 24,000 piece entries' worth of dipoles."""
    f = dense_grid_zero(random.Random(2025), 3, 12, 9, 3000)
    started = time.time()
    pieces = skew_split_fixed_centers(f, (-1, 1, 3))
    _report("time (fixed split, 3,008 points in radius 12, r = 3)", started, 0.1)
    check_pieces(f, pieces, "fixed-center split")


def test_time_width3_all_passing_centers():
    """({0:-1, 1:-1, 2:-1}, 3) decomposes at all 58 centers of its default
    scan, the costliest width-3 op: each center is solved and multiplied
    back once, so 100 certificates take well under a second."""
    target = lamp_element({0: -1, 1: -1, 2: -1}, 3)
    started = time.time()
    for _ in range(100):
        witness = certify_width_three(target)
    _report("time (certify_width_three x100, 58 passing centers)", started, 0.6)
    assert len(witness.found()) == len(witness.verdicts) == 58


def test_time_width3_all_passing_centers_negative_shift():
    """({0:-1, 1:-1, 2:-1}, -3) also decomposes at all 58 centers: the scan
    solves the first center of each residue class and steps each later one
    from the center m = 3 below it, walking g against the shift."""
    target = lamp_element({0: -1, 1: -1, 2: -1}, -3)
    started = time.time()
    for _ in range(100):
        witness = certify_width_three(target)
    _report("time (certify_width_three x100, 58 passing centers, k = -3)",
            started, 0.5)
    assert len(witness.found()) == len(witness.verdicts) == 58


def test_time_oracle_witness_two_factors():
    """The length-7, two-factor oracle on the width-3 witness forms only the
    probes whose abelian image lies in the palindrome layer."""
    minimal_palindromic_length_bfs(WITNESS, 7, 2)  # builds the cached table
    started = time.time()
    for _ in range(1000):
        res = minimal_palindromic_length_bfs(WITNESS, 7, 2)
    _report("time (oracle x1000 on the witness, max_len 7, 2 factors)", started, 0.5)
    assert res.status == "exceeds-max-factors"
