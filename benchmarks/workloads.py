"""The four benchmark workloads: seeded input generators, the timed operation,
and the correctness check of each output.

Inputs are generated here from the workload seed and handed to palwidth as
elements (or, for ``cli``, element JSON files); palwidth never sees the seed.
Expected answers are computed here too, with the evaluators in ``refcheck``,
so no check relies on palwidth's own evaluators.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import refcheck


OVERSAMPLE = 16


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def stratified(draw, proxy, size: int) -> list:
    """`size` draws from the population of `draw()`, stratified on a cost proxy.

    Op cost is heavy-tailed, so a pool of plain draws gives each seed a
    different median.  Instead draw size * OVERSAMPLE candidates, sort them by
    proxy, and keep the middle candidate of each run of OVERSAMPLE: the pool
    holds the proxy's quantiles at (k + 1/2) / size, so every seed's pool
    spans the proxy's range evenly, and the costliest input is a high quantile
    rather than the maximum of a random stratum.  The strata come in
    bit-reversed order from the costliest down, so any prefix the timed loop
    reaches spans the range too, and the costliest inputs (which set the
    peak memory) run early even on a slow host.  `size` is a power of two.
    """
    ranked = sorted((draw() for _ in range(size * OVERSAMPLE)), key=proxy)
    strata = ranked[OVERSAMPLE // 2::OVERSAMPLE]
    bits = size.bit_length() - 1
    return [strata[size - 1 - int(f"{k:0{bits}b}"[::-1], 2)] for k in range(size)]


@dataclass
class Case:
    """One generated input: what palwidth receives plus the expected answer."""

    element: Any          # palwidth element (None for cli, which reads `path`)
    expect: dict
    path: Path | None = None


class Workload:
    name: str
    pool_size: int
    # Traced passes run a fixed number of ops so their counts repeat exactly:
    # round(seconds * trace_rate), sized for about seconds/3 per pass.
    trace_rate: float

    def pool(self, pw, rng: random.Random, workdir: Path) -> list[Case]:
        """The seeded inputs; the timed loop cycles through them in order."""
        return [self.build(pw, self.draw(rng, index), index, workdir)
                for index in range(self.pool_size)]

    def draw(self, rng: random.Random, index: int):
        """A plain description of one input, drawn from the workload's distribution."""
        raise NotImplementedError

    def build(self, pw, spec, index: int, workdir: Path) -> Case:
        raise NotImplementedError

    def op(self, pw, case: Case):
        """The timed operation; its return value is what `check` inspects."""
        raise NotImplementedError

    def check(self, case: Case, output) -> str | None:
        raise NotImplementedError

    def corrupt(self, case: Case, output):
        """The output with one letter of one factor flipped (negative self-test),
        or None when the output has no letter to flip."""
        raise NotImplementedError

    def cert_bytes(self, case: Case, output) -> int:
        return 0


# ---------------------------------------------------------------------------
# lamps: rank-1 Z wr Z with large lamp values
# ---------------------------------------------------------------------------

LAMP_NAMES = {"a", "t"}


def _unary_mass(spec) -> int:
    """Cost proxy: the unary lamp mass a mirror-symmetric split of the lamps
    must spell out, folding the configuration from the outside in."""
    lamps, _ = spec
    h = total = 0
    for i in range(max(abs(x) for (x,) in lamps), 0, -1):
        g = lamps.get((-i,), 0) - h
        h = lamps.get((i,), 0) - g
        total += abs(g) + abs(h)
    return total


class Lamps(Workload):
    name = "lamps"
    pool_size = 64
    trace_rate = 0.8

    def pool(self, pw, rng, workdir):
        specs = stratified(lambda: self.draw(rng, 0), _unary_mass, self.pool_size)
        return [self.build(pw, spec, index, workdir) for index, spec in enumerate(specs)]

    def draw(self, rng, index):
        positions = rng.sample(range(-16, 17), rng.randint(3, 6))
        lamps = {(x,): rng.choice((1, -1)) * round(10 ** rng.uniform(2.0, 3.5))
                 for x in positions}
        return lamps, (rng.randint(-40, 40),)

    def build(self, pw, spec, index, workdir):
        lamps, shift = spec
        ctx = pw.wreath.WreathContext(pw.wreath.IntegerGroup(), 1)
        element = pw.wreath.make_element(ctx, lamps, shift)
        return Case(element, {"lamps": lamps, "shift": shift})

    def op(self, pw, case):
        fact = pw.wreath_factor.factorize_wreath_z(case.element)
        cert = pw.certificates.wreath_certificate(case.element, fact,
                                                  {"command": "benchmark lamps"})
        text = json.dumps(cert, sort_keys=True)
        pw.certificates.verify_certificate(json.loads(text))
        return text

    def check(self, case, output):
        return refcheck.check_wreath_certificate(output, 1, None, case.expect["lamps"],
                                                 case.expect["shift"])

    def corrupt(self, case, output):
        return refcheck.corrupt_certificate(output, LAMP_NAMES)

    def cert_bytes(self, case, output):
        return len(output)


# ---------------------------------------------------------------------------
# metabelian: free metabelian elements of ranks 3 and 4
# ---------------------------------------------------------------------------

def _monomial(point) -> refcheck.Runs:
    return [(f"x{k + 1}", c) for k, c in enumerate(point) if c]


def _inverse(runs: refcheck.Runs) -> refcheck.Runs:
    return [(name, -exp) for name, exp in reversed(runs)]


def _commutator_power(i: int, j: int, value: int) -> refcheck.Runs:
    """[x_i, x_j]^value as unit runs (0-based axes)."""
    xi, xj = f"x{i + 1}", f"x{j + 1}"
    rho = [(xi, 1), (xj, 1), (xi, -1), (xj, -1)]
    return rho * value if value > 0 else _inverse(rho) * -value


def _canonical_mass(spec) -> int:
    """Cost proxy: total |coefficient| once every square u [x_i, x_j]^v is
    rewritten in the form confined to x_k = 0 for all k > j.

    Each of the square's four edges is telescoped to height 0 along every
    higher axis J, leaving one square of pair (axis, J) per unit of height;
    squares of different inputs may cancel.
    """
    r, squares, _ = spec
    coeffs: dict = {}
    for i, j, u, v in squares:
        e_i = tuple(int(k == i) for k in range(r))
        e_j = tuple(int(k == j) for k in range(r))
        edges = [(i, u, v), (j, _add(u, e_i), v), (i, _add(u, e_j), -v), (j, u, -v)]
        for big in range(r - 1, j, -1):
            for axis, p, val in edges:
                h = p[big]
                for y in range(min(h, 0), max(h, 0)):
                    key = (axis, big, p[:big] + (y,) + p[big + 1:])
                    coeffs[key] = coeffs.get(key, 0) + (-val if h > 0 else val)
            edges = [(axis, p[:big] + (0,) + p[big + 1:], val) for axis, p, val in edges]
        key = (i, j, edges[0][1])
        coeffs[key] = coeffs.get(key, 0) + v
    return sum(abs(c) for c in coeffs.values())


def _add(p, q):
    return tuple(a + b for a, b in zip(p, q))


class Metabelian(Workload):
    name = "metabelian"
    pool_size = 64
    trace_rate = 0.8

    def pool(self, pw, rng, workdir):
        half = self.pool_size // 2
        by_rank = [stratified(lambda: self.draw(rng, parity), _canonical_mass, half)
                   for parity in (0, 1)]
        specs = [spec for pair in zip(*by_rank) for spec in pair]
        return [self.build(pw, spec, index, workdir) for index, spec in enumerate(specs)]

    def draw(self, rng, index):
        r = 3 if index % 2 == 0 else 4
        radius, max_points = (5, 8) if r == 3 else (2, 4)
        squares = []
        for i, j in itertools.combinations(range(r), 2):
            points = {tuple(rng.randint(-radius, radius) for _ in range(r)): _nonzero(rng, 8)
                      for _ in range(rng.randint(1, max_points))}
            squares += [(i, j, point, value) for point, value in sorted(points.items())]
        return r, squares, tuple(rng.randint(-5, 5) for _ in range(r))

    def build(self, pw, spec, index, workdir):
        r, squares, shift = spec
        word: refcheck.Runs = []
        for i, j, point, value in squares:
            m = _monomial(point)
            word += m + _commutator_power(i, j, value) + _inverse(m)
        edges, end = refcheck.walk_flow(word + _monomial(shift), r)
        element = pw.metabelian.FlowElement(r, end, edges)
        return Case(element, {"r": r, "edges": edges, "shift": end})

    def op(self, pw, case):
        fact = pw.metabelian_factor.factorize_metabelian(case.element)
        cert = pw.certificates.metabelian_certificate(case.element, fact,
                                                      {"command": "benchmark metabelian"})
        text = json.dumps(cert, sort_keys=True)
        pw.certificates.verify_certificate(json.loads(text))
        return text

    def check(self, case, output):
        e = case.expect
        return refcheck.check_metabelian_certificate(output, e["r"], e["edges"], e["shift"])

    def corrupt(self, case, output):
        return refcheck.corrupt_certificate(output, set(refcheck.free_names(case.expect["r"])))

    def cert_bytes(self, case, output):
        return len(output)


# ---------------------------------------------------------------------------
# width3: two-palindrome decisions and the exhaustive oracle on Z wr Z
# ---------------------------------------------------------------------------

LAMP_LETTERS = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
ORACLE_MAX_LEN, ORACLE_MAX_FACTORS = 7, 2


def _random_palindrome(rng: random.Random) -> refcheck.Runs:
    length = rng.randint(1, 7)
    half = [rng.choice(LAMP_LETTERS) for _ in range((length + 1) // 2)]
    return half + half[:length - len(half)][::-1]


def _lamp_symmetric(fn: dict, shift: int) -> bool:
    """(fn, shift) is a palindromic element: fn symmetric about shift/2."""
    return all(fn.get((shift - x,), 0) == v for (x,), v in fn.items())


class Width3(Workload):
    name = "width3"
    pool_size = 2048
    trace_rate = 12.0

    def draw(self, rng, index):
        if index % 2 == 0:
            a, b = rng.sample([v for v in range(-20, 21) if v], 2)
            return {"kind": "witness", "lamps": {(0,): a, (1,): b}, "shift": (3,)}
        w1, w2 = _random_palindrome(rng), _random_palindrome(rng)
        lamps, shift = refcheck.walk_wreath(w1 + w2, 1, None)
        return {"kind": "product", "lamps": lamps, "shift": shift,
                "p": sum(exp for name, exp in w1 if name == "t")}

    def build(self, pw, spec, index, workdir):
        lamps = {x: v for (x,), v in spec["lamps"].items()}
        return Case(pw.lamplighter.lamp_element(lamps, spec["shift"][0]), spec)

    def op(self, pw, case):
        witness = pw.lamplighter.certify_width_three(case.element)
        oracle = pw.lamplighter.minimal_palindromic_length_bfs(
            case.element, ORACLE_MAX_LEN, ORACLE_MAX_FACTORS)
        return witness, oracle

    def check(self, case, output):
        witness, oracle = output
        e = case.expect
        target = (e["lamps"], e["shift"])
        names = ("a", "t")
        upper = [refcheck.runs_from_letters(w.letters, names) for w in witness.upper.factors]
        if not all(refcheck.is_palindrome(w) for w in upper):
            return "upper factor is not a palindrome"
        if refcheck.walk_wreath([run for w in upper for run in w], 1, None) != target:
            return "upper factorization does not multiply to the target"
        if len(upper) > 3:
            return f"upper factorization has {len(upper)} > 3 factors"
        if e["kind"] == "witness":
            if not witness.all_none:
                return f"witness target decomposes at {witness.found()}"
            if not witness.in_hypothesis:
                return "witness target not recognised as in the hypothesis"
            if oracle.status != "exceeds-max-factors":
                return f"oracle status {oracle.status!r} on a width-3 witness"
            return None
        verdict = witness.verdicts.get(e["p"])
        if verdict is None or isinstance(verdict, str):
            return f"no decomposition at p = {e['p']}: {verdict}"
        g, h = dict(verdict.g.items()), dict(verdict.h.items())
        if verdict.p != e["p"] or verdict.p + verdict.q != e["shift"][0]:
            return "decomposition shifts do not match the target"
        if not (_lamp_symmetric(g, verdict.p) and _lamp_symmetric(h, verdict.q)):
            return "decomposition parts are not palindromic elements"
        product = dict(g)
        for (x,), v in h.items():
            total = product.get((x + verdict.p,), 0) + v
            if total:
                product[(x + verdict.p,)] = total
            else:
                product.pop((x + verdict.p,), None)
        if product != e["lamps"]:
            return "decomposition does not multiply to the target"
        if oracle.status != "exact" or oracle.minimal > ORACLE_MAX_FACTORS:
            return f"oracle gave {oracle.status!r}, {oracle.minimal} on a two-palindrome product"
        found = [refcheck.runs_from_letters(w.letters, names) for w in oracle.witness]
        if len(found) != oracle.minimal or any(
                not refcheck.is_palindrome(w) or sum(abs(x) for _, x in w) > ORACLE_MAX_LEN
                for w in found):
            return "oracle witness is out of contract"
        if refcheck.walk_wreath([run for w in found for run in w], 1, None) != target:
            return "oracle witness does not multiply to the target"
        return None

    def corrupt(self, case, output):
        witness, oracle = output
        factors = list(witness.upper.factors)
        k = next((i for i, w in enumerate(factors) if w), None)
        if k is None:
            return None
        (gen, sign), rest = factors[k].letters[0], factors[k].letters[1:]
        factors[k] = type(factors[k])(((gen, -sign),) + rest)
        upper = dataclasses.replace(witness.upper, factors=factors)
        return dataclasses.replace(witness, upper=upper), oracle


# ---------------------------------------------------------------------------
# cli: `palwidth factor wreath` then `palwidth verify`, one process each
# ---------------------------------------------------------------------------

CLI_BASES = {"Z": None, "Zm:5": 5}
CLI_TIMEOUT_S = 60


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "palwidth.cli", *args]


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


@dataclass
class CliOutput:
    factor_rc: int | None
    verify_rc: int | None
    factor_s: float = 0.0
    verify_s: float = 0.0
    text: str | None = None   # certificate text; read from disk after the op


class Cli(Workload):
    name = "cli"
    pool_size = 64
    trace_rate = 0.8

    def __init__(self, src: Path) -> None:
        self.env = cli_env(src)

    def draw(self, rng, index):
        # Rank and base cycle through all four pairs, the costliest choices.
        r = 2 + index % 2
        base = ("Z", "Zm:5")[index // 2 % 2]
        cells = list(itertools.product(range(-10, 11), repeat=r))
        points = rng.sample(cells, rng.randint(20, 30))
        lamps = {p: (_nonzero(rng, 9) if base == "Z" else rng.randint(1, 4))
                 for p in points}
        return r, base, lamps, tuple(rng.randint(-10, 10) for _ in range(r))

    def build(self, pw, spec, index, workdir):
        r, base, lamps, shift = spec
        data = {"base": base, "r": r, "shift": list(shift),
                "fn": {"r": r, "entries": [{"pos": list(p), "val": v}
                                           for p, v in sorted(lamps.items())]}}
        path = workdir / f"element-{index}.json"
        path.write_text(json.dumps(data))
        return Case(None, {"r": r, "modulus": CLI_BASES[base], "lamps": lamps,
                           "shift": shift}, path)

    def cert_path(self, case: Case) -> Path:
        return case.path.with_name("certificate.json")

    def op(self, pw, case):
        """Both commands in fresh processes, each timed on its own."""
        out = self.cert_path(case)
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        factor = subprocess.run(cli_command("factor", "wreath", "--in", str(case.path),
                                            "--out", str(out)),
                                env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
        t1 = time.perf_counter()
        if factor.returncode != 0:
            return CliOutput(factor.returncode, None, t1 - t0)
        verify = subprocess.run(cli_command("verify", str(out)), env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                timeout=CLI_TIMEOUT_S)
        return CliOutput(factor.returncode, verify.returncode, t1 - t0,
                         time.perf_counter() - t1)

    def op_in_process(self, pw, case):
        """The same two commands through `palwidth.cli.main` in this process."""
        out = self.cert_path(case)
        out.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):
            rc = pw.cli.main(["factor", "wreath", "--in", str(case.path), "--out", str(out)])
            if rc != 0:
                return CliOutput(rc, None)
            return CliOutput(rc, pw.cli.main(["verify", str(out)]))

    def _text(self, case, output) -> str:
        if output.text is None:
            output.text = self.cert_path(case).read_text()
        return output.text

    def check(self, case, output):
        if output.factor_rc != 0:
            return f"factor exited {output.factor_rc}"
        if output.verify_rc != 0:
            return f"verify exited {output.verify_rc}"
        e = case.expect
        return refcheck.check_wreath_certificate(self._text(case, output), e["r"],
                                                 e["modulus"], e["lamps"], e["shift"])

    def corrupt(self, case, output):
        names = {"a", *refcheck.lattice_names(case.expect["r"])}
        text = refcheck.corrupt_certificate(self._text(case, output), names)
        return None if text is None else dataclasses.replace(output, text=text)

    def cert_bytes(self, case, output):
        return len(self._text(case, output))


def make_workloads(src: Path) -> dict[str, Workload]:
    return {w.name: w for w in (Lamps(), Metabelian(), Width3(), Cli(src))}
