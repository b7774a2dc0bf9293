"""Reference checker for palwidth outputs, independent of palwidth's own word
parser and evaluators.

Words are handled as maximal runs ``(name, exponent)``: ``a^-3t`` is
``[("a", -3), ("t", 1)]`` and ``x1X2`` is ``[("x1", 1), ("x2", -1)]``.  A word
is a literal palindrome exactly when its maximal-run list equals its own
reversal.  Two evaluators walk the runs: a cursor walk for ``Z`` or ``Z_m``
wreath ``Z^r`` (base letter ``a`` changes the lamp under the cursor, lattice
letters move it) and an edge-flow path walk for the free metabelian group
(each unit step adds +1 or -1 to the lattice edge it crosses).

Every check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json

Point = tuple[int, ...]
Runs = list[tuple[str, int]]


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def parse_runs(text: str, names: set[str]) -> Runs:
    """Maximal runs of a word in the certificate syntax."""
    runs: Runs = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if not ("a" <= ch.lower() <= "z"):
            raise CheckFailed(f"unexpected character {ch!r} in word")
        j = i + 1
        while j < n and text[j].isdigit():
            j += 1
        token = text[i:j]
        name = token.lower()
        if name not in names:
            raise CheckFailed(f"generator {name!r} not in {sorted(names)}")
        exp = 1
        if j < n and text[j] == "^":
            k = j + 1
            if k < n and text[k] == "-":
                k += 1
            m = k
            while m < n and text[m].isdigit():
                m += 1
            if m == k:
                raise CheckFailed(f"missing exponent after {token!r}")
            exp = int(text[j + 1:m])
            j = m
        if token[0].isupper():
            exp = -exp
        if exp:
            if runs and runs[-1][0] == name and (runs[-1][1] > 0) == (exp > 0):
                runs[-1] = (name, runs[-1][1] + exp)
            else:
                runs.append((name, exp))
        i = j
    return runs


def format_runs(runs: Runs) -> str:
    return "".join(name if exp == 1 else f"{name}^{exp}" for name, exp in runs)


def runs_from_letters(letters, names: tuple[str, ...]) -> Runs:
    """Maximal runs of a sequence of ``(generator index, sign)`` letters."""
    runs: Runs = []
    for gen, sign in letters:
        name = names[gen]
        if runs and runs[-1][0] == name and (runs[-1][1] > 0) == (sign > 0):
            runs[-1] = (name, runs[-1][1] + sign)
        else:
            runs.append((name, sign))
    return runs


def is_palindrome(runs: Runs) -> bool:
    return runs == runs[::-1]


def flip_first_letter(runs: Runs) -> Runs:
    """The word with its first letter inverted; used by the negative self-test."""
    name, exp = runs[0]
    sign = 1 if exp > 0 else -1
    head = [(name, -sign)] + ([(name, exp - sign)] if exp != sign else [])
    return head + runs[1:]


def free_names(r: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, r + 1))


def lattice_names(r: int) -> tuple[str, ...]:
    """Lattice generators of G wr Z^r: ``t`` for rank 1, ``x1..xr`` otherwise."""
    return ("t",) if r == 1 else free_names(r)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def walk_wreath(runs: Runs, r: int, modulus: int | None) -> tuple[dict, Point]:
    """Cursor walk in Z wr Z^r (modulus None) or Z_m wr Z^r."""
    axis = {name: k for k, name in enumerate(lattice_names(r))}
    pos = [0] * r
    lamps: dict[Point, int] = {}
    for name, exp in runs:
        if name == "a":
            key = tuple(pos)
            value = lamps.get(key, 0) + exp
            if modulus is not None:
                value %= modulus
            if value:
                lamps[key] = value
            else:
                lamps.pop(key, None)
        else:
            pos[axis[name]] += exp
    return lamps, tuple(pos)


def walk_flow(runs: Runs, r: int) -> tuple[dict, Point]:
    """Edge-flow path walk in the free metabelian group of rank r."""
    pos = [0] * r
    edges: dict[tuple[Point, int], int] = {}
    for name, exp in runs:
        k = int(name[1:]) - 1
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if step < 0:
                pos[k] -= 1
            key = (tuple(pos), k)
            value = edges.get(key, 0) + step
            if value:
                edges[key] = value
            else:
                del edges[key]
            if step > 0:
                pos[k] += 1
    return edges, tuple(pos)


# ---------------------------------------------------------------------------
# certificate checks
# ---------------------------------------------------------------------------

def wreath_bound(r: int) -> int:
    """Declared factor bound: 2 + PW(G) for rank 1, 3r + PW(G) otherwise (PW = 1)."""
    return 3 if r == 1 else 3 * r + 1


def metabelian_bound(r: int) -> int:
    return 2 ** (r - 1) * r * (r + 1) * (2 * r + 3) + 4 * r + 1


def _factor_runs(cert: dict, names: set[str]) -> list[Runs]:
    factors = cert.get("factors")
    if not isinstance(factors, list) or not all(isinstance(w, str) for w in factors):
        raise CheckFailed("certificate has no factor list")
    out = [parse_runs(text, names) for text in factors]
    for k, runs in enumerate(out):
        if not is_palindrome(runs):
            raise CheckFailed(f"factor {k} is not a palindrome")
    if cert.get("count") != len(out):
        raise CheckFailed(f"count {cert.get('count')} != {len(out)} factors")
    return out


def _check_bound(cert: dict, bound: int) -> None:
    if cert.get("bound") != bound:
        raise CheckFailed(f"declared bound {cert.get('bound')} != {bound}")
    if cert["count"] > bound:
        raise CheckFailed(f"{cert['count']} factors exceed the bound {bound}")


def _concat(factor_runs: list[Runs]) -> Runs:
    return [run for runs in factor_runs for run in runs]


def check_wreath_certificate(text: str, r: int, modulus: int | None,
                             lamps: dict, shift: Point) -> str | None:
    """Certificate text for the element (lamps, shift) of Z or Z_m wr Z^r."""
    try:
        cert = json.loads(text)
        if cert.get("kind") != "wreath-factorization":
            raise CheckFailed(f"unexpected kind {cert.get('kind')!r}")
        given = cert["input"]
        entries = {tuple(e["pos"]): e["val"] for e in given["fn"]["entries"]}
        if given["r"] != r or entries != lamps or tuple(given["shift"]) != shift:
            raise CheckFailed("certificate input differs from the generated element")
        factor_runs = _factor_runs(cert, {"a", *lattice_names(r)})
        _check_bound(cert, wreath_bound(r))
        if walk_wreath(_concat(factor_runs), r, modulus) != (lamps, shift):
            raise CheckFailed("factor product differs from the input")
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed certificate: {exc!r}"
    return None


def check_metabelian_certificate(text: str, r: int, edges: dict,
                                 shift: Point) -> str | None:
    """Certificate text for the flow element (edges, shift) of rank r."""
    try:
        cert = json.loads(text)
        if cert.get("kind") != "metabelian-factorization":
            raise CheckFailed(f"unexpected kind {cert.get('kind')!r}")
        given = cert["input"]
        given_edges = {(tuple(e["pos"]), e["axis"] - 1): e["val"] for e in given["edges"]}
        if given["r"] != r or given_edges != edges or tuple(given["shift"]) != shift:
            raise CheckFailed("certificate input differs from the generated element")
        factor_runs = _factor_runs(cert, set(free_names(r)))
        _check_bound(cert, metabelian_bound(r))
        if walk_flow(_concat(factor_runs), r) != (edges, shift):
            raise CheckFailed("factor product differs from the input")
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed certificate: {exc!r}"
    return None


def corrupt_certificate(text: str, names: set[str]) -> str | None:
    """The certificate with the first letter of its first non-empty factor
    flipped, or None when it has no letters."""
    cert = json.loads(text)
    for k, factor in enumerate(cert["factors"]):
        if factor:
            cert["factors"][k] = format_runs(flip_first_letter(parse_runs(factor, names)))
            return json.dumps(cert, sort_keys=True)
    return None
