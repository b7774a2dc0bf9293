"""Self-contained JSON certificates and their independent re-verification.

A factorization certificate embeds its input element, the factor words, the
declared bound, and a transcript of sha256 hashes over the canonical JSON of
the input and factors.  `verify_certificate` recomputes everything from
scratch, through the same checks the library runs on its own output:
`words.check_factorization` for every factor list, `symmetric.check_split`
and `skew.check_pieces` for the splits, and a re-run for the two-palindrome
decisions and the oracle.  Each checker below adds only what its kind
declares besides: the factor count, the transcript hashes, the rendering of
each decomposition, the width-3 flags and list of decomposing centers, the
oracle's `max_len`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .errors import BudgetExceeded, VerificationError
from .lamplighter import (LAMP_CTX, OracleResult, TwoPalDecomposition,
                          in_width3_hypothesis, minimal_palindromic_length_bfs,
                          scan_centers, two_palindrome_decision)
from .lattice import (LatticeFn, json_field, json_int, json_list, json_object,
                      json_point, json_str)
from .metabelian import evaluate_word_flow, flow_from_json, flow_to_json
from .metabelian import free_alphabet
from .skew import SkewPiece, check_pieces
from .symmetric import SymmetricSplit, check_split
from .wreath import base_from_name, element_from_json, element_to_json, evaluate_word
from .words import (EPSILON, Alphabet, Factorization, Word, check_factorization, concat,
                    format_word, parse_word)

TOOL = "palwidth 0.1.0"


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256_of(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def _factorization_certificate(kind: str, alphabet: Alphabet, payload: dict,
                               factorization: Factorization, config: dict,
                               **extra) -> dict:
    factors = [format_word(alphabet, w) for w in factorization.factors]
    return {
        "kind": kind,
        "tool": TOOL,
        "config": config,
        "input": payload,
        "factors": factors,
        "count": factorization.count,
        "bound": factorization.bound,
        **extra,
        "transcript": {
            "input_sha256": sha256_of(payload),
            "factors_sha256": sha256_of(factors),
        },
    }


def wreath_certificate(element, factorization: Factorization, config: dict) -> dict:
    return _factorization_certificate("wreath-factorization", element.ctx.alphabet,
                                      element_to_json(element), factorization, config)


def metabelian_certificate(element, factorization: Factorization, config: dict) -> dict:
    return _factorization_certificate("metabelian-factorization", free_alphabet(element.r),
                                      flow_to_json(element), factorization, config,
                                      telemetry={})


def decomposition_json(verdict) -> dict:
    """How certificates carry one two_palindrome_decision verdict."""
    if not isinstance(verdict, TwoPalDecomposition):
        return {"verdict": "none", "trace": verdict}
    left, right = verdict.words()
    return {
        "verdict": "decomposition",
        "g": verdict.g.to_json(), "p": verdict.p,
        "h": verdict.h.to_json(), "q": verdict.q,
        "words": [format_word(LAMP_CTX.alphabet, left),
                  format_word(LAMP_CTX.alphabet, right)],
    }


def _words(alphabet: Alphabet, data: Any, what: str) -> list[Word]:
    return [parse_word(alphabet, json_str(text, what)) for text in json_list(data, what)]


def _optional_int(data: Any, what: str) -> int | None:
    return None if data is None else json_int(data, what)


def _check_factorization(cert: dict) -> None:
    count = json_int(json_field(cert, "count", "certificate"), "count")
    bound = _optional_int(cert.get("bound"), "bound")
    transcript = json_object(cert.get("transcript", {}), "transcript")
    if cert["kind"] == "wreath-factorization":
        element = element_from_json(json_field(cert, "input", "certificate"))
        alphabet = element.ctx.alphabet
        evaluate = lambda ws: evaluate_word(element.ctx, concat(ws))
    else:
        element = flow_from_json(json_field(cert, "input", "certificate"))
        alphabet = free_alphabet(element.r)
        evaluate = lambda ws: evaluate_word_flow(element.r, ws)
    factors = _words(alphabet, json_field(cert, "factors", "certificate"), "factor")
    check_factorization(evaluate, element, factors, bound)
    if len(factors) != count:
        raise VerificationError("factor count does not match the certificate")
    if transcript.get("input_sha256") != sha256_of(cert["input"]):
        raise VerificationError("input hash mismatch")
    if transcript.get("factors_sha256") != sha256_of(cert["factors"]):
        raise VerificationError("factor hash mismatch")


def _check_symmetric_split(cert: dict) -> None:
    base = base_from_name(json_str(json_field(cert, "base", "certificate"), "base"))
    decode = lambda raw: parse_word(base.alphabet, json_str(raw, "piece value"))
    load = lambda data: LatticeFn.from_json(data, zero=EPSILON, decode=decode)
    split = SymmetricSplit(
        base.decode_value(json_field(cert, "gamma", "certificate")),
        load(json_field(cert, "even_piece", "certificate")),
        [load(data) for data in
         json_list(json_field(cert, "axis_pieces", "certificate"), "axis_pieces")])
    check_split(load(json_field(cert, "input", "certificate")), base, split)


def _check_skew_split(cert: dict) -> None:
    pieces = []
    for item in json_list(json_field(cert, "pieces", "certificate"), "pieces"):
        item = json_object(item, "piece")
        pieces.append(SkewPiece(LatticeFn.from_json(json_field(item, "fn", "piece")),
                                json_point(json_field(item, "two_center", "piece"),
                                           "two_center")))
    check_pieces(LatticeFn.from_json(json_field(cert, "input", "certificate")), pieces,
                 "certificate")


def _check_verdict(claimed: Any, rerun, where: str) -> None:
    """A decomposition must equal the re-run's rendering; "none" must match
    the re-run's kind (its trace text is not compared)."""
    claimed = json_object(claimed, "verdict")
    if json_field(claimed, "verdict", "verdict") == "decomposition":
        if claimed != decomposition_json(rerun):
            raise VerificationError(f"{where}: decomposition differs from the re-run")
    elif isinstance(rerun, TwoPalDecomposition):
        raise VerificationError(f"{where}: re-run decision found a decomposition")


def _check_two_pal(cert: dict) -> None:
    element = element_from_json(json_field(cert, "input", "certificate"))
    p = json_int(json_field(cert, "p", "certificate"), "p")
    _check_verdict(json_field(cert, "result", "certificate"),
                   two_palindrome_decision(element, p), f"p={p}")


def _flag(cert: dict, key: str) -> bool:
    value = json_field(cert, key, "certificate")
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be a boolean, not {type(value).__name__}")
    return value


def _check_width3(cert: dict) -> None:
    """Re-decide every scanned center with the scan that made the table, and
    re-derive the flags and the list of centers that decompose."""
    element = element_from_json(json_field(cert, "input", "certificate"))
    lo, hi = json_point(json_field(cert, "scanned_p", "certificate"), "scanned_p")
    if lo > hi:
        raise ValueError(f"scanned_p [{lo}, {hi}] is an empty range")
    verdicts = json_object(json_field(cert, "verdicts", "certificate"), "verdicts")
    claimed_found = [json_int(p, "decompositions_found_at entry") for p in json_list(
        json_field(cert, "decompositions_found_at", "certificate"), "decompositions_found_at")]
    all_none, in_hypothesis = _flag(cert, "all_none"), _flag(cert, "in_hypothesis")
    reruns = scan_centers(element, lo, hi)
    for p, rerun in reruns.items():
        _check_verdict(json_field(verdicts, str(p), "verdicts"), rerun, f"p={p}")
    outside = sorted(set(verdicts) - {str(p) for p in reruns})
    if outside:
        raise VerificationError(f"verdict table has centers outside scanned_p: "
                                f"{', '.join(outside)}")
    found = [p for p, rerun in reruns.items() if isinstance(rerun, TwoPalDecomposition)]
    if claimed_found != found:
        raise VerificationError("decompositions_found_at does not match the verdict table")
    if all_none != (not found):
        raise VerificationError("all_none flag does not match the verdict table")
    if in_hypothesis != in_width3_hypothesis(element):
        raise VerificationError("in_hypothesis flag does not match the input")
    upper = json_object(json_field(cert, "upper_factorization", "certificate"),
                        "upper_factorization")
    factors = _words(element.ctx.alphabet, json_field(upper, "factors", "upper_factorization"),
                     "upper factor")
    check_factorization(lambda ws: evaluate_word(element.ctx, concat(ws)), element, factors,
                        _optional_int(upper.get("bound"), "upper bound"))
    if json_int(json_field(upper, "count", "upper_factorization"), "count") != len(factors):
        raise VerificationError("upper factorization count does not match its factors")


def _check_min_length(cert: dict) -> None:
    element = element_from_json(json_field(cert, "input", "certificate"))
    max_len = json_int(json_field(cert, "max_len", "certificate"), "max_len")
    max_factors = json_int(json_field(cert, "max_factors", "certificate"), "max_factors")
    status = json_str(json_field(cert, "status", "certificate"), "status")
    minimal = _optional_int(json_field(cert, "minimal", "certificate"), "minimal")
    try:
        rerun = minimal_palindromic_length_bfs(
            element, max_len, max_factors,
            max_states=json_int(cert.get("max_states", 2_000_000), "max_states"))
    except BudgetExceeded:
        rerun = OracleResult("budget-exceeded", None)
    if rerun.status != status or rerun.minimal != minimal:
        raise VerificationError("re-run oracle disagrees with the certificate")
    if status == "exact" and minimal:
        factors = _words(element.ctx.alphabet, json_field(cert, "witness", "certificate"),
                         "witness factor")
        if len(factors) != minimal:
            raise VerificationError("witness length does not match the minimum")
        if any(len(w) > max_len for w in factors):
            raise VerificationError("witness factor is longer than max_len")
        check_factorization(lambda ws: evaluate_word(element.ctx, concat(ws)), element,
                            factors)


def _check_rewrite(cert: dict) -> None:
    alphabet = Alphabet(tuple(json_str(name, "generator name") for name in
                              json_list(json_field(cert, "alphabet", "certificate"),
                                        "alphabet")))
    target = parse_word(alphabet, json_str(json_field(cert, "target", "certificate"), "target"))
    factors = _words(alphabet, json_field(cert, "factors", "certificate"), "rewrite factor")
    check_factorization(lambda ws: concat(ws).free_reduce(), target.free_reduce(), factors)
    count = json_int(json_field(cert, "count", "certificate"), "count")
    if count != sum(1 for w in factors if w):
        raise VerificationError("rewrite count does not match its nonempty factors")
    if cert["kind"] == "rewrite-conjugate":
        budget = json_int(json_field(cert, "input_count", "certificate"), "input_count") + 1
        if count > budget:
            raise VerificationError("conjugation rewrite exceeds its factor budget")


_CHECKERS = {
    "wreath-factorization": _check_factorization,
    "metabelian-factorization": _check_factorization,
    "symmetric-split": _check_symmetric_split,
    "skew-split": _check_skew_split,
    "two-pal-decision": _check_two_pal,
    "width3-certificate": _check_width3,
    "min-length": _check_min_length,
    "rewrite-commutator": _check_rewrite,
    "rewrite-conjugate": _check_rewrite,
}


def verify_certificate(cert: Any) -> None:
    """Independently re-evaluate any certificate from its embedded data."""
    kind = json_object(cert, "certificate").get("kind")
    checker = _CHECKERS.get(kind) if isinstance(kind, str) else None
    if checker is None:
        raise ValueError(f"cannot verify certificate kind {kind!r}")
    checker(cert)
