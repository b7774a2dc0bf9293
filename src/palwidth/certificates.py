"""Self-contained JSON certificates and their independent re-verification.

A certificate embeds its input element, the factor words, the declared
bound, and a transcript of sha256 hashes over the canonical JSON of the
input and factors; `verify_certificate` recomputes everything from scratch.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .errors import VerificationError
from .lattice import json_field, json_int, json_list, json_object, json_str
from .metabelian import evaluate_word_flow, flow_from_json, flow_to_json
from .metabelian import free_alphabet
from .wreath import element_from_json, element_to_json, evaluate_word
from .wreath_factor import Factorization
from .words import concat, format_word, parse_word

TOOL = "palwidth 0.1.0"


def canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256_of(data: Any) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def wreath_certificate(element, factorization: Factorization, config: dict) -> dict:
    alphabet = element.ctx.alphabet
    payload = element_to_json(element)
    factors = [format_word(alphabet, w) for w in factorization.factors]
    return {
        "kind": "wreath-factorization",
        "tool": TOOL,
        "config": config,
        "input": payload,
        "factors": factors,
        "count": factorization.count,
        "bound": factorization.bound,
        "transcript": {
            "input_sha256": sha256_of(payload),
            "factors_sha256": sha256_of(factors),
        },
    }


def metabelian_certificate(element, factorization: Factorization, config: dict,
                           telemetry: dict | None = None) -> dict:
    alphabet = free_alphabet(element.r)
    payload = flow_to_json(element)
    factors = [format_word(alphabet, w) for w in factorization.factors]
    return {
        "kind": "metabelian-factorization",
        "tool": TOOL,
        "config": config,
        "input": payload,
        "factors": factors,
        "count": factorization.count,
        "bound": factorization.bound,
        "telemetry": telemetry or {},
        "transcript": {
            "input_sha256": sha256_of(payload),
            "factors_sha256": sha256_of(factors),
        },
    }


def _check_factorization(cert: dict) -> None:
    texts = [json_str(text, "factor")
             for text in json_list(json_field(cert, "factors", "certificate"), "factors")]
    count = json_int(json_field(cert, "count", "certificate"), "count")
    bound = cert.get("bound")
    if bound is not None:
        json_int(bound, "bound")
    transcript = json_object(cert.get("transcript", {}), "transcript")
    if cert["kind"] == "wreath-factorization":
        element = element_from_json(json_field(cert, "input", "certificate"))
        alphabet = element.ctx.alphabet
        evaluate = lambda w: evaluate_word(element.ctx, w)
    else:
        element = flow_from_json(json_field(cert, "input", "certificate"))
        alphabet = free_alphabet(element.r)
        evaluate = lambda w: evaluate_word_flow(element.r, w)
    factors = [parse_word(alphabet, text) for text in texts]
    for w, text in zip(factors, texts):
        if not w.is_palindrome():
            raise VerificationError(f"factor {text!r} is not a palindrome")
    if evaluate(concat(factors)) != element:
        raise VerificationError("factor product does not evaluate to the input")
    if len(factors) != count:
        raise VerificationError("factor count does not match the certificate")
    if bound is not None and count > bound:
        raise VerificationError("factor count exceeds the declared bound")
    if transcript.get("input_sha256") != sha256_of(cert["input"]):
        raise VerificationError("input hash mismatch")
    if transcript.get("factors_sha256") != sha256_of(cert["factors"]):
        raise VerificationError("factor hash mismatch")


def _check_symmetric_split(cert: dict) -> None:
    from .lattice import LatticeFn
    from .symmetric import check_axis_symmetry, check_even_symmetry
    from .words import EPSILON
    from .wreath import base_from_name

    base = base_from_name(cert["base"])
    decode = lambda raw: parse_word(base.alphabet, raw)
    fn = LatticeFn.from_json(cert["input"], zero=EPSILON, decode=decode)
    even = LatticeFn.from_json(cert["even_piece"], zero=EPSILON, decode=decode)
    axes = [LatticeFn.from_json(d, zero=EPSILON, decode=decode)
            for d in cert["axis_pieces"]]
    if not check_even_symmetry(even):
        raise VerificationError("even piece fails its mirror symmetry")
    for axis, piece in enumerate(axes):
        if not check_axis_symmetry(piece, axis):
            raise VerificationError(f"axis-{axis + 1} piece fails its mirror symmetry")
    gamma = base.decode_value(cert["gamma"])
    points = set(fn.support()) | set(even.support()) | {(0,) * fn.r}
    for piece in axes:
        points.update(piece.support())
    for point in points:
        value = gamma if all(c == 0 for c in point) else base.identity()
        value = base.multiply(value, base.evaluate(even[point]))
        for piece in axes:
            value = base.multiply(value, base.evaluate(piece[point]))
        if not base.equal(value, base.evaluate(fn[point])):
            raise VerificationError(f"pointwise product differs from input at {point}")


def _check_skew_split(cert: dict) -> None:
    from .lattice import LatticeFn, zero_fn
    from .skew import SkewPiece

    fn = LatticeFn.from_json(cert["input"])
    total = zero_fn(fn.r)
    for item in cert["pieces"]:
        piece = SkewPiece(LatticeFn.from_json(item["fn"]), tuple(item["two_center"]))
        if not piece.is_valid():
            raise VerificationError(f"piece about {piece.two_center} fails skew symmetry")
        total = total.add(piece.fn)
    if total != fn:
        raise VerificationError("pieces do not sum to the input")


def _check_two_pal(cert: dict) -> None:
    from .lamplighter import TwoPalDecomposition, two_palindrome_decision

    element = element_from_json(cert["input"])
    result = cert["result"]
    rerun = two_palindrome_decision(element, int(cert["p"]))
    if result["verdict"] == "decomposition":
        if not isinstance(rerun, TwoPalDecomposition):
            raise VerificationError("re-run decision found no decomposition")
    elif not isinstance(rerun, str):
        raise VerificationError("re-run decision found a decomposition")


def _check_width3(cert: dict) -> None:
    from .lamplighter import TwoPalDecomposition, two_palindrome_decision

    element = element_from_json(cert["input"])
    lo, hi = (int(c) for c in cert["scanned_p"])
    found = []
    for p in range(lo, hi + 1):
        claimed = cert["verdicts"][str(p)]["verdict"]
        rerun = two_palindrome_decision(element, p)
        actual = "decomposition" if isinstance(rerun, TwoPalDecomposition) else "none"
        if claimed != actual:
            raise VerificationError(f"verdict mismatch at p={p}")
        if actual == "decomposition":
            found.append(p)
    if cert["all_none"] != (not found):
        raise VerificationError("all_none flag does not match the verdict table")
    upper = cert["upper_factorization"]
    alphabet = element.ctx.alphabet
    factors = [parse_word(alphabet, text) for text in upper["factors"]]
    for w in factors:
        if not w.is_palindrome():
            raise VerificationError("upper factor is not a palindrome")
    if evaluate_word(element.ctx, concat(factors)) != element:
        raise VerificationError("upper factorization does not evaluate to the input")
    if upper["bound"] is not None and upper["count"] > upper["bound"]:
        raise VerificationError("upper factorization exceeds its bound")


def _check_min_length(cert: dict) -> None:
    from .lamplighter import minimal_palindromic_length_bfs

    element = element_from_json(cert["input"])
    rerun = minimal_palindromic_length_bfs(
        element, int(cert["max_len"]), int(cert["max_factors"]),
        max_states=int(cert.get("max_states", 2_000_000)))
    if rerun.status != cert["status"] or rerun.minimal != cert["minimal"]:
        raise VerificationError("re-run oracle disagrees with the certificate")
    if cert["status"] == "exact" and cert["minimal"]:
        alphabet = element.ctx.alphabet
        factors = [parse_word(alphabet, text) for text in cert["witness"]]
        if len(factors) != cert["minimal"]:
            raise VerificationError("witness length does not match the minimum")
        for w in factors:
            if not w.is_palindrome() or len(w) > int(cert["max_len"]):
                raise VerificationError("witness factor out of contract")
        if evaluate_word(element.ctx, concat(factors)) != element:
            raise VerificationError("witness does not evaluate to the input")


def _check_rewrite(cert: dict) -> None:
    from .words import Alphabet, free_equal

    alphabet = Alphabet(tuple(cert["alphabet"]))
    target = parse_word(alphabet, cert["target"])
    factors = [parse_word(alphabet, text) for text in cert["factors"]]
    for w in factors:
        if not w.is_palindrome():
            raise VerificationError("rewrite factor is not a palindrome")
    if not free_equal(concat(factors), target):
        raise VerificationError("rewrite product is not freely equal to the target")
    if cert["kind"] == "rewrite-conjugate" and \
            cert["count"] > cert["input_count"] + 1:
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
