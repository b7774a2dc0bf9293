"""Command-line front end: factorizers, decompositions, the two-palindrome
decision scan, the exhaustive oracle, rewrites, certificate verification,
and the worked lamplighter demonstration.

Exit codes: 0 success, 1 malformed input, 2 verification failure,
3 hypothesis violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certificates import (TOOL, decomposition_json, metabelian_certificate,
                           verify_certificate, wreath_certificate)
from .errors import BudgetExceeded, HypothesisViolation, VerificationError
from .lamplighter import (certify_width_three, lamp_element,
                          minimal_palindromic_length_bfs, two_palindrome_decision)
from .lattice import (LatticeFn, json_field, json_int, json_list, json_object,
                      json_point, json_str)
from .identities import commutator_three_palindromes, conjugate_factorization
from .metabelian import evaluate_word_flow, flow_from_json, free_alphabet
from .metabelian_factor import factorize_metabelian
from .skew import check_pieces, skew_split_fixed_centers, skew_split_grid, skew_split_half
from .symmetric import check_split, symmetric_split, symmetric_split_refined_r1
from .words import Alphabet, EPSILON, format_word, parse_word
from .wreath import (WreathContext, base_from_name, element_from_json,
                     element_to_json, evaluate_word)
from .wreath_factor import factorize_wreath, factorize_wreath_z


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _read_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_wreath_element(args):
    if args.infile:
        return element_from_json(_read_json(args.infile))
    if args.word is not None:
        base = base_from_name(args.base)
        ctx = WreathContext(base, args.r)
        return evaluate_word(ctx, parse_word(ctx.alphabet, args.word))
    raise ValueError("need --in or --word")


def _load_flow_element(args):
    if args.infile:
        data = json_object(_read_json(args.infile), "flow element")
        if "word" in data:
            r = json_int(data.get("r"), "rank")
            word = parse_word(free_alphabet(r), json_str(data["word"], "word"))
            return evaluate_word_flow(r, word)
        if "squares" in data:
            from .metabelian import SquareCoeffs, squares_to_element

            r = json_int(data.get("r"), "rank")
            coeffs = {}
            for item in json_list(data["squares"], "squares"):
                item = json_object(item, "square")
                i, j = json_point(json_field(item, "pair", "square"), "pair")
                if (i - 1, j - 1) in coeffs:
                    raise ValueError(f"duplicate square for pair {[i, j]}")
                coeffs[(i - 1, j - 1)] = LatticeFn.from_json(json_field(item, "fn", "square"))
            return squares_to_element(SquareCoeffs(r, coeffs))
        return flow_from_json(data)
    if args.word is not None:
        return evaluate_word_flow(args.r, parse_word(free_alphabet(args.r), args.word))
    raise ValueError("need --in or --word")


def _parse_vector(text: str, r: int) -> tuple[int, ...]:
    parts = [int(x) for x in text.replace(",", " ").split()]
    if len(parts) != r:
        raise ValueError(f"vector {text!r} should have {r} coordinates")
    return tuple(parts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_factor_wreath(args) -> int:
    element = _load_wreath_element(args)
    fact = (factorize_wreath_z if args.variant == "wreath-z"
            else factorize_wreath)(element)
    cert = wreath_certificate(element, fact,
                              {"command": f"factor {args.variant}"})
    _emit(cert, args.out)
    _log(f"{fact.count} palindromic factors (bound {fact.bound})")
    return 0


def cmd_factor_metabelian(args) -> int:
    element = _load_flow_element(args)
    fact = factorize_metabelian(element)
    cert = metabelian_certificate(element, fact, {"command": "factor metabelian"})
    _emit(cert, args.out)
    _log(f"{fact.count} palindromic factors (bound {fact.bound})")
    return 0


def cmd_decompose_symmetric(args) -> int:
    base = base_from_name(args.base)
    data = _read_json(args.infile)
    alphabet = base.alphabet

    def decode(raw):
        if isinstance(raw, str):
            return parse_word(alphabet, raw)
        return base.canonical_word(base.decode_value(raw))

    fn = LatticeFn.from_json(data, zero=EPSILON, decode=decode)
    split = (symmetric_split_refined_r1 if args.refined else symmetric_split)(fn, base)
    check_split(fn, base, split)
    encode = lambda w: format_word(alphabet, w)
    _emit({
        "kind": "symmetric-split",
        "tool": TOOL,
        "base": base.name,
        "input": fn.to_json(encode),
        "gamma": base.encode_value(split.gamma),
        "even_piece": split.f0.to_json(encode),
        "axis_pieces": [piece.to_json(encode) for piece in split.fi],
    }, args.out)
    return 0


def cmd_decompose_skew(args) -> int:
    fn = LatticeFn.from_json(_read_json(args.infile))
    if args.mode == "half":
        if args.two_p is None:
            raise ValueError("--two-p required for mode half")
        pieces = skew_split_half(fn, _parse_vector(args.two_p, fn.r))
    elif args.mode == "grid":
        if args.p is None:
            raise ValueError("--p required for mode grid")
        pieces = skew_split_grid(fn, _parse_vector(args.p, fn.r))
    else:
        if args.two_c is None:
            raise ValueError("--two-c required for mode fixed")
        pieces = skew_split_fixed_centers(fn, _parse_vector(args.two_c, fn.r))
    check_pieces(fn, pieces, f"{args.mode} split")
    _emit({
        "kind": "skew-split",
        "tool": TOOL,
        "mode": args.mode,
        "input": fn.to_json(),
        "pieces": [{"two_center": list(p.two_center), "fn": p.fn.to_json()}
                   for p in pieces],
    }, args.out)
    return 0


def cmd_decide_two_pal(args) -> int:
    element = _load_wreath_element(args)
    result = two_palindrome_decision(element, args.p)
    _emit({
        "kind": "two-pal-decision",
        "tool": TOOL,
        "input": element_to_json(element),
        "p": args.p,
        "result": decomposition_json(result),
    }, args.out)
    return 0


def cmd_certify_width3(args) -> int:
    element = _load_wreath_element(args)
    witness = certify_width_three(element, args.scan_radius)
    alphabet = element.ctx.alphabet
    upper = [format_word(alphabet, w) for w in witness.upper.factors]
    _emit({
        "kind": "width3-certificate",
        "tool": TOOL,
        "input": element_to_json(element),
        "scanned_p": list(witness.p_range),
        "note": ("the scan is exhaustive over the stated finite range only; "
                 "no claim is made about centers outside it"),
        "in_hypothesis": witness.in_hypothesis,
        "all_none": witness.all_none,
        "decompositions_found_at": witness.found(),
        "upper_factorization": {"factors": upper, "count": witness.upper.count,
                                "bound": witness.upper.bound},
        "verdicts": {str(p): decomposition_json(v)
                     for p, v in sorted(witness.verdicts.items())},
    }, args.out)
    _log(f"scanned p in [{witness.p_range[0]}, {witness.p_range[1]}]: "
         f"{'all NONE' if witness.all_none else 'decompositions found'}")
    return 0


def cmd_oracle_min_length(args) -> int:
    element = _load_wreath_element(args)
    cert = {
        "kind": "min-length",
        "tool": TOOL,
        "input": element_to_json(element),
        "max_len": args.max_len,
        "max_factors": args.max_factors,
        "max_states": args.max_states,
    }
    try:
        result = minimal_palindromic_length_bfs(element, args.max_len,
                                                args.max_factors,
                                                max_states=args.max_states)
    except BudgetExceeded as exc:
        _emit({**cert, "status": "budget-exceeded", "minimal": None, "detail": str(exc)},
              args.out)
        return 0
    alphabet = element.ctx.alphabet
    _emit({
        **cert,
        "status": result.status,
        "minimal": result.minimal,
        "witness": [format_word(alphabet, w) for w in result.witness],
    }, args.out)
    return 0


def _rewrite_alphabet(args) -> Alphabet:
    return Alphabet(tuple(args.alphabet.split(",")))


def cmd_rewrite_commutator(args) -> int:
    alphabet = _rewrite_alphabet(args)
    g = parse_word(alphabet, args.g)
    b = parse_word(alphabet, args.b)
    result = commutator_three_palindromes(g, b)
    _emit({
        "kind": "rewrite-commutator",
        "tool": TOOL,
        "alphabet": list(alphabet.names),
        "target": format_word(alphabet, result.target),
        "factors": [format_word(alphabet, w) for w in result.factors],
        "count": result.count,
    }, args.out)
    return 0


def cmd_rewrite_conjugate(args) -> int:
    alphabet = _rewrite_alphabet(args)
    h = parse_word(alphabet, args.h)
    factors = [parse_word(alphabet, text) for text in args.factors]
    result = conjugate_factorization(h, factors)
    _emit({
        "kind": "rewrite-conjugate",
        "tool": TOOL,
        "alphabet": list(alphabet.names),
        "target": format_word(alphabet, result.target),
        "factors": [format_word(alphabet, w) for w in result.factors],
        "count": result.count,
        "input_count": len(factors),
    }, args.out)
    return 0


def cmd_verify(args) -> int:
    cert = _read_json(args.certificate)
    verify_certificate(cert)
    _log("certificate verifies")
    return 0


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

DEMO_F = {-4: 3, -3: -1, -2: 4, 1: 1, 2: 5, 7: 2}
DEMO_SHIFT = 7


def cmd_demo(args) -> int:
    element = lamp_element(DEMO_F, DEMO_SHIFT)
    base = element.ctx.base
    words_fn = element.fn.map_values(base.canonical_word, zero=EPSILON)
    split = symmetric_split_refined_r1(words_fn, base)
    g_row = {p[0]: base.evaluate(w) for p, w in split.f0.items()}
    h_row = {p[0]: base.evaluate(w) for p, w in split.fi[0].items()}

    lines = ["== lamplighter example: (f, 7) as three palindromes =="]
    span = range(-7, 8)
    lines.append("x     | " + " ".join(f"{x:3d}" for x in span))
    for label, row in (("f", DEMO_F), ("g", g_row), ("h", h_row)):
        lines.append(f"{label}(x)  | " + " ".join(f"{row.get(x, 0):3d}" for x in span))

    fact = factorize_wreath_z(element)
    alphabet = element.ctx.alphabet
    w_g, w_h, tail = fact.factors
    lines.append(f"w_g = {format_word(alphabet, w_g)}")
    lines.append(f"w_h = {format_word(alphabet, w_h)}")
    lines.append(f"tail = {format_word(alphabet, tail)}")

    checks = [
        ("w_g evaluates to (g, 0)",
         evaluate_word(element.ctx, w_g) == lamp_element(g_row, 0)),
        ("w_h evaluates to (h, 1)",
         evaluate_word(element.ctx, w_h) == lamp_element(h_row, 1)),
        ("w_g w_h tail evaluates to (f, 7)",
         evaluate_word(element.ctx, w_g * w_h * tail) == element),
        ("all three factors are palindromes",
         all(w.is_palindrome() for w in fact.factors)),
    ]
    for label, ok in checks:
        lines.append(f"{label}: {'ok' if ok else 'FAIL'}")
    if not all(ok for _, ok in checks):
        raise VerificationError("demonstration checks failed")

    witness_target = lamp_element({0: 1, 1: 2}, 3)
    radius = 25 if args.scan_radius is None else args.scan_radius
    witness = certify_width_three(witness_target, scan_radius=radius)
    lines.append(f"width-3 witness ({{0:1, 1:2}}, 3): scanned p in "
                 f"[{witness.p_range[0]}, {witness.p_range[1]}], "
                 f"{'no two-palindrome decomposition' if witness.all_none else 'FAIL'}")
    lines.append(f"upper bound: {witness.upper.count} palindromic factors")
    if not witness.all_none:
        raise VerificationError("width-3 scan unexpectedly found a decomposition")

    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_element_args(parser) -> None:
    parser.add_argument("--in", dest="infile", help="element JSON file")
    parser.add_argument("--word", help="word to evaluate instead of --in")
    parser.add_argument("--base", default="Z",
                        help="base group (Z, Zm:<m> or free:<gens>)")
    parser.add_argument("--r", type=int, default=1,
                        help="lattice rank when using --word")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (malformed input); 2 is reserved for verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="palwidth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    factor = sub.add_parser("factor", help="palindromic factorizations")
    factor_sub = factor.add_subparsers(dest="variant", required=True)
    for variant in ("wreath", "wreath-z"):
        p = factor_sub.add_parser(variant)
        _add_element_args(p)
        p.add_argument("--out", help="certificate output path")
        p.set_defaults(func=cmd_factor_wreath)
    p = factor_sub.add_parser("metabelian")
    p.add_argument("--in", dest="infile", help="flow-element JSON file")
    p.add_argument("--word", help="word over x1..xr to evaluate")
    p.add_argument("--r", type=int, default=2, help="rank when using --word")
    p.add_argument("--out")
    p.set_defaults(func=cmd_factor_metabelian)

    decomp = sub.add_parser("decompose", help="symmetry decompositions")
    decomp_sub = decomp.add_subparsers(dest="mode_group", required=True)
    p = decomp_sub.add_parser("symmetric")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--base", default="Z")
    p.add_argument("--refined", action="store_true",
                   help="rank-1 variant that absorbs one palindrome into the origin")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose_symmetric)
    p = decomp_sub.add_parser("skew")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=("half", "grid", "fixed"), required=True)
    p.add_argument("--two-p", help="doubled center for mode half")
    p.add_argument("--p", help="integer center for mode grid")
    p.add_argument("--two-c", help="doubled center for mode fixed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose_skew)

    p = sub.add_parser("decide-two-pal",
                       help="exact two-palindrome decision at one center")
    _add_element_args(p)
    p.add_argument("--p", type=int, required=True, help="left factor shift")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decide_two_pal)

    p = sub.add_parser("certify-width3", help="scan all centers in a range")
    _add_element_args(p)
    p.add_argument("--scan-radius", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify_width3)

    p = sub.add_parser("oracle-min-length",
                       help="exhaustive minimal palindrome count")
    _add_element_args(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-factors", type=int, required=True)
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle_min_length)

    rewrite = sub.add_parser("rewrite", help="free-group palindromic rewrites")
    rewrite_sub = rewrite.add_subparsers(dest="identity", required=True)
    p = rewrite_sub.add_parser("commutator")
    p.add_argument("--alphabet", default="x1,x2,x3")
    p.add_argument("--g", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rewrite_commutator)
    p = rewrite_sub.add_parser("conjugate")
    p.add_argument("--alphabet", default="x1,x2,x3")
    p.add_argument("--h", required=True)
    p.add_argument("factors", nargs="+", help="palindromic factor words")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rewrite_conjugate)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo-paper", help="worked example and width-3 scan")
    p.add_argument("--scan-radius", type=int, default=None)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        _log(f"hypothesis violation: {exc}")
        return 3
    except VerificationError as exc:
        _log(f"verification failure: {exc}")
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
