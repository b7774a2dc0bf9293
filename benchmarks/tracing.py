"""Per-layer tracing from outside the program.

Each traced palwidth function is replaced, for the duration of a traced pass,
by a wrapper installed at the attribute where its calling module looks it up
(``palwidth.wreath_factor.evaluate_word``, ``palwidth.cli.factorize_wreath``,
``LatticeFn.grid_sum`` ...).  A wrapper records a span
``(name, start_ns, end_ns, parent, op_id)`` with the innermost open span as
parent, and may add per-op counts computed from the call's arguments and
result.  Spans stay in memory and are written out when the run ends.

When one function is called from several modules and the split matters, the
calling module is the last part of the span name
(``wreath.evaluate_word.wreath_factor`` vs ``wreath.evaluate_word.certificates``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable

CountHook = Callable[[tuple, object], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args: tuple, kwargs: dict,
             count: CountHook | None = None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)
        if count is not None:
            self.counts.update(count(args, result))
        return result

    def install(self, owner, attr: str, name: str, count: CountHook | None = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, count)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op_id}) + "\n")


def _n(key: str, value_of) -> CountHook:
    return lambda args, result: {key: value_of(args, result)}


def _letters_arg1(key):
    return _n(key, lambda a, r: len(a[1]))


def _factorization(args, result) -> dict:
    return {"wreath_factor.factors": len(result.factors),
            "wreath_factor.output_letters": sum(len(w) for w in result.factors)}


def _metabelian_factorization(args, result) -> dict:
    return {"metabelian_factor.factors": len(result.factors),
            "metabelian_factor.output_letters": sum(len(w) for w in result.factors)}


def _skew(args, result) -> dict:
    return {"skew.input_support": args[0].support_size(),
            "skew.pieces_support": sum(p.fn.support_size() for p in result)}


def instrument(tracer: Tracer, pw) -> None:
    """Install a wrapper at every traced call site of the palwidth modules in pw."""
    cert, cli, wf = pw.certificates, pw.cli, pw.wreath_factor
    ll, mf = pw.lamplighter, pw.metabelian_factor
    sites = [
        # words
        (cert, "parse_word", "words.parse_word", _n("words.parse_word.letters",
                                                    lambda a, r: len(r))),
        (cli, "parse_word", "words.parse_word", _n("words.parse_word.letters",
                                                   lambda a, r: len(r))),
        (cert, "format_word", "words.format_word", _letters_arg1("words.format_word.letters")),
        (cli, "format_word", "words.format_word", _letters_arg1("words.format_word.letters")),
        # wreath
        (wf, "evaluate_word", "wreath.evaluate_word.wreath_factor",
         _letters_arg1("wreath.evaluate_word.wreath_factor.letters")),
        (cert, "evaluate_word", "wreath.evaluate_word.certificates",
         _letters_arg1("wreath.evaluate_word.certificates.letters")),
        (ll, "evaluate_word", "wreath.evaluate_word.lamplighter", None),
        (ll, "multiply", "wreath.multiply.lamplighter", None),
        (ll, "invert", "wreath.invert.lamplighter", None),
        (cert, "element_from_json", "wreath.element_from_json", None),
        (cli, "element_from_json", "wreath.element_from_json", None),
        # symmetric
        (wf, "symmetric_split", "symmetric.symmetric_split",
         _n("symmetric.support_points", lambda a, r: a[0].support_size())),
        (wf, "symmetric_split_refined_r1", "symmetric.symmetric_split_refined_r1",
         _n("symmetric.support_points", lambda a, r: a[0].support_size())),
        # wreath_factor
        (wf, "build_snake", "wreath_factor.build_snake",
         _n("wreath_factor.box_points", lambda a, r: len(r.stops))),
        (wf, "inject", "wreath_factor.inject",
         _n("wreath_factor.inject.letters", lambda a, r: len(r))),
        (wf, "factorize_wreath", "wreath_factor.factorize", _factorization),
        (wf, "factorize_wreath_z", "wreath_factor.factorize", _factorization),
        (ll, "factorize_wreath_z", "wreath_factor.factorize", _factorization),
        (cli, "factorize_wreath", "wreath_factor.factorize", _factorization),
        (cli, "factorize_wreath_z", "wreath_factor.factorize", _factorization),
        # lamplighter
        (ll, "certify_width_three", "lamplighter.certify_width_three", None),
        (ll, "two_palindrome_decision", "lamplighter.two_palindrome_decision",
         _n("lamplighter.decompositions_found", lambda a, r: int(not isinstance(r, str)))),
        (ll, "minimal_palindromic_length_bfs", "lamplighter.minimal_palindromic_length_bfs",
         _n("lamplighter.oracle_palindromes", lambda a, r: r.palindromes)),
        (ll, "enumerate_palindromes", "lamplighter.enumerate_palindromes", None),
        # skew
        (mf, "skew_split_fixed_centers", "skew.skew_split_fixed_centers", _skew),
        # metabelian and lattice
        (mf, "evaluate_word_flow", "metabelian.evaluate_word_flow.metabelian_factor",
         _letters_arg1("metabelian.evaluate_word_flow.metabelian_factor.letters")),
        (cert, "evaluate_word_flow", "metabelian.evaluate_word_flow.certificates",
         _letters_arg1("metabelian.evaluate_word_flow.certificates.letters")),
        (mf, "circulation_to_squares", "metabelian.circulation_to_squares", None),
        (mf, "squares_to_element", "metabelian.squares_to_element", None),
        (pw.metabelian, "squares_to_element", "metabelian.squares_to_element", None),
        (pw.lattice.LatticeFn, "grid_sum", "lattice.grid_sum", None),
        # metabelian_factor
        (mf, "factorize_metabelian", "metabelian_factor.factorize_metabelian",
         _metabelian_factorization),
        (mf, "battlement_correct", "metabelian_factor.battlement_correct",
         _n("metabelian_factor.battlement_entries", lambda a, r: len(r[0].entries))),
        (mf, "palindromize_gridzero", "metabelian_factor.palindromize_gridzero", None),
        (mf, "palindromize_conjugated", "metabelian_factor.palindromize_conjugated", None),
        (mf, "palindromize_skew", "metabelian_factor.palindromize_skew", None),
        # certificates
        (cert, "wreath_certificate", "certificates.wreath_certificate", None),
        (cli, "wreath_certificate", "certificates.wreath_certificate", None),
        (cert, "metabelian_certificate", "certificates.metabelian_certificate", None),
        (cli, "metabelian_certificate", "certificates.metabelian_certificate", None),
        (cert, "verify_certificate", "certificates.verify_certificate", None),
        (cli, "verify_certificate", "certificates.verify_certificate", None),
        # cli
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, count in sites:
        tracer.install(owner, attr, name, count)


def span_stats(spans: list[tuple]) -> tuple[Counter, Counter]:
    """Per span name: number of spans, and total self time in ns (duration
    minus the time covered by direct children; children never overlap)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for k, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[k]
    return calls, self_ns


def child_calls(spans: list[tuple], name: str, parent_name: str) -> int:
    """Number of spans called `name` whose parent span is called `parent_name`."""
    return sum(1 for span in spans
               if span[0] == name and span[3] >= 0 and spans[span[3]][0] == parent_name)
