"""The benchmark's traced mode (`benchmarks/run.py --trace 1`) wraps palwidth
functions at the attributes where their callers look them up.  These tests
read `benchmarks/` and change nothing there: they fail when a refactor
deletes a wrapped attribute, or when a caller stops looking one up."""

import ast
import importlib
import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

from gens import random_flow_element

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCHMARKS / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _palwidth_modules():
    """The namespace `benchmarks/run.py` hands to `tracing.instrument`."""
    tree = ast.parse((BENCHMARKS / "run.py").read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "MODULES" for t in node.targets))
    return SimpleNamespace(**{m: importlib.import_module(f"palwidth.{m}") for m in names})


def test_instrument_installs_and_uninstalls_every_site():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, _palwidth_modules())
        installed = list(tracer._installed)
        assert installed
        for owner, attr, original in installed:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    first = {}
    for owner, attr, original in installed:
        first.setdefault((owner, attr), original)
    for (owner, attr), original in first.items():
        assert getattr(owner, attr) is original


def test_traced_spans_keep_their_caller_names():
    tracing = _tracing()
    pw = _palwidth_modules()
    ctx = pw.wreath.WreathContext(pw.wreath.IntegerGroup(), 2)
    # symmetric about the origin, so the split is one even piece of box radius 2
    grid = pw.wreath.make_element(ctx, {(1, 2): 3, (-1, -2): 3}, (0, 0))
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, pw)
        pw.wreath_factor.factorize_wreath(grid)
        snake_spans = [span[0] for span in tracer.spans]
        box_points = tracer.counts["wreath_factor.box_points"]
        lamps = pw.lamplighter.lamp_element({0: 3, 2: -5}, 4)
        flow = random_flow_element(random.Random(1), 2, 2, 3, 2)
        for element, factorize, certify in (
                (lamps, pw.wreath_factor.factorize_wreath_z,
                 pw.certificates.wreath_certificate),
                (flow, pw.metabelian_factor.factorize_metabelian,
                 pw.certificates.metabelian_certificate)):
            cert = certify(element, factorize(element), {})
            pw.certificates.verify_certificate(cert)
        # ({-5: -1, 7: -1}, 4) is (g, p)(h, 4 - p) at 3 of the centers -3..7
        width3_start = len(tracer.spans)
        scan = pw.lamplighter.certify_width_three(
            pw.lamplighter.lamp_element({-5: -1, 7: -1}, 4), scan_radius=3)
        width3_spans = [span[0] for span in tracer.spans[width3_start:]]
        width3_found = tracer.counts["lamplighter.decompositions_found"]
    finally:
        tracer.uninstall()
    spans = [span[0] for span in tracer.spans[:width3_start]]
    names = set(spans)
    assert {"wreath.evaluate_word.wreath_factor", "wreath.evaluate_word.certificates",
            "metabelian.evaluate_word_flow.metabelian_factor",
            "metabelian.evaluate_word_flow.certificates"} <= names
    assert snake_spans.count("wreath_factor.build_snake") == 1
    assert snake_spans.count("wreath_factor.inject") == 1
    assert box_points == 5 * 5
    # one split per factorization: the rank-2 grid, then the rank-1 lamps
    assert spans.count("symmetric.symmetric_split") == 1
    assert spans.count("symmetric.symmetric_split_refined_r1") == 1
    # the scan solves the first passing center of each residue class mod 4
    # through the wrapped decision and steps the later ones; each passing
    # center's product is checked on lamp dicts, not by the wrapped multiply
    passing = scan.found()
    starts = [p for p in passing if p - 4 not in passing]
    assert passing == [-2, 2, 6] and starts == [-2]
    assert width3_found == len(starts)
    assert width3_spans.count("lamplighter.certify_width_three") == 1
    assert width3_spans.count("lamplighter.two_palindrome_decision") == len(starts)
    assert width3_spans.count("wreath.multiply.lamplighter") == 0
