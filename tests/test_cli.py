import json
import subprocess
import sys

import pytest

from palwidth import cli, format_word, free_alphabet, parse_word
from palwidth.certificates import sha256_of

from gens import extra_dipole, swap_mirrored_letters, wrong_gamma

CLI = [sys.executable, "-m", "palwidth.cli"]

EXPECTED_TABLE = [
    "x     |  -7  -6  -5  -4  -3  -2  -1   0   1   2   3   4   5   6   7",
    "f(x)  |   0   0   0   3  -1   4   0   0   1   5   0   0   0   0   2",
    "g(x)  |   0  -2  -2   1   0   4  -1  -2  -1   4   0   1  -2  -2   0",
    "h(x)  |   0   2   2   2  -1   0   1   2   2   1   0  -1   2   2   2",
]
EXPECTED_W_G = "w_g = t^-6a^-2ta^-2tat^2a^4ta^-1ta^-2ta^-1ta^4t^2ata^-2ta^-2t^-6"
EXPECTED_W_H = "w_h = t^-6a^2ta^2ta^2ta^-1t^2ata^2ta^2tat^2a^-1ta^2ta^2ta^2t^-6"


def run(*args, check=True):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_demo_paper_byte_exact():
    proc = run("demo-paper")
    lines = proc.stdout.splitlines()
    for expected in EXPECTED_TABLE:
        assert expected in lines
    assert EXPECTED_W_G in lines
    assert EXPECTED_W_H in lines
    assert "tail = t^6" in lines
    assert all("FAIL" not in line for line in lines)


def test_factor_wreath_z_word(tmp_path):
    cert_path = tmp_path / "cert.json"
    run("factor", "wreath-z", "--word", "t a t a a t t", "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    assert cert["count"] <= 3
    assert cert["bound"] == 3
    # round trip through a separate verify invocation
    verify = run("verify", str(cert_path))
    assert verify.returncode == 0


def test_factor_wreath_general(tmp_path):
    element = {"base": "Zm:3", "r": 2, "shift": [1, -2],
               "fn": {"r": 2, "entries": [{"pos": [0, 0], "val": 1},
                                          {"pos": [2, -1], "val": 2}]}}
    infile = tmp_path / "element.json"
    infile.write_text(json.dumps(element))
    cert_path = tmp_path / "cert.json"
    run("factor", "wreath", "--in", str(infile), "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    assert cert["count"] <= cert["bound"] == 7
    run("verify", str(cert_path))


def test_factor_wreath_reduces_cyclic_values(tmp_path):
    # 4 is 1 in Z_3 and 3 is 0, so the element is one lamp at 0 and shift 1.
    element = {"base": "Zm:3", "r": 1, "shift": [1],
               "fn": {"r": 1, "entries": [{"pos": [0], "val": 4},
                                          {"pos": [2], "val": 3}]}}
    infile = tmp_path / "element.json"
    infile.write_text(json.dumps(element))
    cert_path = tmp_path / "cert.json"
    run("factor", "wreath", "--in", str(infile), "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    assert cert["input"]["fn"]["entries"] == [{"pos": [0], "val": 1}]
    run("verify", str(cert_path))


def test_factor_metabelian(tmp_path):
    cert_path = tmp_path / "cert.json"
    run("factor", "metabelian", "--word", "x1x2X1X2 x1^2", "--r", "2",
        "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    assert cert["bound"] == 93
    assert cert["count"] <= 93
    run("verify", str(cert_path))


def test_factor_metabelian_alternate_inputs(tmp_path):
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps({"r": 2, "word": "x1x2X1X2"}))
    squares_file = tmp_path / "squares.json"
    squares_file.write_text(json.dumps(
        {"r": 2, "squares": [{"pair": [1, 2],
                              "fn": {"r": 2, "entries": [{"pos": [0, 0], "val": 1}]}}]}))
    certs = []
    for source in (word_file, squares_file):
        out = tmp_path / (source.stem + ".cert.json")
        run("factor", "metabelian", "--in", str(source), "--out", str(out))
        certs.append(json.loads(out.read_text()))
    assert certs[0]["input"] == certs[1]["input"]
    assert certs[0]["factors"] == certs[1]["factors"]


def test_tampered_certificate_fails(tmp_path):
    cert_path = tmp_path / "cert.json"
    run("factor", "wreath-z", "--word", "a t a", "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["factors"][0] = "a"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    proc = run("verify", str(bad), check=False)
    assert proc.returncode == 2


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{not json")
    proc = run("verify", str(bad), check=False)
    assert proc.returncode == 1
    # usage errors are malformed input too, not verification failures
    proc = run("no-such-command", check=False)
    assert proc.returncode == 1
    proc = run("factor", "wreath-z", check=False)  # neither --in nor --word
    assert proc.returncode == 1


def _assert_one_line_error(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_malformed_wreath_entries(tmp_path):
    bad = tmp_path / "element.json"
    bad.write_text(json.dumps({"base": "Z", "r": 1, "shift": [0],
                               "fn": {"r": 1, "entries": 5}}))
    _assert_one_line_error(run("factor", "wreath", "--in", str(bad), check=False))


@pytest.mark.parametrize("edges", [7, [{"pos": [0, 0], "axis": 1, "val": 1}]])
def test_malformed_flow_edges(tmp_path, edges):
    # The second flow leaves the origin and never arrives at the shift.
    bad = tmp_path / "element.json"
    bad.write_text(json.dumps({"r": 2, "shift": [0, 0], "edges": edges}))
    _assert_one_line_error(run("factor", "metabelian", "--in", str(bad), check=False))


def _entries(*pairs):
    return [{"pos": list(pos), "val": val} for pos, val in pairs]


def test_duplicate_lattice_entry_rejected(tmp_path):
    # Keeping the last of two entries would certify the lamp value 2.
    bad = tmp_path / "element.json"
    bad.write_text(json.dumps({"base": "Z", "r": 1, "shift": [0],
                               "fn": {"r": 1, "entries": _entries(([0], 1), ([0], 2))}}))
    _assert_one_line_error(run("factor", "wreath", "--in", str(bad), check=False))


def test_duplicate_skew_input_entry_rejected(tmp_path):
    # Keeping the last entry would read -2 and report a hypothesis violation.
    bad = tmp_path / "fn.json"
    bad.write_text(json.dumps({"r": 1, "entries": _entries(([0], 2), ([0], -2))}))
    _assert_one_line_error(run("decompose", "skew", "--in", str(bad), "--mode", "half",
                               "--two-p", "0", check=False))


@pytest.mark.parametrize("element", [
    {"r": 2, "shift": [1, 0], "edges": [{"pos": [0, 0], "axis": 1, "val": 1}] * 2},
    {"r": 2, "squares": [{"pair": [1, 2], "fn": {"r": 2, "entries": _entries(([0, 0], 1))}}]
     * 2},
])
def test_duplicate_flow_input_rejected(tmp_path, element):
    bad = tmp_path / "element.json"
    bad.write_text(json.dumps(element))
    _assert_one_line_error(run("factor", "metabelian", "--in", str(bad), check=False))


@pytest.mark.parametrize("kind", ["wreath-factorization", "metabelian-factorization"])
def test_verify_rejects_repeated_input_entry(tmp_path, kind):
    cert = _certificate(tmp_path, kind)
    listed = (cert["input"]["fn"]["entries"] if kind == "wreath-factorization"
              else cert["input"]["edges"])
    listed.append(dict(listed[0]))
    cert["transcript"]["input_sha256"] = sha256_of(cert["input"])
    _assert_one_line_error(_verify_json(tmp_path, cert))


def test_certificate_that_is_a_list(tmp_path):
    bad = tmp_path / "cert.json"
    bad.write_text("[1,2]")
    _assert_one_line_error(run("verify", str(bad), check=False))


def test_hypothesis_violation_exit_code(tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"r": 1, "entries": [{"pos": [0], "val": 1}]}))
    proc = run("decompose", "skew", "--in", str(fn), "--mode", "half",
               "--two-p", "0", check=False)
    assert proc.returncode == 3


def test_decompose_symmetric(tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(
        {"r": 1, "entries": [{"pos": [-4], "val": 3}, {"pos": [-3], "val": -1},
                             {"pos": [-2], "val": 4}, {"pos": [1], "val": 1},
                             {"pos": [2], "val": 5}, {"pos": [7], "val": 2}]}))
    proc = run("decompose", "symmetric", "--in", str(fn), "--base", "Z", "--refined")
    data = json.loads(proc.stdout)
    assert data["gamma"] == 0
    even = {tuple(e["pos"]): e["val"] for e in data["even_piece"]["entries"]}
    assert even[(0,)] == "a^-2"


def test_decompose_symmetric_refined_needs_rank1(tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"r": 2, "entries": [{"pos": [1, 0], "val": 2}]}))
    _assert_one_line_error(run("decompose", "symmetric", "--in", str(fn), "--refined",
                               check=False))


@pytest.mark.parametrize("value, base", [(3, "free:a,b"), (2.5, "Z"), (True, "Z")])
def test_decompose_symmetric_rejects_malformed_values(tmp_path, value, base):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"r": 1, "entries": [{"pos": [1], "val": value}]}))
    _assert_one_line_error(run("decompose", "symmetric", "--in", str(fn), "--base", base,
                               check=False))


def test_decompose_skew_modes(tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"r": 1, "entries": [{"pos": [0], "val": 1},
                                                  {"pos": [2], "val": -1}]}))
    proc = run("decompose", "skew", "--in", str(fn), "--mode", "grid", "--p", "0")
    data = json.loads(proc.stdout)
    assert len(data["pieces"]) == 2
    proc = run("decompose", "skew", "--in", str(fn), "--mode", "fixed",
               "--two-c", "0")
    assert len(json.loads(proc.stdout)["pieces"]) == 2


@pytest.mark.parametrize("name, tamper, mode_args", [
    ("symmetric_split", wrong_gamma, ("symmetric", "--base", "Z")),
    ("skew_split_half", extra_dipole, ("skew", "--mode", "half", "--two-p", "1")),
    ("skew_split_grid", extra_dipole, ("skew", "--mode", "grid", "--p", "0")),
    ("skew_split_fixed_centers", extra_dipole, ("skew", "--mode", "fixed", "--two-c", "-1"))])
def test_decompose_never_writes_an_unchecked_split(tmp_path, monkeypatch, capsys,
                                                   name, tamper, mode_args):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"r": 1, "entries": [{"pos": [0], "val": 1},
                                                  {"pos": [2], "val": -1}]}))
    out = tmp_path / "split.json"
    monkeypatch.setattr(cli, name, tamper(getattr(cli, name)))
    code = cli.main(["decompose", mode_args[0], "--in", str(fn), *mode_args[1:],
                     "--out", str(out)])
    assert code == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_decide_two_pal():
    proc = run("decide-two-pal", "--word", "a t a a t t", "--p", "0")
    assert json.loads(proc.stdout)["result"]["verdict"] == "none"


def test_certify_width3():
    proc = run("certify-width3", "--word", "a t a a t t", "--scan-radius", "25")
    data = json.loads(proc.stdout)
    assert data["in_hypothesis"] is True
    assert data["all_none"] is True
    assert data["scanned_p"] == [-25, 28]
    assert data["upper_factorization"]["count"] <= 3


def test_width3_certificate_tampered_verdict_rejected(tmp_path):
    # Flip one verdict each way: none -> decomposition on the witness, and
    # decomposition -> none on a target that has two-palindrome products.
    for word in ("a t a a t t", "a t^2 a^3 t^-1 a"):
        cert_path = tmp_path / "cert.json"
        run("certify-width3", "--word", word, "--scan-radius", "6", "--out", str(cert_path))
        assert run("verify", str(cert_path), check=False).returncode == 0
        cert = json.loads(cert_path.read_text())
        found = cert["decompositions_found_at"]
        p = str(found[0]) if found else "0"
        flipped = "none" if found else "decomposition"
        cert["verdicts"][p]["verdict"] = flipped
        cert_path.write_text(json.dumps(cert))
        proc = run("verify", str(cert_path), check=False)
        assert proc.returncode == 2, (word, p, proc.stderr)


def test_width3_certificate_stepped_centers_negative_shift(tmp_path):
    # ({0:-1, 1:-1, 2:-1}, -3) decomposes at every center of [-4, 7].  The
    # scan solves -4, -3 and -2, the first center of each residue class mod
    # 3, and steps each later one; verify re-runs it in a fresh process.
    cert_path = tmp_path / "cert.json"
    run("certify-width3", "--word", "A t A t A t^-5", "--scan-radius", "4",
        "--out", str(cert_path))
    assert run("verify", str(cert_path), check=False).returncode == 0
    cert = json.loads(cert_path.read_text())
    assert cert["input"]["shift"] == [-3]
    assert cert["decompositions_found_at"] == list(range(-4, 8))
    for edit in ({"verdict": "none"}, {"q": 1}):
        tampered = json.loads(cert_path.read_text())
        tampered["verdicts"]["2"].update(edit)  # stepped from -1, which was from -4
        proc = _verify_json(tmp_path, tampered)
        assert proc.returncode == 2, (edit, proc.stderr)


def test_free_base_factors_one_per_run(tmp_path):
    cert_path = tmp_path / "cert.json"
    run("factor", "wreath", "--base", "free:a,b", "--word", "a b^1000 t a^-500",
        "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    # letter by letter this was 1 + 1000 + 1 + 500 = 1502 factors
    assert cert["count"] == len(cert["factors"]) == 4
    assert "b^1000" in cert["factors"]
    run("verify", str(cert_path))


def test_oracle_min_length():
    proc = run("oracle-min-length", "--word", "a t a a t t",
               "--max-len", "9", "--max-factors", "2")
    data = json.loads(proc.stdout)
    assert data["status"] == "exceeds-max-factors"
    assert data["minimal"] is None


def test_min_length_certificate_out_of_budget_verifies(tmp_path):
    cert_path = tmp_path / "cert.json"
    run("oracle-min-length", "--word", "a t a a t t", "--max-len", "9",
        "--max-factors", "4", "--max-states", "10", "--out", str(cert_path))
    cert = json.loads(cert_path.read_text())
    assert cert["status"] == "budget-exceeded"
    run("verify", str(cert_path))
    cert["max_states"] = 2_000_000  # the re-run now finishes: exact, 3
    proc = _verify_json(tmp_path, cert)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr


def test_min_length_certificate_with_lowered_budget_fails(tmp_path):
    cert = json.loads(run("oracle-min-length", "--word", "a t a a t t", "--max-len", "9",
                          "--max-factors", "4").stdout)
    assert (cert["status"], cert["minimal"]) == ("exact", 3)
    cert["max_states"] = 10  # the re-run runs out of budget
    proc = _verify_json(tmp_path, cert)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr


def test_rewrites():
    proc = run("rewrite", "commutator", "--g", "x1x2", "--b", "x3")
    data = json.loads(proc.stdout)
    assert data["factors"] == ["x1x2x3x2x1", "x1^-1x2^-2x1^-1", "x3^-1"]
    proc = run("rewrite", "conjugate", "--h", "x1", "x2", "x3x1x3")
    data = json.loads(proc.stdout)
    assert data["count"] <= data["input_count"] + 1


def test_verify_covers_every_certificate_kind(tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"r": 1, "entries": [{"pos": [0], "val": 1},
                                                  {"pos": [2], "val": -1}]}))
    frow = tmp_path / "frow.json"
    frow.write_text(json.dumps({"r": 1, "entries": [{"pos": [1], "val": 2}]}))
    outputs = []
    cases = [
        ("factor", "wreath-z", "--word", "t a t", "--out"),
        ("factor", "metabelian", "--word", "x1x2X1X2", "--r", "2", "--out"),
        ("decompose", "symmetric", "--in", str(frow), "--base", "Z", "--out"),
        ("decompose", "skew", "--in", str(fn), "--mode", "grid", "--p", "0", "--out"),
        ("decompose", "skew", "--in", str(fn), "--mode", "half", "--two-p", "1", "--out"),
        ("decompose", "skew", "--in", str(fn), "--mode", "fixed", "--two-c", "-1",
         "--out"),
        ("decide-two-pal", "--word", "a t a a t t", "--p", "0", "--out"),
        ("certify-width3", "--word", "a t", "--scan-radius", "4", "--out"),
        ("oracle-min-length", "--word", "a t", "--max-len", "3",
         "--max-factors", "2", "--out"),
        ("rewrite", "commutator", "--g", "x1", "--b", "x2", "--out"),
        ("rewrite", "conjugate", "--h", "x1", "x2", "--out"),
    ]
    for index, case in enumerate(cases):
        out = tmp_path / f"cert{index}.json"
        run(*case, str(out))
        outputs.append(out)
    for out in outputs:
        proc = run("verify", str(out), check=False)
        assert proc.returncode == 0, (out.read_text()[:200], proc.stderr)


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("factor", "wreath-z", "--word", "t a t a a t t", "--out", str(a))
    run("factor", "wreath-z", "--word", "t a t a a t t", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    first = run("demo-paper").stdout
    second = run("demo-paper").stdout
    assert first == second


def _certificate(tmp_path, kind):
    """One certificate of `kind`, made as test_verify_covers_every_certificate_kind
    makes it."""
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"r": 1, "entries": [{"pos": [0], "val": 1},
                                                  {"pos": [2], "val": -1}]}))
    frow = tmp_path / "frow.json"
    frow.write_text(json.dumps({"r": 1, "entries": [{"pos": [1], "val": 2}]}))
    args = {
        "wreath-factorization": ("factor", "wreath-z", "--word", "t a t"),
        "metabelian-factorization": ("factor", "metabelian", "--word", "x1x2X1X2",
                                     "--r", "2"),
        "symmetric-split": ("decompose", "symmetric", "--in", str(frow), "--base", "Z"),
        "skew-split": ("decompose", "skew", "--in", str(fn), "--mode", "grid", "--p", "0"),
        "two-pal-decision": ("decide-two-pal", "--word", "a t a a t t", "--p", "0"),
        "width3-certificate": ("certify-width3", "--word", "a t", "--scan-radius", "4"),
        "min-length": ("oracle-min-length", "--word", "a t", "--max-len", "3",
                       "--max-factors", "2"),
        "rewrite-commutator": ("rewrite", "commutator", "--g", "x1", "--b", "x2"),
        "rewrite-conjugate": ("rewrite", "conjugate", "--h", "x1", "x2"),
    }[kind]
    cert = json.loads(run(*args).stdout)
    assert cert["kind"] == kind
    return cert


def _verify_json(tmp_path, cert):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cert))
    return run("verify", str(path), check=False)


def _tamper(kind, cert):
    """One semantic edit of the certificate that `palwidth verify` must reject."""
    if kind == "wreath-factorization":
        cert["count"] += 1  # the factor list and its hash are untouched
    elif kind == "metabelian-factorization":
        cert["factors"][0] += "x1"
    elif kind == "symmetric-split":
        cert["gamma"] += 1
    elif kind == "skew-split":
        piece = next(p for p in cert["pieces"] if p["fn"]["entries"])
        piece["fn"]["entries"][0]["val"] += 1
    elif kind == "two-pal-decision":
        cert["result"]["verdict"] = "decomposition"
    elif kind == "width3-certificate":
        cert["verdicts"]["0"]["g"] = {"r": 1, "entries": [{"pos": [0], "val": 99}]}
    elif kind == "min-length":
        cert["minimal"] += 1
    elif kind == "rewrite-commutator":
        cert["factors"][0:1] = ["x1x2", "x1"]  # same product, not palindromes
    else:
        cert["factors"][0] = "x1x2"


@pytest.mark.parametrize("kind, edit", [
    *(pytest.param(kind, None, id=kind)
      for kind in ["wreath-factorization", "metabelian-factorization",
                   "symmetric-split", "skew-split", "two-pal-decision",
                   "width3-certificate", "min-length",
                   "rewrite-commutator", "rewrite-conjugate"]),
    # a count that disagrees with the factors, which are untouched
    pytest.param("rewrite-commutator", {"count": 99}, id="rewrite-commutator-count"),
    pytest.param("rewrite-conjugate", {"count": 0}, id="rewrite-conjugate-count"),
])
def test_verify_rejects_tampered_certificate_of_every_kind(tmp_path, kind, edit):
    cert = _certificate(tmp_path, kind)
    if edit is None:
        _tamper(kind, cert)
    else:
        cert.update(edit)
    proc = _verify_json(tmp_path, cert)
    assert proc.returncode == 2, proc.stderr


def test_verify_rejects_palindrome_preserving_tamper(tmp_path):
    # the longest factor is a skew palindrome G reverse(G); swapping two letters
    # of G and their mirrors keeps it a palindrome with the same shift, so only
    # the product's edges show the change
    cert = json.loads(run("factor", "metabelian", "--word", "x1x2X1X2 x2^3x1x2X1X2",
                          "--r", "2").stdout)
    assert _verify_json(tmp_path, cert).returncode == 0
    index = max(range(len(cert["factors"])), key=lambda i: len(cert["factors"][i]))
    alphabet = free_alphabet(2)
    tampered = swap_mirrored_letters(parse_word(alphabet, cert["factors"][index]))
    assert tampered.is_palindrome()
    cert["factors"][index] = format_word(alphabet, tampered)
    cert["transcript"]["factors_sha256"] = sha256_of(cert["factors"])
    proc = _verify_json(tmp_path, cert)
    assert proc.returncode == 2, proc.stderr
    assert "does not evaluate to the target" in proc.stderr


def test_verify_checks_what_a_decomposition_says(tmp_path):
    proc = run("decide-two-pal", "--word", "a t^2 a^3 t^-1 a", "--p", "0")
    cert = json.loads(proc.stdout)
    assert cert["result"]["verdict"] == "decomposition"
    assert _verify_json(tmp_path, cert).returncode == 0
    cert["result"]["words"] = ["a", "a"]
    assert _verify_json(tmp_path, cert).returncode == 2

    cert = json.loads(run("certify-width3", "--word", "a t a a t t",
                          "--scan-radius", "6").stdout)
    upper = cert["upper_factorization"]
    assert upper["count"] == upper["bound"] == 3
    for edit in ({"count": 1}, {"bound": 1}, {"count": 1, "bound": 1}):
        cert["upper_factorization"] = {**upper, **edit}
        assert _verify_json(tmp_path, cert).returncode == 2, edit


def _witness_certificate(radius):
    """The certificate of the width-3 witness ({0:2, 1:5}, 3)."""
    cert = json.loads(run("certify-width3", "--word", "a^2 t a^5 t^2",
                          "--scan-radius", str(radius)).stdout)
    assert cert["in_hypothesis"] and cert["all_none"]
    return cert


@pytest.mark.parametrize("edit", [
    pytest.param(lambda cert: cert.update(decompositions_found_at=[1, 2]), id="found-at"),
    pytest.param(lambda cert: cert.update(in_hypothesis=False), id="in-hypothesis"),
    pytest.param(lambda cert: cert["verdicts"].update({"99": cert["verdicts"]["0"]}),
                 id="verdict-outside-scan"),
])
def test_verify_rejects_false_width3_claims(tmp_path, edit):
    cert = _witness_certificate(4)
    assert _verify_json(tmp_path, cert).returncode == 0
    edit(cert)
    proc = _verify_json(tmp_path, cert)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


def test_verify_rederives_found_centers(tmp_path):
    cert = json.loads(run("certify-width3", "--word", "a t^2 a^3 t^-1 a",
                          "--scan-radius", "6").stdout)
    found = cert["decompositions_found_at"]
    assert len(found) >= 2 and _verify_json(tmp_path, cert).returncode == 0
    for claimed in (found[1:], found[::-1], found + [found[-1] + 1]):
        cert["decompositions_found_at"] = claimed
        assert _verify_json(tmp_path, cert).returncode == 2, claimed


MISSING = object()  # a field value that deletes the field


@pytest.mark.parametrize("kind, field, value", [
    ("two-pal-decision", "result", [1]),
    ("width3-certificate", "scanned_p", 5),
    ("skew-split", "pieces", [1]),
    ("symmetric-split", "axis_pieces", 5),
    ("min-length", "witness", 5),
    ("rewrite-commutator", "factors", 5),
    ("min-length", "minimal", "1"),
    ("width3-certificate", "all_none", "yes"),
    ("width3-certificate", "decompositions_found_at", "x"),
    ("width3-certificate", "decompositions_found_at", [1.5]),
    ("width3-certificate", "in_hypothesis", 0),
    pytest.param("min-length", "status", MISSING, id="min-length-status-missing"),
])
def test_malformed_certificate_field(tmp_path, kind, field, value):
    cert = _certificate(tmp_path, kind)
    if value is MISSING:
        del cert[field]
    else:
        cert[field] = value
    proc = _verify_json(tmp_path, cert)
    _assert_one_line_error(proc)
    if value is MISSING:
        assert f"has no {field!r} field" in proc.stderr


def test_certify_width3_rejects_negative_scan_radius():
    # A negative radius once gave the empty range [5, -2], a vacuous
    # all-none verdict table and a certificate that verified.
    _assert_one_line_error(run("certify-width3", "--word", "a t^3 A",
                               "--scan-radius", "-5", check=False))


def test_verify_rejects_empty_width3_scan(tmp_path):
    cert = _certificate(tmp_path, "width3-certificate")
    cert.update(scanned_p=[5, -2], verdicts={}, decompositions_found_at=[], all_none=True)
    _assert_one_line_error(_verify_json(tmp_path, cert))


def test_demo_paper_scan_radius_zero_scans_radius_zero():
    lines = run("demo-paper", "--scan-radius", "0").stdout.splitlines()
    assert ("width-3 witness ({0:1, 1:2}, 3): scanned p in [0, 3], "
            "no two-palindrome decomposition") in lines


@pytest.mark.parametrize("flag, field", [("--max-len", "max_len"),
                                         ("--max-factors", "max_factors"),
                                         ("--max-states", "max_states")])
def test_negative_oracle_budget_rejected(tmp_path, flag, field):
    budgets = {"--max-len": "3", "--max-factors": "2", "--max-states": "100"}
    budgets[flag] = "-1"
    args = [arg for item in budgets.items() for arg in item]
    _assert_one_line_error(run("oracle-min-length", "--word", "a t", *args, check=False))
    cert = _certificate(tmp_path, "min-length")
    cert[field] = -1
    _assert_one_line_error(_verify_json(tmp_path, cert))
