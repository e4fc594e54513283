import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal

import pytest

from danielewski import (GF, QQ, IsoCertificate, build_stable_iso, cancel, canonical_expmap,
                         cli, decide_isomorphism, resultant)
from danielewski.cli import main, paper_examples
from danielewski.errors import UnknownVariableError, VerificationInternalError
from danielewski.jsonio import (dumps, expmap_to_doc, iso_to_doc, stable_to_doc,
                                surface_to_doc)
from danielewski.parsing import MAX_CONSTANT_BITS, MAX_NESTING
from danielewski.reports import VerificationReport

from conftest import D_ODD_PRIMES, surf, swinnerton_dyer


@pytest.fixture()
def ex45_path(tmp_path):
    path = tmp_path / "ex45.json"
    path.write_text(dumps(surface_to_doc(surf(GF(2), "X^2+X", "Z^2"))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_surface_info(capsys):
    code, out, _ = run(capsys, "surface", "info", "--field", "Q",
                       "--f", "X^3-X^2", "--phi", "Z^2+1")
    assert code == 0
    assert "r = 3, d = 2" in out and "multiplicities {1, 2}" in out


def test_surface_info_rejects_bad_input(capsys):
    code, _, err = run(capsys, "surface", "info", "--field", "Q",
                       "--f", "2*X^2", "--phi", "Z^2+1")
    assert code == 2 and "monic" in err


def test_iso_decide_exit_codes(capsys, tmp_path, ex45_path):
    code, out, _ = run(capsys, "iso", "decide", "--left", ex45_path,
                       "--right", ex45_path)
    assert code == 0 and "2 certificate(s)" in out
    other = tmp_path / "other.json"
    other.write_text(dumps(surface_to_doc(surf(GF(2), "X^2*(X+1)", "Z^2"))))
    code, out, _ = run(capsys, "iso", "decide", "--left", ex45_path,
                       "--right", str(other))
    assert code == 1 and "not isomorphic" in out
    code, _, err = run(capsys, "iso", "decide", "--left", ex45_path,
                       "--right", str(tmp_path / "missing.json"))
    assert code == 2


def test_iso_decide_field_mismatch(capsys, tmp_path, ex45_path):
    other = tmp_path / "q.json"
    other.write_text(dumps(surface_to_doc(surf(QQ, "X^3-X^2", "Z^2+1"))))
    code, _, err = run(capsys, "iso", "decide", "--left", ex45_path,
                       "--right", str(other))
    assert code == 2 and "F2" in err and "Q" in err


def test_iso_decide_cap(capsys, ex45_path):
    code, _, err = run(capsys, "iso", "decide", "--left", ex45_path,
                       "--right", ex45_path, "--cap", "1")
    assert code == 3 and "cap" in err


def test_iso_decide_cap_covers_a_free_lambda(capsys, tmp_path):
    # over F_1009 every lambda transports f = X^2 onto itself: 1008 candidates
    path = tmp_path / "free.json"
    path.write_text(dumps(surface_to_doc(surf(GF(1009), "X^2", "Z^2+1"))))
    code, out, err = run(capsys, "iso", "decide", "--left", str(path),
                         "--right", str(path), "--cap", "500")
    assert code == 3 and out == "" and "1008" in err and "cap is 500" in err


def test_surface_info_refuses_a_recombination_past_the_bound(capsys):
    f_text = str(swinnerton_dyer((2, 3, 5, 7, 11)))
    code, out, err = run(capsys, "surface", "info", "--field", "Q",
                         "--f", f_text, "--phi", "Z^2+1")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: search needs 2516 candidates, cap is 1024"]


def test_iso_decide_answers_without_factoring_past_the_bound(capsys, tmp_path):
    # the same f, but the decision finds (lambda, mu) = (1, 0) and so never
    # needs f factored
    path = tmp_path / "sd.json"
    spec = surf(QQ, str(swinnerton_dyer((2, 3, 5, 7, 11))), "Z^2 + X")
    path.write_text(dumps(surface_to_doc(spec)))
    code, out, _ = run(capsys, "iso", "decide", "--left", str(path), "--right", str(path),
                       "--json")
    assert code == 0
    assert [c["gamma"] for c in json.loads(out)["certificates"]] == ["-1", "1"]


@pytest.mark.parametrize("field, f, expect", [
    ("F2147483647", "X^2+1", "factor degrees {2}"),
    ("Q", "X^2 - 2^200", "fiber over x = 1267650600228229401496703205376:"),
    ("Q", f"X^3 - {D_ODD_PRIMES}", "factor degrees {3}"),
], ids=["large-prime", "big-square", "odd-primorial"])
def test_surface_info_large_inputs(field, f, expect):
    """Bounded work on large inputs; a separate process, so a regression
    fails at the timeout instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "danielewski", "surface", "info",
                           "--field", field, "--f", f, "--phi", "Z^2+X"],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_iso_decide_infinite_family(capsys, tmp_path):
    path = tmp_path / "sq.json"
    path.write_text(dumps(surface_to_doc(surf(QQ, "X^2", "Z^2+1"))))
    code, out, _ = run(capsys, "iso", "decide", "--left", str(path),
                       "--right", str(path))
    assert code == 0 and "infinite certificate family" in out


def test_iso_verify_and_tamper(capsys, tmp_path, ex45_path):
    code, out, _ = run(capsys, "iso", "decide", "--left", ex45_path,
                       "--right", ex45_path, "--json")
    doc = json.loads(out)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(dumps(doc["certificates"][1]))
    code, out, _ = run(capsys, "iso", "verify", "--cert", str(cert_path))
    assert code == 0 and "VERIFIED" in out
    tampered = dict(doc["certificates"][1])
    tampered["u"] = "0"
    cert_path.write_text(dumps(tampered))
    code, _, err = run(capsys, "iso", "verify", "--cert", str(cert_path))
    assert code == 2  # zero unit is rejected at parse


def test_expmap_roundtrip_through_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "expmap", "canonical", "--field", "F2",
                       "--f", "X^2+X", "--phi", "Z^2", "--json")
    assert code == 0
    path = tmp_path / "map.json"
    path.write_text(out)
    code, out, _ = run(capsys, "expmap", "verify", "--cert", str(path))
    assert code == 0 and "VERIFIED" in out
    doc = json.loads(path.read_text())
    doc["y"] = "Y + U"
    path.write_text(dumps(doc))
    code, out, _ = run(capsys, "expmap", "verify", "--cert", str(path))
    assert code == 1 and "REFUTED" in out


def test_cancel_build_and_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "cancel", "build", "--field", "Q",
                       "--f", "X^3-X^2", "--phi", "Z^2+1", "--json")
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run(capsys, "cancel", "verify", "--cert", str(path))
    assert code == 0 and "VERIFIED" in out
    doc = json.loads(path.read_text())
    doc["w"]["coeffs"]["0"] = "1 + " + doc["w"]["coeffs"].get("0", "0")
    path.write_text(dumps(doc))
    code, out, _ = run(capsys, "cancel", "verify", "--cert", str(path))
    assert code == 1 and "[FAIL] V4" in out


def test_cancel_verify_reads_the_partner_field_tag(capsys, tmp_path):
    code, out, _ = run(capsys, "cancel", "build", "--field", "Q",
                       "--f", "X^3-X^2", "--phi", "Z^2+1", "--json")
    assert code == 0
    path = tmp_path / "cert.json"
    errors = {}
    for tag in ("F7", "banana", None):
        doc = json.loads(out)
        if tag is None:
            del doc["surfaceB"]["field"]
        else:
            doc["surfaceB"]["field"] = tag
        path.write_text(dumps(doc))
        code, verdict, errors[tag] = run(capsys, "cancel", "verify", "--cert", str(path))
        assert code == 2 and verdict == "" and errors[tag].startswith("error:"), tag
    assert "surfaceB is over F7, surfaceA over Q" in errors["F7"]
    assert "banana" in errors["banana"] and "'field'" in errors[None]


def test_cancel_build_refuses_bad_hypotheses(capsys):
    code, out, _ = run(capsys, "cancel", "build", "--field", "Q",
                       "--f", "X^3-X^2", "--phi", "Z^2")
    assert code == 1 and "hypotheses fail" in out


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_elimination_per_P(capsys, monkeypatch, tmp_path):
    """One Bezout solve per P, and the only elimination is in it: a translate
    P over Q is solved by one extended gcd, with no elimination; a verify
    reads comaximality off V3; a family solves once for its shared P; a
    non-translate over F3 runs one elimination, and a P over F3 whose P_Z is
    a unit runs none."""
    eliminations = _counting(monkeypatch, resultant, "_bareiss")
    resultants = _counting(monkeypatch, cancel, "resultant_in")
    solves = _counting(monkeypatch, cancel, "bezout_cofactors")
    code, out, _ = run(capsys, "cancel", "build", "--field", "Q", "--f", "X^3-X^2",
                       "--phi", "(Z+X)^5-1", "--json")
    assert code == 0 and len(solves) == 1 and not eliminations and not resultants
    path = tmp_path / "cert.json"
    path.write_text(out)
    solves.clear()
    code, out, _ = run(capsys, "cancel", "verify", "--cert", str(path))
    assert code == 0 and "VERIFIED" in out and not solves and not eliminations
    code, out, _ = run(capsys, "family", "demo", "--g", "X-1", "--phi", "(Z+X)^5-1",
                       "--field", "Q", "--from", "2", "--to", "4")
    assert code == 0 and out.count("VERIFIED") == 2 and len(solves) == 1
    assert not eliminations
    code, out, _ = run(capsys, "cancel", "build", "--field", "F3", "--f", "X^3+X^2",
                       "--phi", "Z^4+X*Z+1", "--json")
    assert code == 0 and len(solves) == 2 and len(eliminations) == 1 and not resultants
    # P_Z = 1 for Z^3+Z+X over F3: the pair (1, 0) with no elimination
    code, out, _ = run(capsys, "cancel", "build", "--field", "F3", "--f", "X^3+X^2",
                       "--phi", "Z^3+Z+X", "--json")
    assert code == 0 and len(solves) == 3 and len(eliminations) == 1 and not resultants


def test_cancel_build_refusal_is_explained_by_one_resultant(capsys, monkeypatch):
    # the refusal reports the Res_Z(P, P_Z) of the failed Bezout solve; a
    # translate over Q is refused by its extended gcd, with no elimination
    eliminations = _counting(monkeypatch, resultant, "_bareiss")
    resultants = _counting(monkeypatch, cancel, "resultant_in")
    code, out, err = run(capsys, "cancel", "build", "--field", "Q", "--f", "X^3-X^2",
                         "--phi", "Z^2")
    assert code == 1 and err == "" and not eliminations and not resultants
    assert out == ("hypotheses fail:\n"
                   "  [PASS] f has a double root at 0 [Thm 5.1 hypothesis]: "
                   "multiplicity of 0 in f is 2\n"
                   "  [FAIL] (P, P_Z) = (1) [Eq (10)]: Res_Z(P, P_Z) = 0\n")


_READERS = {
    "surface": (("surface", "info", "--surface"), None),
    "left": (("iso", "decide", "--right", "{good}", "--left"), None),
    "iso": (("iso", "verify", "--cert"),
            ("iso", "decide", "--left", "{good}", "--right", "{good}", "--json")),
    "expmap": (("expmap", "verify", "--cert"),
               ("expmap", "canonical", "--field", "F2", "--f", "X^2+X", "--phi", "Z^2",
                "--json")),
    "cancel": (("cancel", "verify", "--cert"),
               ("cancel", "build", "--field", "Q", "--f", "X^3-X^2", "--phi", "Z^2+1",
                "--json")),
}


@pytest.mark.parametrize("reader, path, value", [
    ("surface", ("field",), 7),
    ("surface", ("field",), None),
    ("left", ("field",), 7),
    ("iso", ("source", "field"), 7),
    ("expmap", ("surface", "field"), None),
    ("cancel", ("surfaceA", "field"), 7),
    ("cancel", ("surfaceB", "field"), None),
    ("cancel", ("w", "coeffs"), ["Z"]),
    ("cancel", ("w", "coeffs"), None),
    ("cancel", ("w", "aux"), "vU"),
])
def test_documents_with_wrong_json_types_exit_2(capsys, tmp_path, ex45_path, reader, path,
                                                value):
    # a field tag, coeffs or aux of the wrong JSON type is malformed input
    argv, build = ([a.replace("{good}", ex45_path) for a in args] if args else args
                   for args in _READERS[reader])
    if build is None:
        doc = json.loads(open(ex45_path).read())
    else:
        code, out, _ = run(capsys, *build)
        assert code == 0
        doc = json.loads(out)
        doc = doc["certificates"][0] if reader == "iso" else doc
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("aux, coeff", [(["v", "W1"], "Z*v"), (["W1"], "Z*W1"), (["w"], "w")])
def test_elements_with_unknown_auxiliary_variables_exit_2(capsys, tmp_path, aux, coeff):
    # the auxiliary variables are U, V and v; any other is refused, used or not
    code, out, _ = run(capsys, *_READERS["cancel"][1])
    assert code == 0
    doc = json.loads(out)
    doc["w"] = {"aux": aux, "coeffs": {"0": coeff}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cancel", "verify", "--cert", str(bad))
    assert code == 2 and out == ""
    unknown = aux[-1]
    assert err == (f"error: bad element document: auxiliary variable {unknown!r} "
                   "not among ('U', 'V', 'v')\n")


@pytest.mark.parametrize("key", ["257", "2147483647", "2147483648", "4294967296"])
def test_element_y_powers_past_the_input_budget_exit_2(capsys, tmp_path, key):
    # y-powers obey the degree budget of the coefficient texts: 257 once
    # verified, and 2**31 - 1 and beyond overflowed an exponent field
    code, out, _ = run(capsys, *_READERS["cancel"][1])
    assert code == 0
    doc = json.loads(out)
    doc["w"]["coeffs"][key] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cancel", "verify", "--cert", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: element y-power {key} exceeds the input budget of 256\n"


@pytest.mark.parametrize("twin", [False, True], ids=["alone", "with_twin"])
@pytest.mark.parametrize("key, canonical", [("01", "1"), ("+1", "1"), (" 1", "1"),
                                            ("1_0", "10")])
def test_element_y_power_keys_must_be_canonical(capsys, tmp_path, key, canonical, twin):
    # int() reads each key as the power of its canonical twin: alone it was
    # an alias, and next to its twin the later key replaced the earlier one
    code, out, _ = run(capsys, *_READERS["cancel"][1])
    assert code == 0
    doc = json.loads(out)
    coeffs = doc["w"]["coeffs"]
    coeffs[key] = coeffs.pop(canonical, "X")
    if twin:
        coeffs[canonical] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cancel", "verify", "--cert", str(bad))
    assert code == 2 and out == ""
    assert err == (f"error: element y-power key {key!r} is not written as "
                   f"{canonical!r}\n")


@pytest.mark.parametrize("key", ["s", "corr"])
def test_certificates_of_the_older_format_exit_2(capsys, tmp_path, key):
    # the older format stored s and corr; s is now derived from h and P
    code, out, _ = run(capsys, *_READERS["cancel"][1])
    assert code == 0
    doc = json.loads(out)
    doc[key] = doc["w"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cancel", "verify", "--cert", str(bad))
    assert code == 2 and out == ""
    assert err == (f"error: stable certificate has the key {key!r} of an older format; "
                   "rebuild it with `cancel build`\n")


@pytest.mark.parametrize("key, value, message", [
    ("delta", "X^2+1", "delta has degree 2, expected < r = 2"),
    ("theta", "Z^2", "theta has Z-degree 2 > d-1"),
    ("target", {"field": "F3", "f": "X^2+X", "phi": "Z^2"},
     "certificate endpoints over different fields"),
])
def test_iso_certificates_outside_their_bounds_exit_2(capsys, tmp_path, ex45_path, key,
                                                      value, message):
    code, out, _ = run(capsys, "iso", "decide", "--left", ex45_path, "--right", ex45_path,
                       "--json")
    assert code == 0
    doc = json.loads(out)["certificates"][0]
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "iso", "verify", "--cert", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_family_demo(capsys):
    code, out, _ = run(capsys, "family", "demo", "--g", "X-1", "--phi", "Z^2+1",
                       "--field", "Q", "--from", "2", "--to", "4")
    assert code == 0
    assert out.count("VERIFIED") == 2
    assert "pairwise non-isomorphic, stably isomorphic" in out


def test_family_demo_empty_range_is_malformed_input(capsys):
    code, out, err = run(capsys, "family", "demo", "--g", "X-1", "--phi", "Z^2+1",
                         "--field", "Q", "--from", "3", "--to", "2")
    assert code == 2 and out == "" and err.startswith("error:")
    # a malformed g: not monic, g(0) = 0, a repeated factor
    for g in ("2*X-1", "X*(X-1)", "(X-1)^2"):
        code, out, err = run(capsys, "family", "demo", "--g", g, "--phi", "Z^2+1",
                             "--field", "Q", "--from", "2", "--to", "3")
        assert code == 2 and out == "" and err.startswith("error:"), g
        assert "Poly(" not in err, g
    # the repeated factor is printed as a polynomial, not as a repr
    code, out, err = run(capsys, "family", "demo", "--g", "X^2+1", "--phi", "Z^2+Z+X",
                         "--field", "F2", "--from", "2", "--to", "3")
    assert code == 2 and out == ""
    assert err == "error: g has a repeated factor: (X + 1)^2\n" and "Poly(" not in err
    # a malformed P: not monic in Z, degree 1 in Z
    for phi in ("X*Z^2+1", "Z"):
        code, out, err = run(capsys, "family", "demo", "--g", "X-1", "--phi", phi,
                             "--field", "Q", "--from", "2", "--to", "3")
        assert code == 2 and out == "" and err.startswith("error:"), phi
    # a comaximality failure is a refusal, not malformed input
    code, out, err = run(capsys, "family", "demo", "--g", "X-1", "--phi", "Z^2",
                         "--field", "Q", "--from", "2", "--to", "3")
    assert code == 1 and out == "" and err.startswith("refused:")


def test_input_budget_exits_2_at_once(capsys):
    for phi in ("(Z+1)^3000", "Z^2 + 7^2000000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "surface", "info", "--field", "Q", "--f", "X^2",
                             "--phi", phi)
        assert time.perf_counter() - start < 1.0, phi
        assert code == 2 and out == ""
        assert err.startswith("error:") and "input budget" in err and err.count("\n") == 1


def test_constant_product_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "surface", "info", "--field", "Q", "--f", "X^2",
                         "--phi", "Z^2 + " + "*".join([f"3^{MAX_CONSTANT_BITS // 2}"] * 50))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "input budget" in err and err.count("\n") == 1


def test_constants_the_printer_cannot_write_exit_2(capsys):
    # 3^9100 passes the interpreter's 4,300-digit limit for int-string
    # conversion, and so does a 5,000-digit literal: both are refused at parse
    for phi, position in (("Z^2 + 3^9100", 8), ("Z^2 + 1" + "0" * 5000, 6)):
        code, out, err = run(capsys, "surface", "info", "--field", "Q", "--f", "X^3",
                             "--phi", phi)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "input budget" in err and err.count("\n") == 1
        assert f"(at position {position})" in err


def test_a_coefficient_sum_past_the_budget_exits_2(capsys):
    # each power is within the budget, but the denominator of their sum has
    # about 16,000 bits: refused at the '+' before the second power
    code, out, err = run(capsys, "surface", "info", "--field", "Q", "--f", "X^3",
                         "--phi", "Z^2 + (1/3)^5000 + (1/5)^3500")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "input budget" in err and err.count("\n") == 1
    assert "(at position 17)" in err


def test_a_result_past_the_digit_limit_prints_exactly(capsys):
    # Res_Z(P, P_Z) = 4 (2^8000)^3 + 27 has 7,226 digits, past the
    # interpreter's 4,300-digit limit for int-string conversion, which
    # stays as it is
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "surface", "info", "--field", "Q", "--f", "X^3",
                         "--phi", "Z^3 + 2^8000*Z + 1", "--json")
    assert code == 0 and err == ""
    assert Decimal(json.loads(out)["resultant"]) == Decimal(4 * 2**24000 + 27)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


@pytest.mark.parametrize("argv", [
    ["surface", "info", "--field", "Q", "--f", "X^3", "--phi", "Z^2+1"],
    ["expmap", "canonical", "--field", "Q", "--f", "X^3", "--phi", "Z^2+1"],
    ["expmap", "verify", "--cert", "map.json"],
    ["iso", "verify", "--cert", "cert.json"],
    ["cancel", "build", "--field", "Q", "--f", "X^3", "--phi", "Z^2+1"],
    ["cancel", "verify", "--cert", "cert.json"],
    ["family", "demo", "--g", "X-1", "--phi", "Z^2+1", "--field", "Q", "--from", "2",
     "--to", "3"],
], ids=lambda argv: " ".join(argv[:2]))
def test_cap_is_refused_where_no_search_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 3" in capsys.readouterr().err


def test_family_demo_range_is_bounded(capsys):
    for n_from, n_to in (("2", str(cli.MAX_FAMILY_N + 1)), ("2", "400")):
        code, out, err = run(capsys, "family", "demo", "--g", "X-1", "--phi", "Z^2+1",
                             "--field", "Q", "--from", n_from, "--to", n_to)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"<= {cli.MAX_FAMILY_N}" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(spec):
        raise VerificationInternalError("canonical map failed verification")

    monkeypatch.setattr(cli, "canonical_expmap", broken)
    code, out, err = run(capsys, "expmap", "canonical", "--field", "Q",
                         "--f", "X^2", "--phi", "Z^2+1")
    assert code == 4 and out == ""
    assert err == "internal error: canonical map failed verification\n"


def test_failed_self_check_exits_4_without_traceback(capsys, monkeypatch):
    # the elimination runs only for a non-translate, such as this one over F3
    monkeypatch.setattr(resultant, "exact_div", lambda a, b: None)
    code, out, err = run(capsys, "cancel", "build", "--field", "F3",
                         "--f", "X^3+X^2", "--phi", "Z^4+X*Z+1")
    assert code == 4 and out == ""
    assert err == "internal error: Bareiss division failed; matrix entries corrupted\n"


def test_failed_eq8_self_check_exits_4(capsys, monkeypatch):
    real = cancel.eval_poly_on_elements

    def corrupted(p, images, spec):
        out = real(p, images, spec)
        return out + spec.one() if p == spec.P else out

    monkeypatch.setattr(cancel, "eval_poly_on_elements", corrupted)
    code, out, err = run(capsys, "cancel", "build", "--field", "Q",
                         "--f", "X^3-X^2", "--phi", "Z^2+1")
    assert code == 4 and out == ""
    assert err == "internal error: h s = P(x, theta) (Eq 8) failed\n"


def test_other_library_error_exits_2_without_traceback(capsys, monkeypatch):
    def broken(spec):
        raise UnknownVariableError("variable 'W' not among ('X', 'Z')")

    monkeypatch.setattr(cli, "smoothness_check", broken)
    code, out, err = run(capsys, "surface", "info", "--field", "Q",
                         "--f", "X^2", "--phi", "Z^2+1")
    assert code == 2 and out == ""
    assert err == "error: variable 'W' not among ('X', 'Z')\n"


def test_paper_examples_all_pass():
    report = paper_examples()
    assert report.ok and len(report.checks) == 8


def test_paper_examples_exit_codes(capsys):
    code, out, _ = run(capsys, "paper-examples")
    assert code == 0 and "VERIFIED" in out
    code, _, err = run(capsys, "paper-examples", "--cap", "1")
    assert code == 3


def test_json_output_is_byte_identical(capsys):
    _, out1, _ = run(capsys, "paper-examples", "--json")
    _, out2, _ = run(capsys, "paper-examples", "--json")
    assert out1 == out2
    assert (hashlib.sha256(out1.encode()).hexdigest()
            == "7f37041bcff33df0c82ea4c2ed1388b070097ebd02c97d6d3e18b1b40f50c429")


def _pinned_argv(tmp_path):
    """The command lines of `PINNED`; the documents they read go under tmp_path."""
    def write(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(doc))
        return str(path)

    f7 = surf(GF(7), "X^7*(X+1)", "Z^7+Z+X")
    f7_path = write("f7", surface_to_doc(f7))
    ex45 = write("ex45", surface_to_doc(surf(GF(2), "X^2+X", "Z^2")))
    other = write("other", surface_to_doc(surf(GF(2), "X^2*(X+1)", "Z^2")))
    square = write("square", surface_to_doc(surf(QQ, "X^2", "Z^2+1")))
    expmap_doc = expmap_to_doc(canonical_expmap(surf(GF(2), "X^2+X", "Z^2")))
    q_cubic = ("--field", "Q", "--f", "X^3-X^2", "--phi", "Z^2+1")
    return {
        "surface-info-Q": ("surface", "info", *q_cubic),
        "surface-info-F7": ("surface", "info", "--surface", f7_path),
        "expmap-canonical": ("expmap", "canonical", "--field", "F2", "--f", "X^2+X",
                             "--phi", "Z^2"),
        "expmap-verify": ("expmap", "verify", "--cert", write("expmap", expmap_doc)),
        "expmap-verify-refuted": ("expmap", "verify", "--cert",
                                  write("expmap-bad", dict(expmap_doc, y="Y + U"))),
        "iso-decide-certificates": ("iso", "decide", "--left", f7_path, "--right", f7_path),
        "iso-decide-obstruction": ("iso", "decide", "--left", ex45, "--right", other),
        "iso-decide-family": ("iso", "decide", "--left", square, "--right", square),
        "iso-verify": ("iso", "verify", "--cert",
                       write("iso", iso_to_doc(decide_isomorphism(f7, f7)[0]))),
        "cancel-build": ("cancel", "build", *q_cubic),
        "cancel-build-refused": ("cancel", "build", "--field", "Q", "--f", "X^3-X^2",
                                 "--phi", "Z^2"),
        "cancel-verify": ("cancel", "verify", "--cert", write(
            "stable", stable_to_doc(build_stable_iso(surf(QQ, "X^3-X^2", "Z^2+1"))))),
        "family-demo": ("family", "demo", "--g", "X-1", "--phi", "Z^2+1", "--field", "Q",
                        "--from", "2", "--to", "4"),
        "paper-examples": ("paper-examples",),
    }


# exit code, then the sha256 of stdout in text and with --json; recorded at 46bf284,
# cancel-verify and family-demo --json again when the report lost V5 and V7, and
# cancel-build, cancel-verify and family-demo --json again when the certificate
# lost corr and s and the report lost V6
PINNED = {
    "surface-info-Q": (0,
        "a3e3ed422d8159183b662333233863de98809813c121ebd16b452b95ff5c78e8",
        "c51958545cea573354a6e4e7a451b520d4162a9cc457da9c2f21844faba16d64"),
    "surface-info-F7": (0,
        "7c4acbe3ef53098abc64e6c8f1e8fd8ba4658bf9539ccd86d98e5db70b706e77",
        "36d94e0dfa8e8d756486cf744cf36401bdb430d5c637cbc20df8bb1eb5f81275"),
    "expmap-canonical": (0,
        "a130ee6080192a84078ccf24555fe55c0e787454a8865d26f7a065cfcdb63f86",
        "3ce8178dfcc3693e043328dcdaf2e82d5833f88e0a4613d5aebfbc4c98380977"),
    "expmap-verify": (0,
        "7ad5fdf69bdd36e15d3631bbe3151d3472a64bcbb869747353a2d92b87c1e67b",
        "73c0ba05a5937e03bac0cfd77cd303e1748999c1af5aceb4603c091ff1ea4954"),
    "expmap-verify-refuted": (1,
        "96c1067374da3f97212df07c37e2daa8cb87ba6434ff5028f4ccec3f1fba5062",
        "6156ccbb4af46eb6cfac565c9f9483ac56328209ddc36ecaacd0712e9c9646dd"),
    "iso-decide-certificates": (0,
        "52628977bf4123d4bcd32a35a221aff1aaf929e2e1d1b931e08929df862b28b9",
        "e380b08b7885150b25a78bcfb17cc09b545b28ee47146e9db185cfa872331ada"),
    "iso-decide-obstruction": (1,
        "32d2298d4a96fd693e9306e135b94242c6b202b70ab8f884dd30e76d1e843b8b",
        "f1fd1de7b419877bb9e7d4b6175ca9a2871245cb558587a4413e2170fee4fcb6"),
    "iso-decide-family": (0,
        "05ad61d655ad8ba6dc8eec7b5dc3542c6bf7e3601738e829ba66790064e00a92",
        "e978f51bb8542056352efa89f425758cbec6fb72c1da516055bab3a56910965a"),
    "iso-verify": (0,
        "7e5777ffd1ce07bf119746d44d8c4fc868c7e17120841f4d58c66093f295cd0c",
        "20af117c2ab8b16ed7736888a0f867ae26534a3433e32e89cc0148486a0c72c3"),
    "cancel-build": (0,
        "0d5dfc74a4d57486b041aa01ecfd4b54b364390a212a64bdf13437d61a14e344",
        "eb40a6bcbba4587ec0df0348f0d830a63db0d46bea21cfa53a63ccfdfbce6139"),
    "cancel-build-refused": (1,
        "c9fed5957edb97c18e989eaad52e5f2b1c644f87bee8f8ac7f23bf98945a5e4f",
        "ab41fffe53906a4a030876ee781cf0a2cc7e51e8c3eb3fdd8e2fca45786237df"),
    "cancel-verify": (0,
        "2166e4b2737606a1325398b916ca9a6e3724ae212533483dbc9d864d9369c14b",
        "1e20a95d4f0aef7d36ed6d190c07e1fff248e9fa319732d0b0a109364e1fae17"),
    "family-demo": (0,
        "c82cc794dd534b42df6145437ae37c07f096591b4068d5fe3b09fecd47284cd2",
        "9297b63a6a3a4dad0d7b85fa3ef0575546b71da0a7b7bee33c2379b36d348f88"),
    "paper-examples": (0,
        "a84d6599b17c480f171489acd7d4919522758ec7a53614c4d5d023419a084cc6",
        "7f37041bcff33df0c82ea4c2ed1388b070097ebd02c97d6d3e18b1b40f50c429"),
}


def _run_pinned(capsys, tmp_path, name, form):
    argv = _pinned_argv(tmp_path)[name] + (("--json",) if form == "json" else ())
    code, out, err = run(capsys, *argv)
    expected_code, text_sha, json_sha = PINNED[name]
    assert err == "" and code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == (json_sha if form == "json"
                                                         else text_sha)


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_every_command_prints_pinned_bytes(capsys, tmp_path, name, form):
    _run_pinned(capsys, tmp_path, name, form)


def _not_this_form(*args, **kwargs):
    raise AssertionError("built output for the form that was not asked for")


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_each_form_builds_only_itself(capsys, monkeypatch, tmp_path, name, form):
    if form == "text":
        for writer in ("certificates_to_doc", "obstruction_to_doc", "stable_to_doc",
                       "expmap_to_doc", "family_to_doc", "surface_to_doc"):
            monkeypatch.setattr(cli, writer, _not_this_form)
        monkeypatch.setattr(VerificationReport, "to_doc", _not_this_form)
    else:   # obstructions, elements and checks also print into the reports' details
        monkeypatch.setattr(IsoCertificate, "__str__", _not_this_form)
        monkeypatch.setattr(VerificationReport, "lines", _not_this_form)
    _run_pinned(capsys, tmp_path, name, form)


def test_iso_decide_baseline_f7(capsys, tmp_path):
    # char 7 divides d = 7: answered by lifting delta, well inside the default cap
    path = tmp_path / "f7.json"
    path.write_text(dumps(surface_to_doc(surf(GF(7), "X^7*(X+1)", "Z^7+Z+X"))))
    code, out, _ = run(capsys, "iso", "decide", "--left", str(path), "--right", str(path))
    assert code == 0 and "6 certificate(s)" in out


def test_a_closed_pipe_exits_141_without_traceback(tmp_path):
    # the F97 corner prints 374 KB of certificates; the reader takes one line
    path = tmp_path / "f97.json"
    path.write_text(dumps(surface_to_doc(surf(GF(97), "X^12", "Z^12+1"))))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen([sys.executable, "-m", "danielewski", "iso", "decide", "--json",
                           "--left", str(path), "--right", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=30)
    assert code == cli.EXIT_BROKEN_PIPE == 141 and err == b""


@pytest.mark.parametrize("content, message", [
    (b"\xff{}", "is not UTF-8 text"),
    (b"[" * 100000 + b"]" * 100000, "nests too deeply to read"),
], ids=["undecodable", "deeply-nested"])
def test_unreadable_documents_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "iso", "verify", "--cert", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} {message}") and err.count("\n") == 1


def test_deeply_nested_expressions_exit_2(capsys, tmp_path):
    deep = "(" * 250 + "X^2" + ")" * 250
    path = tmp_path / "deep.json"
    path.write_text(dumps({"field": "Q", "f": deep, "phi": "Z^2+1"}))
    for argv in (("--field", "Q", "--f", deep, "--phi", "Z^2+1"), ("--surface", str(path))):
        code, out, err = run(capsys, "surface", "info", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"input budget of {MAX_NESTING} levels" in err


# -- seeded document fuzz -----------------------------------------------------------

_FUZZ_VALUES = (
    # wrong JSON types
    None, 7, -1, 2.5, True, [], {}, ["Z"], {"X": 1},
    # bad field tags
    "F4", "F1", "F0", "F", "Q2", "G2", "f2", "F-3", "",
    # unknown variables
    "W", "X*W", "v", "U^2", "Y", "x",
    # huge exponents and constants, past the input budgets
    "X^257", "Z^100000", "X^2147483648", "(Z+X+1)^257", "2^100000", "9" * 5000,
    # malformed and deeply nested expressions
    "(", "X+", "1/0", "X^-1", "(" * 300 + "X" + ")" * 300, "-" * 3000 + "X",
)

_FUZZ_FILES = (b"\xff{}", b"[" * 100000 + b"]" * 100000, b"", b"null", b"[]", b"{}",
               b'"text"', b"{" * 50, "{\"field\": \"Qé\"}".encode())


def _fuzz_documents(capsys, tmp_path):
    """(argv before the document path, a valid document) for each reader."""
    surface = surface_to_doc(surf(GF(2), "X^2+X", "Z^2"))
    good = tmp_path / "good.json"
    good.write_text(dumps(surface))
    built = {}
    for name, argv in (
            ("iso", ("iso", "decide", "--left", str(good), "--right", str(good), "--json")),
            ("expmap", ("expmap", "canonical", "--field", "F3", "--f", "X^2+X",
                        "--phi", "Z^3-Z+X", "--json")),
            ("stable", ("cancel", "build", "--field", "Q", "--f", "X^3-X^2",
                        "--phi", "Z^2+1", "--json"))):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        built[name] = json.loads(out)
    return [
        (("surface", "info", "--surface"), surface),
        (("iso", "decide", "--right", str(good), "--left"), surface),
        (("iso", "verify", "--cert"), built["iso"]["certificates"][0]),
        (("expmap", "verify", "--cert"), built["expmap"]),
        (("cancel", "verify", "--cert"), built["stable"]),
    ]


def _nodes(doc, path=()):
    """Every (path, value) below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _mutated(rng, doc):
    """A copy of doc with one value replaced or one key deleted."""
    doc = json.loads(json.dumps(doc))
    path, _ = rng.choice(list(_nodes(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(_FUZZ_VALUES)
    return doc


def test_mutated_documents_exit_with_a_documented_code(capsys, tmp_path):
    import random
    rng = random.Random(26)
    readers = _fuzz_documents(capsys, tmp_path)
    inputs = [(argv, content) for argv, _ in readers for content in _FUZZ_FILES]
    for _ in range(800):
        argv, doc = rng.choice(readers)
        inputs.append((argv, json.dumps(_mutated(rng, doc)).encode()))
    path = tmp_path / "fuzz.json"
    for argv, content in inputs:
        path.write_bytes(content)
        code, out, err = run(capsys, *argv, str(path))
        case = (argv, content[:200])
        assert code in (0, 1, 2, 3, 4), case
        assert "Traceback" not in out + err, case
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1, (case, err)
