import json
import time

import pytest

from danielewski import GF, QQ, cancel, cli, resultant
from danielewski.cli import main, paper_examples
from danielewski.errors import UnknownVariableError, VerificationInternalError
from danielewski.jsonio import dumps, surface_to_doc

from conftest import surf


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
    doc["s"]["coeffs"]["0"] = "1 + " + doc["s"]["coeffs"].get("0", "0")
    path.write_text(dumps(doc))
    code, out, _ = run(capsys, "cancel", "verify", "--cert", str(path))
    assert code == 1 and "V2" in out


def test_cancel_build_refuses_bad_hypotheses(capsys):
    code, out, _ = run(capsys, "cancel", "build", "--field", "Q",
                       "--f", "X^3-X^2", "--phi", "Z^2")
    assert code == 1 and "hypotheses fail" in out


@pytest.mark.parametrize("phi, code", [("(Z+X)^5-1", 0), ("Z^2", 1)])
def test_cancel_build_computes_the_resultant_once(capsys, monkeypatch, phi, code):
    calls = []

    def counted(*args):
        calls.append(args)
        return resultant.resultant_in(*args)

    monkeypatch.setattr(cancel, "resultant_in", counted)
    got, _, _ = run(capsys, "cancel", "build", "--field", "Q", "--f", "X^3-X^2", "--phi", phi)
    assert got == code and len(calls) == 1


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
    monkeypatch.setattr(resultant, "exact_div", lambda a, b: None)
    code, out, err = run(capsys, "cancel", "build", "--field", "Q",
                         "--f", "X^3-X^2", "--phi", "Z^2+1")
    assert code == 4 and out == ""
    assert err == "internal error: Bareiss division failed; matrix entries corrupted\n"


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


def test_iso_decide_baseline_f7(capsys, tmp_path):
    # char 7 divides d = 7: answered by lifting delta, well inside the default cap
    path = tmp_path / "f7.json"
    path.write_text(dumps(surface_to_doc(surf(GF(7), "X^7*(X+1)", "Z^7+Z+X"))))
    code, out, _ = run(capsys, "iso", "decide", "--left", str(path), "--right", str(path))
    assert code == 0 and "6 certificate(s)" in out
