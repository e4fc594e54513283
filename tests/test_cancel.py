import dataclasses
import hashlib
import inspect

import pytest

from danielewski import (GF, QQ, build_stable_iso, cancel, check_hypotheses, expmap, factor,
                         fingerprint, isomorph, parse_poly, poly_str, sigma_family, surface,
                         verify_stable_iso)
from danielewski.errors import (ComaximalityError, HypothesisError, PreconditionError,
                                SurfaceConstraintError, VerificationInternalError)
from danielewski.jsonio import dumps, family_to_doc, stable_from_doc, stable_to_doc
from danielewski.resultant import bezout_cofactors, resultant_in
from danielewski.surface import eval_poly_on_elements

from conftest import surf
from oracles import (s_by_substitution, stable_inverse, v5_by_application,
                     verify_stable_iso_by_evaluation)


def test_hypotheses_examples():
    rep = check_hypotheses(surf(QQ, "X^3-X^2", "Z^2+1"))
    assert rep.ok and "4" in rep.comaximal.detail
    rep = check_hypotheses(surf(GF(2), "X^2*(X+1)", "Z^2+Z+X"))
    assert rep.ok and "1" in rep.comaximal.detail
    rep = check_hypotheses(surf(QQ, "X^3-X^2", "Z^2"))
    assert not rep.ok and not rep.comaximal.passed
    rep = check_hypotheses(surf(QQ, "X^2+1", "Z^2+1"))
    assert not rep.double_root.passed


@pytest.mark.parametrize("field, f, phi", [
    (QQ, "X^3-X^2", "Z^2"),            # Res_Z(P, P_Z) = 0
    (QQ, "X^3-X^2", "Z^2+X"),          # a nonconstant resultant
    (GF(3), "X^2*(X+1)", "Z^3+X*Z"),   # P_Z = X: the resultant X^3, no matrix
    (GF(2), "X^2*(X+1)", "Z^2+X"),     # P_Z = 0
    (QQ, "X^2+1", "Z^2"),              # n < 2, and not comaximal
], ids=str)
def test_build_refusal_reports_the_bezout_resultant(field, f, phi):
    spec = surf(field, f, phi)
    with pytest.raises(HypothesisError) as refused:
        build_stable_iso(spec)
    want = check_hypotheses(spec)
    assert refused.value.report == want
    assert str(refused.value) == "hypotheses fail: " + "; ".join(
        c.line() for c in want.checks() if not c.passed)
    Pz = spec.P.derivative("Z")
    with pytest.raises(ComaximalityError) as solve:
        bezout_cofactors(spec.P, Pz, "Z")
    assert solve.value.resultant == (None if Pz.is_zero else resultant_in(spec.P, Pz, "Z"))


def test_build_matches_hand_derivation():
    cert = build_stable_iso(surf(QQ, "X^3-X^2", "Z^2+1"))
    spec = cert.spec_a
    assert poly_str(cert.h) == "X^2 - X"
    v = spec.from_xz_poly(parse_poly("v", QQ, ("X", "Z", "v")))
    x, z, y = spec.x(), spec.z(), spec.y()
    h = spec.from_xz_poly(cert.h.with_vars(("X", "Z")))
    assert cert.theta == h * v + z
    assert (cancel._derived_s(spec, cert.h)
            == x * y + z * v.scaled(2) + x * (x - spec.one()) * v * v)
    assert poly_str(cert.a) == "-1/2*Z"
    assert poly_str(cert.b) == "1"
    assert cert.spec_b.f == cert.h and cert.spec_b.P == spec.P


def test_builder_output_verifies():
    for field, f, p in ((QQ, "X^3-X^2", "Z^2+1"),
                        (QQ, "X^4-X^3", "Z^2+1"),
                        (GF(2), "X^2*(X+1)", "Z^2+Z+X"),
                        (GF(3), "X^2*(X+1)", "Z^2+1"),
                        (QQ, "X^2*(X-1)", "Z^3 - Z + 1")):
        cert = build_stable_iso(surf(field, f, p))
        report = verify_stable_iso(cert)
        assert report.ok, (f, [c.line() for c in report.failures()])


def test_min_degree_partner_surface():
    # n = 2 with constant g: the partner has deg h = 1, representable internally
    cert = build_stable_iso(surf(QQ, "X^2", "Z^2+1"))
    assert poly_str(cert.spec_b.f) == "X" and cert.spec_b.r == 1
    assert verify_stable_iso(cert).ok


def test_tampered_certificates_fail():
    cert = build_stable_iso(surf(QQ, "X^3-X^2", "Z^2+1"))
    worse = dataclasses.replace(cert, theta=cert.theta + cert.spec_a.one())
    report = verify_stable_iso(worse)
    failed = {c.name.split()[0] for c in report.failures()}
    assert "V2" in failed
    v1 = verify_stable_iso(cert).checks[0]
    assert v1.passed and v1.detail == "multiplicity of 0 in f is 2; (P, P_Z) = (1): True"
    # a := a + P leaves a nonzero defect in V3 (and shifts V4), so V1 can no
    # longer read comaximality off the Bezout identity
    worse = dataclasses.replace(cert, a=cert.a + cert.spec_a.P)
    report = verify_stable_iso(worse)
    assert any(c.name.startswith("V3") for c in report.failures())
    v1 = report.checks[0]
    assert v1.name.startswith("V1") and not v1.passed
    assert v1.detail == "multiplicity of 0 in f is 2; (P, P_Z) = (1): not deduced (V3 failed)"
    worse = dataclasses.replace(cert, w=cert.w + cert.spec_a.one())
    report = verify_stable_iso(worse)
    assert any(c.name.startswith("V4") for c in report.failures())


def test_build_refuses_bad_hypotheses():
    with pytest.raises(PreconditionError):
        build_stable_iso(surf(QQ, "X^2+1", "Z^2+1"))   # no double root at 0
    with pytest.raises(PreconditionError):
        build_stable_iso(surf(QQ, "X^3-X^2", "Z^2"))    # comaximality fails


def test_family_demo_rationals():
    fam = sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                       parse_poly("Z^2+1", QQ, ("X", "Z")), 2, 4)
    assert fam.ok
    assert len(fam.surfaces) == 3 and len(fam.chain) == 2
    multisets = [fp.multiplicities for fp in fam.fingerprints]
    assert multisets == [(1, 2), (1, 3), (1, 4)]
    assert len(fam.nonisomorphic) == 3
    assert all("differ" in v for _, _, v in fam.nonisomorphic)
    for link in fam.chain:
        assert link.certificate.spec_b == link.lower
        assert link.report.ok


def test_family_demo_char2():
    fam = sigma_family(GF(2), parse_poly("X+1", GF(2), ("X",)),
                       parse_poly("Z^2+Z+X", GF(2), ("X", "Z")), 2, 3)
    assert fam.ok and len(fam.chain) == 1


def test_family_with_constant_g():
    # g = 1 is squarefree with g(0) != 0; members are X^n Y = P
    fam = sigma_family(QQ, parse_poly("1", QQ, ("X",)),
                       parse_poly("Z^2+1", QQ, ("X", "Z")), 2, 4)
    assert fam.ok and len(fam.chain) == 2
    assert [fp.multiplicities for fp in fam.fingerprints] == [(2,), (3,), (4,)]


@pytest.mark.parametrize("field, g, phi", [(QQ, "1", "Z^2+1"), (QQ, "X^2+1", "Z^2+1"),
                                           (GF(2), "X^3+1", "Z^2+Z+X")])
def test_family_fingerprints_factor_g_once(monkeypatch, field, g, phi):
    # X^3 + 1 = (X + 1)(X^2 + X + 1) over F2
    calls = []

    def counted(p):
        calls.append(p)
        return factor.factor_univariate(p)

    for module in (cancel, isomorph, surface):
        monkeypatch.setattr(module, "factor_univariate", counted)
    g_poly = parse_poly(g, field, ("X",))
    fam = sigma_family(field, g_poly, parse_poly(phi, field, ("X", "Z")), 2, 4)
    assert calls == ([g_poly] if g_poly.total_degree() > 0 else [])
    monkeypatch.undo()
    assert list(fam.fingerprints) == [fingerprint(s) for s in fam.surfaces]


def test_family_preconditions():
    with pytest.raises(SurfaceConstraintError):
        sigma_family(QQ, parse_poly("(X-1)^2", QQ, ("X",)),
                     parse_poly("Z^2+1", QQ, ("X", "Z")), 2, 3)
    with pytest.raises(SurfaceConstraintError):
        sigma_family(QQ, parse_poly("X", QQ, ("X",)),
                     parse_poly("Z^2+1", QQ, ("X", "Z")), 2, 3)  # g(0) = 0
    with pytest.raises(ComaximalityError):
        sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                     parse_poly("Z^2", QQ, ("X", "Z")), 2, 3)
    # degenerate-P guard: P_Z = 0 fails at comaximality, never crashes
    with pytest.raises(ComaximalityError):
        sigma_family(GF(2), parse_poly("X+1", GF(2), ("X",)),
                     parse_poly("Z^2+X", GF(2), ("X", "Z")), 2, 3)
    with pytest.raises(PreconditionError):
        sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                     parse_poly("Z^2+1", QQ, ("X", "Z")), 1, 3)


# certificates of the cancel-q benchmark's shape, f = X^2 g and P = (Z + c X)^d - 1,
# plus one case each over F2 and F3
CANCEL_Q_SHAPE = tuple((QQ, "X^2*(X-1)*(X+2)", f"(Z + {c}*X)^{d} - 1")
                       for d, c in ((2, 1), (3, -2), (5, 2), (7, -1))) + (
    (GF(2), "X^2*(X+1)", "(Z + X)^3 + 1"),
    (GF(3), "X^2*(X+1)", "(Z + 2*X)^2 - 1"),
)
CHECK_NAMES = ["V1", "V1b", "theta", "V2", "V3", "V4"]


def test_v5_deduction_agrees_with_direct_application():
    # the extended canonical map fixes theta and s and sends w to w - U on
    # every built certificate, a property of the builder that the proof of
    # the stable isomorphism does not use (cancel module docstring)
    for field, f, p in CANCEL_Q_SHAPE:
        cert = build_stable_iso(surf(field, f, p))
        report = verify_stable_iso(cert)
        assert report.ok, (f, p, [c.line() for c in report.failures()])
        assert [c.name.split()[0] for c in report.checks] == CHECK_NAMES
        assert v5_by_application(cert) == (True, True, True)


def _inverse_failures(cert):
    """The identities of the explicit inverse that fail, in order, or None
    when y' does not exist: f y' = P(x, z') in B[w], then Psi(v') = v,
    Psi(z') = z, Psi(y') = y, Psi^-1(theta) = z, Psi^-1(s) = y and
    Psi^-1(w) = w, each map evaluated on an element's raw lift."""
    inverse = stable_inverse(cert)
    if inverse is None:
        return None
    v_prime, z_prime, y_prime = inverse
    spec_a, spec_b = cert.spec_a, cert.spec_b
    s = s_by_substitution(cert)

    def psi(e):
        return eval_poly_on_elements(e.raw_lift(), {"Z": cert.theta, "Y": s, "v": cert.w},
                                     spec_a)

    def psi_inverse(e):
        return eval_poly_on_elements(e.raw_lift(), {"Z": z_prime, "Y": y_prime,
                                                    "v": v_prime}, spec_b)

    identities = {
        "f y' = P(x, z')": (spec_b.from_xz_poly(spec_a.f.with_vars(("X", "Z"))) * y_prime
                            == eval_poly_on_elements(spec_b.P, {"Z": z_prime}, spec_b)),
        "Psi(v')": psi(v_prime) == spec_a.generator("v"),
        "Psi(z')": psi(z_prime) == spec_a.z(),
        "Psi(y')": psi(y_prime) == spec_a.y(),
        "Psi^-1(theta)": psi_inverse(cert.theta) == spec_b.z(),
        "Psi^-1(s)": psi_inverse(s) == spec_b.y(),
        "Psi^-1(w)": psi_inverse(cert.w) == spec_b.generator("v"),
    }
    return [name for name, holds in identities.items() if not holds]


# d <= 3 and small p: the compositions are evaluated term by term
INVERSE_CASES = (
    (QQ, "X^2*(X-1)*(X+2)", "(Z+X)^2-1"), (QQ, "X^2*(X-1)*(X+2)", "(Z-2*X)^3-1"),
    (QQ, "X^3*(X-1)", "(Z+X^2)^3+3*(Z+X^2)+1"), (GF(2), "X^2*(X+1)", "(Z+X)^3+1"),
    (GF(2), "X^3+X^2", "Z^2+Z+X"), (GF(3), "X^2*(X+1)", "(Z+2*X)^2-1"),
    (GF(3), "X^2*(X+1)", "Z^3+Z+X"), (GF(5), "X^2*(X+2)", "(Z+X)^3-1"),
)


@pytest.mark.parametrize("field, f, phi", INVERSE_CASES, ids=str)
def test_explicit_inverse_composes_to_the_identity(field, f, phi):
    cert = build_stable_iso(surf(field, f, phi))
    assert verify_stable_iso(cert).ok
    assert _inverse_failures(cert) == []


@pytest.mark.parametrize("field, f, phi", INVERSE_CASES, ids=str)
def test_derived_s_matches_the_substituting_oracle(field, f, phi):
    # the verifier's s, read off P's Hasse derivatives, is the oracle's,
    # summed from the e_k of P(X, Z + T) by substitution
    cert = build_stable_iso(surf(field, f, phi))
    assert cancel._derived_s(cert.spec_a, cert.h) == s_by_substitution(cert)


PSI_Y = ["Psi(v')", "Psi(z')", "Psi(y')"]
# tamper: (checks that fail, identities of the explicit inverse that fail);
# None is no y'.  The b tamper leaves the inverse intact: V3 refuses it as a
# cross-check.  The h tamper moves the s derived from it as well
TAMPER_TABLE = {
    ("theta", "X"): (["theta", "V2", "V4"], PSI_Y + ["Psi^-1(theta)"]),
    ("w", "1"): (["V4"], PSI_Y + ["Psi^-1(w)"]),
    ("a", "Z"): (["V1", "V3", "V4"], None),
    ("b", "1"): (["V1", "V3"], []),
    ("h", "X"): (["V1b", "theta", "V2", "V4"],
                 ["f y' = P(x, z')"] + PSI_Y + ["Psi^-1(theta)", "Psi^-1(w)"]),
}


def test_each_tamper_fails_its_named_checks():
    for field, f, p in (CANCEL_Q_SHAPE[1], CANCEL_Q_SHAPE[4], CANCEL_Q_SHAPE[5]):
        cert = build_stable_iso(surf(field, f, p))
        for edit, (checks, identities) in TAMPER_TABLE.items():
            worse = _tampered(cert, (edit,))
            report = verify_stable_iso(worse)
            assert not report.ok, (field, edit)
            assert [c.name.split()[0] for c in report.failures()] == checks, (field, edit)
            assert _inverse_failures(worse) == identities, (field, edit)


def _sha256(doc):
    return hashlib.sha256(dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("f, phi, cert_digest, report_digest", [
    ("X^2*" + "*".join(f"(X-{i})" for i in range(1, 11)), "(Z+X)^12 - 1",
     "ccec8148a173badd27d4faa294e69638d20d4646cae7b8454e4b909a1a5ff46c",
     "d77aa51f9df53353b94e1bc204a017b8fdfcd25569977ceb08de394c11cc9506"),
    ("X^3*(X-1)*(X+2)", "(Z+X)^7 - 1",
     "4c7fb0296555d3b3ad4f2406ac45c2df91a73cf077b372c34e84d7e6de61bfc5",
     "ccd2c5fe34314e6f1f2c870759c04bce609761fd7fba21508af2930e4bc2f074"),
], ids=["d12r12", "d7r5"])
def test_q_certificate_bytes_are_pinned(f, phi, cert_digest, report_digest):
    # Bezout cofactors over Q carry denominators (a = (Z + X)/d), so these
    # documents pin the kernel's Q products and substitutions byte for byte
    cert = build_stable_iso(surf(QQ, f, phi))
    assert _sha256(stable_to_doc(cert)) == cert_digest
    assert _sha256(verify_stable_iso(cert).to_doc()) == report_digest


def test_q_family_bytes_are_pinned():
    fam = sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                       parse_poly("(Z+X)^12 - 1", QQ, ("X", "Z")), 2, 12)
    assert (_sha256(family_to_doc(fam))
            == "1efc735e8725c4425958119cb824c44b324dec0236b6fff59639918fd7a9a280")


@pytest.mark.parametrize("field, g, phi, n_to, digest", [
    (GF(2), "X + 1", "Z^2 + Z + X", 6,
     "205cdf00df1c6d474c5d3cae42efa2feaa15a570db83e48a3cfecdf7bfdbbd76"),
    (GF(3), "X + 1", "Z^3 + Z + X", 5,
     "067e15fdcec0e52e0476b44b1a244c810545afb4f53051bd9629fdc13e696f57"),
    (GF(5), "X^2 + 2", "(Z + X)^3 - 1", 5,
     "ae3af3ac5e69cc14501c3b82813d883a7bfb73a74344db41e181a83e0f2a366c"),
], ids=["F2", "F3", "F5"])
def test_fp_family_bytes_are_pinned(field, g, phi, n_to, digest):
    fam = sigma_family(field, parse_poly(g, field, ("X",)),
                       parse_poly(phi, field, ("X", "Z")), 2, n_to)
    assert fam.ok and _sha256(family_to_doc(fam)) == digest


# each tamper adds a term to one field of the certificate document, or, in the
# last, h' = h + X with theta' = h' v + z: the theta check passes, and
# x h' != f fails V1b
TAMPERS = tuple(((key, term),) for key, term in (
    ("theta", "X"), ("theta", "Z"), ("w", "X"), ("w", "1"), ("a", "Z"), ("b", "1"),
    ("h", "X"))) + ((("h", "X"), ("theta", "X*v")),)


def _tampered(cert, edits):
    doc = stable_to_doc(cert)
    for key, term in edits:
        if isinstance(doc[key], dict):       # an element: its y^0 coefficient
            coeffs = doc[key]["coeffs"]
            coeffs["0"] = f"{coeffs.get('0', '0')} + {term}"
        else:
            doc[key] = f"{doc[key]} + {term}"
    return stable_from_doc(doc)


def _same_report(report, cert):
    return dumps(report.to_doc()) == dumps(verify_stable_iso_by_evaluation(cert).to_doc())


@pytest.mark.parametrize("field, f, phi",
                         CANCEL_Q_SHAPE + ((GF(5), "X^2*(X+2)", "(Z + X)^3 - 1"),), ids=str)
def test_verify_matches_the_evaluating_oracle(field, f, phi):
    cert = build_stable_iso(surf(field, f, phi))
    assert verify_stable_iso(cert).ok and _same_report(verify_stable_iso(cert), cert)
    for edits in TAMPERS:
        worse = _tampered(cert, edits)
        report = verify_stable_iso(worse)
        assert not report.ok and _same_report(report, worse), edits
    paired = verify_stable_iso(_tampered(cert, TAMPERS[-1]))
    assert next(c for c in paired.checks if c.name.startswith("theta")).passed
    assert "V1b" in {c.name.split()[0] for c in paired.failures()}


@pytest.mark.parametrize("field, g, phi, n_to", [
    (QQ, "X - 1", "(Z + X)^12 - 1", 12),
    (GF(2), "X + 1", "Z^2 + Z + X", 6),
], ids=["Q", "F2"])
def test_family_link_reports_match_the_evaluating_oracle(field, g, phi, n_to):
    fam = sigma_family(field, parse_poly(g, field, ("X",)),
                       parse_poly(phi, field, ("X", "Z")), 2, n_to)
    assert len(fam.chain) == n_to - 2
    for link in fam.chain:
        assert _same_report(link.report, link.certificate)


def _counted_evaluations(monkeypatch, corrupt_p=False):
    """The polynomials ``cancel`` evaluates on elements; with ``corrupt_p``,
    every P(x, theta) comes back plus 1."""
    calls = []
    real = cancel.eval_poly_on_elements

    def counted(p, images, spec):
        calls.append(p)
        out = real(p, images, spec)
        return out + spec.one() if corrupt_p and p == spec.P else out

    monkeypatch.setattr(cancel, "eval_poly_on_elements", counted)
    return calls


def test_each_identity_is_evaluated_once_per_path(monkeypatch):
    calls = _counted_evaluations(monkeypatch)
    cert = build_stable_iso(surf(QQ, "X^3-X^2", "(Z+X)^5-1"))
    assert calls == [cert.spec_a.P, cert.a]
    calls.clear()
    assert verify_stable_iso(cert).ok
    assert calls == [cert.spec_a.P, cert.a]
    calls.clear()
    fam = sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                       parse_poly("(Z+X)^5-1", QQ, ("X", "Z")), 2, 5)
    assert fam.ok and len(fam.chain) == 3
    assert calls == [p for _ in fam.chain for p in (fam.surfaces[0].P, cert.a)]


def test_every_verify_evaluates_exactly_p_and_a(monkeypatch):
    cert = build_stable_iso(surf(QQ, "X^3-X^2", "(Z+X)^5-1"))
    calls = _counted_evaluations(monkeypatch)
    for edits in ((),) + TAMPERS:
        worse = _tampered(cert, edits)
        calls.clear()
        assert verify_stable_iso(worse).ok == (edits == ())
        assert calls == [worse.spec_a.P, worse.a], edits


def test_no_verify_builds_the_canonical_map(monkeypatch):
    assert "canonical_expmap" not in inspect.getsource(cancel)

    def refuse(spec):
        raise AssertionError("canonical_expmap called")

    monkeypatch.setattr(expmap, "canonical_expmap", refuse)
    cert = build_stable_iso(surf(QQ, "X^3-X^2", "(Z+X)^5-1"))
    assert verify_stable_iso(cert).ok
    worse = dataclasses.replace(cert, theta=cert.theta + cert.spec_a.z())
    assert [c.name.split()[0] for c in verify_stable_iso(worse).failures()] == [
        "theta", "V2", "V4"]
    assert sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                        parse_poly("(Z+X)^5-1", QQ, ("X", "Z")), 2, 5).ok


def test_a_corrupted_evaluation_fails_build_and_family(monkeypatch):
    _counted_evaluations(monkeypatch, corrupt_p=True)
    with pytest.raises(VerificationInternalError, match=r"\(Eq 8\) failed"):
        build_stable_iso(surf(QQ, "X^3-X^2", "Z^2+1"))
    with pytest.raises(VerificationInternalError) as failed:
        sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                     parse_poly("Z^2+1", QQ, ("X", "Z")), 2, 3)
    assert str(failed.value).startswith("chain certificate failed verification: ")
    assert "V2 h(x) s = P(x, theta)" in str(failed.value)
