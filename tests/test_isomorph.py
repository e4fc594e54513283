import random
import time
from fractions import Fraction

import pytest

from danielewski import (GF, QQ, Obstruction, Poly, Scalar, automorphisms,
                         compose_certificates, decide_isomorphism, fingerprint,
                         identity_certificate, invert_certificate, jsonio, parse_poly,
                         verify_iso)
from danielewski.errors import (FieldMismatchError, InfiniteFamilyError,
                                SearchCapExceededError)
from danielewski.isomorph import (DEFAULT_CAP, IsoCertificate, ObstructionKind,
                                  _affine_candidates, _binomials, _row_gcd)

from conftest import random_poly, surf, swinnerton_dyer
from oracles import (_affine_x, affine_pairs_by_enumeration, apply_certificate,
                     brute_force_certificates, cert_key, exhaustive_gamma_delta,
                     verify_iso_by_substitution)


def test_fingerprint_examples():
    fp = fingerprint(surf(QQ, "X^3-X^2", "Z^2+1"))
    assert (fp.d, fp.r) == (2, 3)
    assert fp.multiplicities == (1, 2) and fp.degrees == (1, 1)
    fp2 = fingerprint(surf(QQ, "X^4-X^3", "Z^2+1"))
    assert fp2.multiplicities == (1, 3) != fp.multiplicities
    s = surf(GF(2), "X^2+X", "Z^2")
    assert fingerprint(s) == fingerprint(s)


def test_ex45_automorphisms(surfaces):
    autos = automorphisms(surfaces[2])
    keys = {(str(c.lam), str(c.mu), str(c.gamma), str(c.delta)) for c in autos}
    assert ("1", "1", "1", "0") in keys  # T(x) = x + 1, T(y) = y, T(z) = z
    assert all(verify_iso(c).ok for c in autos)
    shift = [c for c in autos if c.mu == 1][0]
    assert shift.u == 1 and shift.theta_rem.is_zero


def test_ex46_automorphism_with_translation():
    autos = automorphisms(surf(GF(2), "X^2*(X+1)^2", "Z^2"))
    assert any(c.lam == 1 and c.mu == 1 for c in autos)


def test_cor43_x_scaling():
    autos = automorphisms(surf(QQ, "X^2*(X-1)", "Z^2+1"))
    assert autos and all(c.mu == 0 for c in autos)
    assert sorted(str(c.gamma) for c in autos) == ["-1", "1"]


def test_cor44_obstruction():
    res = decide_isomorphism(surf(QQ, "X^2*(X-1)", "Z^2+1"), surf(QQ, "X^3", "Z^2+1"))
    assert isinstance(res, Obstruction)
    assert res.kind is ObstructionKind.MULTIPLICITY_MULTISET_MISMATCH
    assert "Thm 4.1(ii)" in str(res)


def test_degree_obstructions():
    res = decide_isomorphism(surf(QQ, "X^2", "Z^2+1"), surf(QQ, "X^3", "Z^2+1"))
    assert isinstance(res, Obstruction) and res.kind is ObstructionKind.F_DEGREE_MISMATCH
    res = decide_isomorphism(surf(QQ, "X^2", "Z^2+1"), surf(QQ, "X^2", "Z^3+1"))
    assert isinstance(res, Obstruction) and res.kind is ObstructionKind.Z_DEGREE_MISMATCH


def test_no_affine_match_obstruction():
    # same r, d, multiplicity multisets, but irreducible factor degrees differ
    s1 = surf(QQ, "(X^2+1)*(X^2+2)", "Z^2")
    s2 = surf(QQ, "(X^3+2)*(X+1)", "Z^2")
    res = decide_isomorphism(s1, s2)
    assert isinstance(res, Obstruction) and res.kind is ObstructionKind.NO_AFFINE_MATCH
    assert "degree multisets" in res.detail


def test_no_gamma_delta_obstruction():
    # lam = 1, mu = 0 is forced, but z^0 needs gamma^2 = -1: no rational gamma
    s1 = surf(QQ, "X^2*(X-1)", "Z^2 + X")
    s2 = surf(QQ, "X^2*(X-1)", "Z^2 - X")
    res = decide_isomorphism(s1, s2)
    assert isinstance(res, Obstruction) and res.kind is ObstructionKind.NO_GAMMA_DELTA


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        decide_isomorphism(surf(QQ, "X^2", "Z^2"), surf(GF(2), "X^2", "Z^2"))


def test_infinite_families_over_q():
    with pytest.raises(InfiniteFamilyError) as err:
        decide_isomorphism(surf(QQ, "X^2", "Z^2+1"), surf(QQ, "X^2", "Z^2+1"))
    assert err.value.parameter == "lambda"
    assert err.value.representative  # lambda = 1 slice is populated
    with pytest.raises(InfiniteFamilyError) as err:
        decide_isomorphism(surf(QQ, "X^2*(X-1)", "Z^2"), surf(QQ, "X^2*(X-1)", "Z^2"))
    assert err.value.parameter == "gamma"
    assert all(verify_iso(c).ok for c in err.value.representative)


def test_search_cap():
    s = surf(GF(2), "X^2+X", "Z^2")
    with pytest.raises(SearchCapExceededError):
        decide_isomorphism(s, s, cap=1)


def test_tampered_certificate_fails():
    s = surf(QQ, "X^2*(X-1)", "Z^2+1")
    good = [c for c in automorphisms(s) if c.is_identity()][0]
    bad = IsoCertificate(good.source, good.target, good.lam, good.mu, good.gamma,
                         good.delta, Scalar(QQ, 2), good.theta_rem)
    report = verify_iso(bad)
    assert not report.ok
    assert any("Thm 4.2(III)" in c.tag for c in report.failures())


def test_certificate_really_encodes_a_homomorphism(surfaces):
    # pushing the defining relation through the map must give zero
    s45 = surfaces[2]
    for cert in automorphisms(s45):
        rel = parse_poly("X^2 + X", GF(2), ("X", "Z"))
        lhs = apply_certificate(cert, s45.y() * s45.from_xz_poly(rel)
                                - s45.from_xz_poly(s45.P))
        assert lhs.is_zero


def test_group_laws():
    s45 = surf(GF(2), "X^2+X", "Z^2")
    autos = automorphisms(s45)
    for c in autos:
        assert compose_certificates(invert_certificate(c), c).is_identity()
    shift = [c for c in autos if c.mu == 1][0]
    assert compose_certificates(shift, shift).is_identity()  # involution in F_2
    assert invert_certificate(identity_certificate(s45)).is_identity()


def test_compose_across_three_surfaces():
    s1 = surf(QQ, "X^2*(X-1)", "Z^2+1")
    s2 = surf(QQ, "X^2*(X-2)", "Z^2+1")      # image of s1 under x -> x/... checked below
    res12 = decide_isomorphism(s1, s2)
    if isinstance(res12, Obstruction):
        pytest.skip("sample surfaces not isomorphic; compose covered elsewhere")
    c12 = res12[0]
    back = invert_certificate(c12)
    assert compose_certificates(back, c12).is_identity()


def _random_surface(rng, field, r, d=2):
    p = field.modulus
    while True:
        f_terms = {(r,): 1}
        for i in range(r):
            c = rng.randrange(p)
            if c:
                f_terms[(i,)] = c
        f = Poly(field, ("X",), f_terms)
        c1 = random_poly(rng, field, ("X", "Z"), max_exp=2, max_terms=2).coeff_in("Z", 0)
        c0 = random_poly(rng, field, ("X", "Z"), max_exp=2, max_terms=3).coeff_in("Z", 0)
        P = (Poly.monomial(field, ("X", "Z"), (0, d))
             + c1.mul_var_power("Z", 1) + c0)
        return f, P


def _transformed_copy(rng, s1):
    """A genuinely isomorphic partner built from a random admissible map."""
    field = s1.field
    p = field.modulus
    return _copy_under(s1, Scalar(field, rng.randrange(1, p)), Scalar(field, rng.randrange(p)),
                       Scalar(field, rng.randrange(1, p)),
                       Poly(field, ("X",), {(i,): rng.randrange(p) for i in range(s1.r)}))


def _copy_under(s1, lam, mu, gamma, delta):
    """The partner that the map (lam, mu, gamma, delta) carries s1 onto."""
    from danielewski.poly import substitute
    field = s1.field
    x = Poly.variable(field, ("X",), "X")
    f2 = substitute(s1.f, {"X": x.scaled(lam) + Poly.const(field, ("X",), mu)},
                    vars_out=("X",)).scaled((lam ** s1.r).inverse())
    vars2 = ("X", "Z")
    xb = Poly.variable(field, vars2, "X").scaled(lam) + Poly.const(field, vars2, mu)
    zb = Poly.variable(field, vars2, "Z").scaled(gamma) + delta.with_vars(vars2)
    P2 = substitute(s1.P, {"X": xb, "Z": zb}, vars_out=vars2).scaled(
        (gamma ** s1.d).inverse())
    return surf_from(field, f2, P2)


def surf_from(field, f, P):
    from danielewski import make_surface
    return make_surface(field, f, P)


def test_solver_matches_bruteforce_oracle(rng):
    checked = 0
    positives = 0
    while checked < 60:
        field = GF(2) if checked % 2 else GF(3)
        r = 2 + (checked % 2)
        f1, P1 = _random_surface(rng, field, r)
        s1 = surf_from(field, f1, P1)
        mode = checked % 3
        if mode == 0:
            s2 = s1
        elif mode == 1:
            s2 = _transformed_copy(rng, s1)
        else:
            f2, P2 = _random_surface(rng, field, r)
            s2 = surf_from(field, f2, P2)
        expected = brute_force_certificates(s1, s2)
        result = decide_isomorphism(s1, s2)
        if isinstance(result, Obstruction):
            assert not expected, f"solver refuted but oracle found {expected}"
        else:
            got = {cert_key(c) for c in result}
            assert got == set(expected), (str(s1.f), str(s1.P), str(s2.f), str(s2.P))
            positives += 1
        checked += 1
    assert positives >= 10


def test_symmetry_and_inverse_verification(rng):
    seen = 0
    while seen < 24:
        field = GF(3)
        f1, P1 = _random_surface(rng, field, 2)
        s1 = surf_from(field, f1, P1)
        if seen % 2:
            s2 = _transformed_copy(rng, s1)
        else:
            s2 = surf_from(field, *_random_surface(rng, field, 2))
        fwd = decide_isomorphism(s1, s2)
        bwd = decide_isomorphism(s2, s1)
        assert isinstance(fwd, list) == isinstance(bwd, list)
        if isinstance(fwd, list):
            back_keys = {cert_key(c) for c in bwd}
            for c in fwd:
                assert cert_key(invert_certificate(c)) in back_keys
        seen += 1


def test_certificate_application_is_a_homomorphism(rng):
    from conftest import random_element
    s = surf(GF(3), "X^2*(X+1)", "Z^2+1")
    certs = automorphisms(s)
    for cert in certs:
        for _ in range(8):
            a = random_element(rng, s)
            b = random_element(rng, s)
            assert apply_certificate(cert, a + b) == \
                apply_certificate(cert, a) + apply_certificate(cert, b)
            assert apply_certificate(cert, a * b) == \
                apply_certificate(cert, a) * apply_certificate(cert, b)


def test_automorphism_set_is_a_group():
    # the solver's certificate set must be closed under composition and inverse
    autos = automorphisms(surf(GF(2), "X^2*(X+1)^2", "Z^2"))
    keys = {cert_key(c) for c in autos}
    assert len(autos) == 8
    for a in autos:
        assert cert_key(invert_certificate(a)) in keys
        for b in autos:
            assert cert_key(compose_certificates(a, b)) in keys


def test_composition_is_associative():
    autos = automorphisms(surf(GF(2), "X^2*(X+1)^2", "Z^2"))
    a, b, c = autos[1], autos[3], autos[5]
    lhs = compose_certificates(compose_certificates(a, b), c)
    rhs = compose_certificates(a, compose_certificates(b, c))
    assert cert_key(lhs) == cert_key(rhs)


def test_delta_elimination_over_q(rng):
    # nonzero z^(d-1) coefficient forces the linear delta route over Q
    from fractions import Fraction
    from danielewski.poly import substitute
    field = QQ
    f1 = parse_poly("X^2*(X-1)", field, ("X",))
    P1 = parse_poly("Z^2 + X*Z + X^3 + 1", field, ("X", "Z"))
    s1 = surf_from(field, f1, P1)
    gamma = Scalar(field, Fraction(3))
    delta = parse_poly("2*X - 1", field, ("X",))
    vars2 = ("X", "Z")
    zb = Poly.variable(field, vars2, "Z").scaled(gamma) + delta.with_vars(vars2)
    P2 = substitute(P1, {"Z": zb}, vars_out=vars2).scaled((gamma ** 2).inverse())
    s2 = surf_from(field, f1, P2)
    res = decide_isomorphism(s1, s2)
    assert isinstance(res, list)
    keys = [(str(c.lam), str(c.mu), str(c.gamma), str(c.delta)) for c in res]
    assert ("1", "0", "3", "2*X - 1") in keys
    assert all(verify_iso(c).ok for c in res)


def test_degree_three_p_solving():
    from danielewski.poly import substitute
    for field, ftext, ptext in ((QQ, "X^2*(X-3)", "Z^3 + X*Z + 2"),
                                (GF(5), "X^2*(X+1)", "Z^3 + 2*Z^2 + X*Z + 3")):
        s1 = surf(field, ftext, ptext)
        gamma = Scalar(field, 2)
        delta = parse_poly("X + 1", field, ("X",))
        vars2 = ("X", "Z")
        zb = Poly.variable(field, vars2, "Z").scaled(gamma) + delta.with_vars(vars2)
        P2 = substitute(s1.P, {"Z": zb}, vars_out=vars2).scaled((gamma ** 3).inverse())
        s2 = surf_from(field, s1.f, P2)
        res = decide_isomorphism(s1, s2)
        assert isinstance(res, list)
        assert ("2", "X + 1") in [(str(c.gamma), str(c.delta)) for c in res]


def test_fingerprints_of_isomorphic_pairs_agree(rng):
    for _ in range(10):
        field = GF(3)
        f1, P1 = _random_surface(rng, field, 3)
        s1 = surf_from(field, f1, P1)
        s2 = _transformed_copy(rng, s1)
        assert fingerprint(s1) == fingerprint(s2)


def _seeded_phi(rng, field, d):
    """Z^d plus seeded terms c X^a Z^j, a <= 1, j < d."""
    p = field.modulus
    terms = {(0, d): 1}
    for j in range(d):
        for a in range(2):
            terms[(a, j)] = rng.randrange(p)
    return Poly(field, ("X", "Z"), terms)


# (field, f, P or None for a seeded P, partner); p divides d throughout
# (d = p, or d = p^2 in the last case), so the solver takes its lifting branch
LIFTING_CASES = (
    (GF(5), "X^3*(X+1)", None, "moved"),            # repeated linear factor
    (GF(5), "(X^2+2)^2", None, "self"),             # q^2 with deg q = 2
    (GF(5), "X^3*(X^2+X+1)", "Z^5 + X^2 + 1", "self"),  # P = Z^p + c(X), r = 5
    (GF(7), "X^2*(X+1)", None, "random"),           # r = 3, no (gamma, delta)
    (GF(5), "X^3+X+1", None, "moved"),              # irreducible cubic
    (GF(7), "X^3+X+1", None, "self"),               # irreducible cubic
    (GF(2), "(X^3+X+1)^2", "Z^2 + Z + X", "self"),  # p = 2, deg q = 3: two roots in F_8
    (GF(3), "(X^2+1)^2", "Z^3 + X^2 + X", "self"),  # P = Z^p + c(X): every shift lifts
    (GF(3), "X^2*(X+1)", "Z^3 + X*Z^2 + Z + 1", "moved"),  # the Z^2 row pins gamma
    (GF(3), "X^2*(X+1)*(X+2)", "Z^9 + X*Z^3 + Z + X", "moved"),  # three linear q, d = p^2
)


def test_lifting_matches_exhaustive_oracle():
    rng = random.Random(5)
    outcomes = set()
    for field, f_text, p_text, partner in LIFTING_CASES:
        p = field.modulus
        f = parse_poly(f_text, field, ("X",))
        P = (parse_poly(p_text, field, ("X", "Z")) if p_text
             else _seeded_phi(rng, field, p))
        s1 = surf_from(field, f, P)
        if partner == "self":
            s2 = s1
        elif partner == "moved":
            s2 = _transformed_copy(rng, s1)
        else:
            s2 = surf_from(field, f, _seeded_phi(rng, field, p))
        result = decide_isomorphism(s1, s2)
        certs = [] if isinstance(result, Obstruction) else result
        pairs = affine_pairs_by_enumeration(s1, s2)
        assert pairs
        assert all((c.lam, c.mu) in pairs for c in certs)
        for lam, mu in pairs:
            expected = {(g.value, d.sort_key())
                        for g, d, _ in exhaustive_gamma_delta(s1, s2, lam, mu)}
            got = {(c.gamma.value, c.delta.sort_key()) for c in certs
                   if (c.lam, c.mu) == (lam, mu)}
            assert got == expected, (f_text, str(P), str(lam), str(mu))
            outcomes.add(bool(expected))
    assert outcomes == {True, False}


def _baseline(p):
    """The surface X^p (X+1), Z^p + Z + X over F_p: p divides d = p."""
    return surf(GF(p), f"X^{p}*(X+1)", f"Z^{p}+Z+X")


@pytest.mark.parametrize("p", [5, 7])
def test_baseline_automorphisms_form_a_group(p):
    autos = automorphisms(_baseline(p))
    assert any(c.is_identity() for c in autos)
    assert all(verify_iso(c).ok for c in autos)
    keys = {cert_key(c) for c in autos}
    for a in autos:
        assert cert_key(invert_certificate(a)) in keys
        for b in autos:
            assert cert_key(compose_certificates(a, b)) in keys


def test_cap_counts_candidates_examined():
    s = _baseline(5)
    # lambda = 1, mu = 0 only; per gamma, D = T^5 + T + (1 - gamma) X has a
    # simple root mod X and mod X + 1 (D' = 1), so X^5 produces one residue
    # at each of five powers, X + 1 one, and the CRT one combination:
    # 4 * (5 + 1 + 1) = 28
    assert automorphisms(s, cap=28)
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=27)
    assert err.value.cap == 27 and err.value.needed == 28


def test_cap_counts_affine_pairs_and_lifted_residues_together():
    # 5 divides r = 5: twenty (lambda, mu) pairs are tried, one survives;
    # then per gamma X^4 produces one residue at each of four powers, X + 1
    # one, and the CRT one combination: 20 + 4 * (4 + 1 + 1) = 44
    s = surf(GF(5), "X^4*(X+1)", "Z^5+Z+X")
    assert automorphisms(s, cap=20 + 4 * 6)
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=20 + 4 * 6 - 1)
    assert err.value.needed == 20 + 4 * 6


def test_cap_counts_crt_combinations():
    # lambda = 1, mu = 0 only; D = T^5 + (1 - gamma)(X^2 + 1) has one root
    # in F_125 for each gamma.  For gamma = 1 that root is 0, D' = 0 and D
    # vanishes, so all 125 shifts lift, and the CRT lists 125 combinations;
    # for the other three gammas no shift lifts: 1 + 125 + 125 + 3 = 254
    s = surf(GF(5), "(X^3+X+1)^2", "Z^5+X^2+1")
    assert len(automorphisms(s, cap=254)) == 125
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=253)
    assert err.value.needed == 254


def test_cap_refuses_crt_combinations_before_listing():
    # f = ((X + 5)(cubic))^2 over F_7: for lambda = gamma = 1, mu = 0 every
    # shift at the second power lifts, 7 residues mod (X + 5)^2 and 7^3 mod
    # cubic^2, and their 7 * 7^3 = 2401 combinations pass the cap; each
    # factor's own count stays under it
    s = surf(GF(7), "(X^4+X+3)^2", "Z^7+X")
    assert fingerprint(s).degrees == (1, 3)
    start = time.process_time()
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=2000)
    assert time.process_time() - start < 0.1
    assert err.value.needed >= 7 * 7 ** 3


def test_irreducible_octic_answers_at_the_default_cap():
    # irreducible f of degree 8 over F_7: the residues of delta mod f are
    # the roots in F_(7^8) of the defect's Z-coefficients, never listed
    s = surf(GF(7), "X^8+X+3", "Z^7+Z+X")
    assert fingerprint(s).degrees == (8,)
    certs = automorphisms(s, cap=DEFAULT_CAP)
    assert any(c.is_identity() for c in certs) and all(verify_iso(c).ok for c in certs)


def test_free_shifts_past_the_cap_are_refused():
    # f = q^2 with q = X^4 + X^2 + 3 irreducible over F_7 and P = Z^7 + X:
    # for lambda = gamma = 1, mu = 0, D = T^7 has the root 0 mod q, D' = 0
    # and D(0) = 0, so the second power frees all 7^4 shifts
    s = surf(GF(7), "(X^4+X^2+3)^2", "Z^7+X")
    assert fingerprint(s).degrees == (4,)
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=500)
    assert err.value.needed >= 7 ** 4


@pytest.mark.parametrize("f, phi", [("X^2", "Z^2+1"), ("X^2+1", "Z^2")],
                         ids=["free-lambda", "free-gamma"])
def test_free_parameter_over_fp_respects_cap(f, phi):
    # every lambda (resp. every gamma) solves the eliminated equations, so
    # listing them examines p - 1 candidates: refused before listing when
    # that passes the cap
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(surf(GF(1009), f, phi), cap=500)
    assert err.value.needed == 1008 and err.value.cap == 500
    s = surf(GF(11), f, phi)
    assert len(automorphisms(s, cap=10)) == 20
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=9)
    assert err.value.needed == 10


def test_elimination_branch_computes_one_dense_defect_per_gamma(monkeypatch):
    from danielewski import isomorph
    defects = _count_calls(monkeypatch, isomorph, "congruence_defect")
    sparse = _count_calls(monkeypatch, isomorph, "_defect")
    s = surf(GF(5), "X^2+X+1", "Z^3+2*Z+X")  # 5 does not divide d = 3: elimination
    certs = decide_isomorphism(s, s)
    # one dense defect per gamma checked: theta is the quotient of its rows
    # and the certificate's checks read them, so none is computed again
    assert certs and len(defects) == len(certs) and sparse == []
    assert len({(tuple(map(tuple, a[0])), a[1], tuple(a[2])) for a in defects}) == len(certs)
    assert all(verify_iso(c).ok for c in certs)


@pytest.mark.parametrize("p, r", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_elimination_matches_bruteforce_oracle_over_f5_f7(p, r):
    # p does not divide d, so gamma is read off the Taylor rows
    rng = random.Random(1000 * p + r)
    field = GF(p)
    degrees = [d for d in (2, 3, 4) if d % p]
    positives = 0
    for k in range(6 if p == 5 else 3):
        d = degrees[k % len(degrees)]
        f1, _ = _random_surface(rng, field, r)
        s1 = surf_from(field, f1, _seeded_phi(rng, field, d))
        mode = k % 3
        if mode == 0:
            s2 = s1
        elif mode == 1:
            s2 = _transformed_copy(rng, s1)
        else:
            s2 = surf_from(field, _random_surface(rng, field, r)[0], _seeded_phi(rng, field, d))
        expected = brute_force_certificates(s1, s2)
        result = decide_isomorphism(s1, s2)
        got = set() if isinstance(result, Obstruction) else {cert_key(c) for c in result}
        assert got == set(expected), (str(s1.f), str(s1.P), str(s2.f), str(s2.P))
        positives += bool(got)
    assert positives >= 2


@pytest.mark.parametrize("field, f_text, p_text", [
    (GF(5), "X^2+X+1", "Z^3 + (X^2+X+1)*Z + X + 2"),
    (GF(7), "X^3+X+1", "Z^3 + (X^3+X+1)*X*Z + 3*X^2"),
    (GF(7), "X^2+3", "Z^4 + 2*Z^3 + (X^2+3)*Z^2 + Z + X"),
])
def test_rows_that_vanish_mod_f2_constrain_nothing(field, f_text, p_text):
    # with P_1 = P_2 the W^(d-2) row has A = B = 0 mod f_2 (its coefficient
    # is a multiple of f), and so has a transformed copy's
    rng = random.Random(17)
    s1 = surf(field, f_text, p_text)
    for s2 in (s1, _transformed_copy(rng, s1)):
        expected = brute_force_certificates(s1, s2)
        result = decide_isomorphism(s1, s2)
        assert isinstance(result, list)
        assert {cert_key(c) for c in result} == set(expected)


def test_early_stop_keeps_both_rational_gammas():
    # W^2 row: 1 = gam^2 / 9, W^0 row: 1 = gam^4 / 81; the gcd stops at
    # T^2 - 9 and keeps gamma = 3 and gamma = -3
    s1 = surf(QQ, "X^2*(X-1)", "Z^4 + Z^2 + 1")
    s2 = surf(QQ, "X^2*(X-1)", "Z^4 + 1/9*Z^2 + 1/81")
    result = decide_isomorphism(s1, s2)
    assert sorted(str(c.gamma) for c in result) == ["-3", "3"]
    assert all(c.delta.is_zero and verify_iso(c).ok for c in result)


def _record_candidates(monkeypatch):
    """(lam, mu, gamma, certificate or None) of every candidate the solver
    hands to ``_Pair.certificate``."""
    from danielewski import isomorph
    candidates = []
    original = isomorph._Pair.certificate

    def recorded(pair, gamma, delta):
        cert = original(pair, gamma, delta)
        candidates.append((pair.lam, pair.mu, gamma, cert))
        return cert
    monkeypatch.setattr(isomorph._Pair, "certificate", recorded)
    return candidates


def test_early_stop_candidates_are_confirmed_by_the_division(monkeypatch):
    # the W^2 and W^1 rows give T^2 - 1 and T^3 - 1, so the gcd stops at
    # T - 1; the W^0 row (X vs 2X, -X vs 2X for lambda = -1) is left to the
    # division of the dense defect by f_2, which refutes gamma = 1 for both
    # (lambda, mu) before any certificate is built
    from danielewski import isomorph
    candidates = _record_candidates(monkeypatch)
    defects = _count_calls(monkeypatch, isomorph, "congruence_defect")
    reports = _count_calls(monkeypatch, isomorph, "_iso_report")
    s1 = surf(GF(7), "X^2+3", "Z^4 + Z^2 + Z + X")
    s2 = surf(GF(7), "X^2+3", "Z^4 + Z^2 + Z + 2*X")
    result = decide_isomorphism(s1, s2)
    assert isinstance(result, Obstruction) and result.kind is ObstructionKind.NO_GAMMA_DELTA
    assert [c[2] for c in candidates] == [Scalar(GF(7), 1)] * 2
    assert len({(c[0], c[1]) for c in candidates}) == 2
    assert all(c[3] is None for c in candidates)
    assert len(defects) == 2 and reports == []
    assert not brute_force_certificates(s1, s2)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_lifting_lifts_only_the_gamma_a_t_free_row_allows(monkeypatch):
    # d = p = 5: the Z^4 row of P_1(lam X + mu, Z + T) is free of T, and
    # c2_4 != 0 mod f_2 makes it pin gamma, so delta is lifted for at most
    # one gamma per (lambda, mu), where enumerating gamma lifted for all 4
    from danielewski import isomorph
    from danielewski.poly import divmod_in
    field = GF(5)
    phi = " + ".join(["Z^5"] + [f"{1 + (3 * j + a) % 4}*X^{a}*Z^{j}"
                                for j in range(5) for a in range(3)])
    s1 = surf(field, "X^3+2*X+1", phi)
    s2 = _transformed_copy(random.Random(3), s1)
    assert not divmod_in(s2.P.coeff_in("Z", 4), s2.f.with_vars(("X", "Z")), "X")[1].is_zero
    lifts = _count_calls(monkeypatch, isomorph._DeltaLifting, "deltas")
    pairs = _count_calls(monkeypatch, isomorph, "_gamma_delta_solutions")
    result = decide_isomorphism(s1, s2)
    assert isinstance(result, list)
    assert pairs and len(lifts) <= len(pairs)
    assert {cert_key(c) for c in result} == set(brute_force_certificates(s1, s2))


def test_baseline_lifts_every_gamma(monkeypatch):
    # Z^5 + Z + X: no T-free row constrains gamma (the Z^1 row asks
    # gamma^4 = 1, true on all of F_5^*), so each of the four gammas is
    # lifted, and each gives one certificate
    from danielewski import isomorph
    lifts = _count_calls(monkeypatch, isomorph._DeltaLifting, "deltas")
    autos = automorphisms(_baseline(5))
    assert len(lifts) == 4
    assert sorted((str(c.gamma), str(c.delta)) for c in autos) == [
        ("1", "0"), ("2", "2*X^5 + X"), ("3", "4*X^5 + 2*X"), ("4", "X^5 + 3*X")]


def test_fp_roots_of_a_quadratic_gcd_factor_nothing(monkeypatch):
    # over F_5, with p dividing neither d nor r, the lambda rows reduce to
    # 3 (1 - lambda^2) / 4 and the gamma rows to gamma^2 = 1: both gcds have
    # degree 2, and their roots are read without a factorization
    from danielewski import factor, isomorph
    calls = _count_calls(monkeypatch, factor, "factor_univariate")
    monkeypatch.setattr(isomorph, "factor_univariate", factor.factor_univariate)
    s = surf(GF(5), "X^2+X+1", "Z^2+X")
    result = decide_isomorphism(s, s)
    assert calls == []
    assert sorted(str(c.gamma) for c in result) == ["1", "4"]
    assert {cert_key(c) for c in result} == set(brute_force_certificates(s, s))


def test_fp_roots_construct_no_fq(monkeypatch):
    # p divides neither d nor r: the lambda and gamma gcds (lambda^12 = 1,
    # gamma^12 = 1, 12 roots each) are split on ints, with no F_p[X]/(q)
    from danielewski import dense
    calls = _count_calls(monkeypatch, dense.Fq, "__init__")
    s = surf(GF(97), "X^12", "Z^12+1")
    assert len(decide_isomorphism(s, s)) == 1152
    assert calls == []


def _gamma_gcd(rows, m):
    """The gcd the solver reads gamma off: the binomials of the (a, b, e)
    rows, pulled by the gcd loop of (III)."""
    return _row_gcd(_binomials(rows, m), m)


@pytest.mark.parametrize("m", [5, 7, 0], ids=["F5", "F7", "Q"])
def test_binomial_rows_read_by_the_row_gcd(m):
    # a = c b asks gamma^e = c; a not a scalar multiple of b, or only one of
    # them zero, cannot be solved; a = b = 0 constrains nothing
    c = 3 if m else Fraction(3, 2)
    b = [1, 2]
    a = [c * v % m for v in b] if m else [c * v for v in b]
    expected = [-c % m, 0, 0, 1] if m else [-c, 0, 0, 1]
    assert _gamma_gcd([(a, b, 3)], m) == expected
    assert _gamma_gcd([([1, 1], b, 3)], m) == [1]
    assert _gamma_gcd([([], b, 3)], m) == _gamma_gcd([(a, [], 3)], m) == [1]
    assert _gamma_gcd([([], [], 3)], m) == []
    assert _gamma_gcd([([], [], 3), ([], [], 2)], m) == []
    if m:
        # gamma^(p-1) = 1 on F_p^*: e = 0 mod p - 1 asks c = 1
        assert _gamma_gcd([(a, b, m - 1)], m) == [1]
        assert _gamma_gcd([(b, b, 2 * (m - 1))], m) == []


def test_two_binomial_rows_leave_their_gcd():
    # gamma^4 = 1 and gamma^6 = 1 leave gamma^2 = 1 over Q; over F_7,
    # gamma^6 = 1 holds on all of F_7^* and leaves gamma^4 = 1, while
    # gamma^8 = gamma^2 there
    one = [1, 2]
    assert _gamma_gcd([(one, one, 4), (one, one, 6)], 0) == [-1, 0, 1]
    assert _gamma_gcd([(one, one, 4), (one, one, 6)], 7) == [6, 0, 0, 0, 1]
    assert _gamma_gcd([(one, one, 4), (one, one, 8)], 7) == [6, 0, 1]


@pytest.mark.parametrize("m", [5, 7, 0], ids=["F5", "F7", "Q"])
def test_row_gcd_pulls_no_row_past_an_unsolvable_one(m):
    def rows(first):
        yield first
        raise AssertionError("a row past the stop was pulled")
    assert _gamma_gcd(rows(([1, 1], [1, 2], 3)), m) == [1]
    assert _gamma_gcd(rows(([], [1], 2)), m) == [1]
    # a binomial of degree 1 stops the gcd too
    assert len(_gamma_gcd(rows(([2], [1], 1)), m)) == 2


@pytest.mark.parametrize("field, f, phi, built", [
    (GF(3), "X^9-X", "Z^9+Z^3+Z", 0),
    (GF(7), "X^7-X", "Z^7+Z", 0),
    (GF(97), "X^12", "Z^12+1", 1 + 96),
], ids=["F3", "F7", "F97"])
def test_taylor_rows_serve_only_the_elimination_branch(monkeypatch, field, f, phi, built):
    # when p divides d the lifting reads P_2's rows mod f_2 as they are;
    # otherwise one W-row table of P_2 per decision, and one of P_1 per
    # (lambda, mu): 96 pairs over F_97
    from danielewski import isomorph
    tables = _count_calls(monkeypatch, isomorph, "_TaylorRows")
    s = surf(field, f, phi)
    assert decide_isomorphism(s, s)
    assert len(tables) == built


def _forbid(monkeypatch, owner_name, attr):
    """Every binding in the package of ``owner_name.attr`` raises when called."""
    import sys
    original = getattr(sys.modules[f"danielewski.{owner_name}"], attr)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{attr} called")
    for name, module in list(sys.modules.items()):
        if name == "danielewski" or name.startswith("danielewski."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, forbidden)


def test_solver_and_certificate_algebra_substitute_nothing(monkeypatch):
    # (III) is a Horner shift and (vi) a dense defect: with every binding of
    # substitute, and the sparse defect, raising, each branch still decides,
    # and so do inverse, composition and identity; the certificates then
    # pass the substitution oracle
    _forbid(monkeypatch, "poly", "substitute")
    _forbid(monkeypatch, "isomorph", "_defect")
    certs = []
    for field, f, phi in ((GF(5), "X^2+X+1", "Z^3+2*Z+X"),    # elimination, p does not divide r
                          (GF(5), "X^4*(X+1)", "Z^5+Z+X"),    # lifting, p | r
                          (GF(3), "X^3+2*X+1", "Z^2+X*Z+1"),  # elimination, p | r
                          (GF(3), "X^3-X", "Z^9+Z^3+Z"),      # lifting, d = p^2
                          (GF(7), "X^3+X+1", "Z^4+X*Z^3+Z"),
                          (QQ, "X^2*(X-1)", "Z^2+X*Z+1")):
        s = surf(field, f, phi)
        found = decide_isomorphism(s, s)
        assert found
        certs += found
        certs += [invert_certificate(found[-1]), compose_certificates(found[-1], found[0]),
                  identity_certificate(s)]
    with pytest.raises(InfiniteFamilyError) as err:
        decide_isomorphism(surf(QQ, "X^2", "Z^2+1"), surf(QQ, "X^2", "Z^2+1"))
    certs += err.value.representative
    monkeypatch.undo()
    assert all(verify_iso_by_substitution(c).ok for c in certs)


def _moved_f(f, lam, mu):
    """lam^(-r) f(lam X + mu): f transported by a known pair."""
    field = f.field
    lam, mu = Scalar(field, lam), Scalar(field, mu)
    return _affine_x(f, lam, mu).scaled((lam ** f.total_degree()).inverse())


def _monic(field, coeffs):
    return Poly(field, ("X",), {(i,): c for i, c in enumerate(list(coeffs) + [1])})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_affine_solve_matches_enumeration_oracle(p):
    # rigid f, X^r, (X + c)^r and X^p - X, against themselves, a transformed
    # copy and a random partner, for r with p | r and with p not dividing r
    rng = random.Random(31 * p)
    field = GF(p)
    phi = parse_poly("Z^2", field, ("X", "Z"))
    degrees = sorted({2, 3, 4, p} | ({2 * p} if 2 * p <= 8 else set()))
    assert any(r % p == 0 for r in degrees) and any(r % p for r in degrees)
    positives = 0
    for r in degrees:
        c = rng.randrange(1, p)
        fs = [_monic(field, [rng.randrange(p) for _ in range(r)]),
              parse_poly(f"X^{r}", field, ("X",)),
              parse_poly(f"(X+{c})^{r}", field, ("X",))]
        if r == p:
            fs.append(parse_poly(f"X^{p}-X", field, ("X",)))
        for f in fs:
            lam, mu = rng.randrange(1, p), rng.randrange(p)
            other = _monic(field, [rng.randrange(p) for _ in range(r)])
            for k, f2 in enumerate((f, _moved_f(f, lam, mu), other)):
                s1, s2 = surf_from(field, f, phi), surf_from(field, f2, phi)
                pairs, free, examined = _affine_candidates(s1, s2, DEFAULT_CAP)
                expected = affine_pairs_by_enumeration(s1, s2)
                assert not free and len(pairs) == len(set(pairs))
                assert set(pairs) == set(expected), (str(f), str(f2))
                assert examined == ((p - 1) * p if r % p == 0 else 0)
                if k == 1:
                    assert (Scalar(field, lam), Scalar(field, mu)) in pairs
                positives += bool(pairs)
    assert positives >= 2 * len(degrees)


@pytest.mark.parametrize("p, f1, f2", [
    (5, "X^4+2*X^3+3*X+1", "X^4+2*X^3+3*X+3"),    # p does not divide r
    (7, "X^4+4*X^3+3*X+3", "X^4+4*X^3+3*X+2"),
    (3, "X^3+X^2+X", "X^3+X^2+2"),                # p | r
])
def test_affine_candidates_of_an_early_stop_are_confirmed(monkeypatch, p, f1, f2):
    # the gcd of the rows read first has degree <= 1; the rows left unread
    # refute its root, so no pair survives
    from danielewski import isomorph
    checks = _count_calls(monkeypatch, isomorph, "_transports")
    s1, s2 = surf(GF(p), f1, "Z^2"), surf(GF(p), f2, "Z^2")
    assert not affine_pairs_by_enumeration(s1, s2)
    assert _affine_candidates(s1, s2, DEFAULT_CAP)[0] == []
    assert len(checks) == 1


def test_decision_with_a_pair_factors_only_for_the_lifting(monkeypatch):
    from danielewski import isomorph
    calls = _count_calls(monkeypatch, isomorph, "factor_univariate")
    s = surf(GF(5), "X^2+X+1", "Z^3+2*Z+X")      # 5 does not divide d = 3: elimination
    assert decide_isomorphism(s, _transformed_copy(random.Random(2), s))
    assert calls == []
    s1 = surf(GF(5), "X^3*(X+1)", "Z^5+Z+X")     # 5 divides d: lifting
    s2 = _transformed_copy(random.Random(4), s1)
    assert decide_isomorphism(s1, s2)
    assert [args[0] for args in calls] == [s2.f]


def test_automorphisms_factor_f_once(monkeypatch):
    from danielewski import isomorph
    calls = _count_calls(monkeypatch, isomorph, "factor_univariate")
    assert automorphisms(_baseline(5))
    assert [str(args[0]) for args in calls] == ["X^6 + X^5", "X + 1"]


def test_defect_is_evaluated_only_by_verify_iso(monkeypatch):
    # the solver substitutes nothing; verify_iso, the independent re-check,
    # evaluates (vi) by one sparse substitution per certificate
    import sys
    from danielewski import isomorph
    callers = {"substitute": [], "_defect": []}
    for name in callers:
        original = getattr(isomorph, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            callers[_name].append(sys._getframe(1).f_code.co_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(isomorph, name, recorded)
    certs = []
    for field, f, phi in ((GF(5), "X^2+X+1", "Z^3+2*Z+X"),    # elimination, p does not divide r
                          (GF(5), "X^4*(X+1)", "Z^5+Z+X"),    # lifting, p | r
                          (GF(3), "X^3+2*X+1", "Z^2+X*Z+1"),  # elimination, p | r
                          (QQ, "X^2*(X-1)", "Z^2+X*Z+1")):
        s = surf(field, f, phi)
        certs += decide_isomorphism(s, s)
    assert certs and callers == {"substitute": [], "_defect": []}
    assert all(verify_iso(c).ok for c in certs)
    assert callers == {"substitute": ["_defect"] * len(certs),
                       "_defect": ["verify_iso"] * len(certs)}


def test_one_dense_defect_per_candidate(monkeypatch):
    # the dense defect of (vi), once per candidate and never a substitution;
    # (III) is a Horner shift, and an elimination candidate that the
    # division of its defect refutes costs the defect alone
    from danielewski import isomorph
    rng = random.Random(8)
    pairs = []
    for field, f, phi in ((GF(5), "X^2+X+1", "Z^3+2*Z+X"),    # elimination, p does not divide r
                          (GF(3), "X^3+2*X+1", "Z^2+X*Z+1"),  # elimination, p | r
                          (GF(5), "X^5*(X+1)", "Z^5+Z+X"),    # lifting, the Baseline surface
                          (GF(7), "X^2+3", "Z^4+Z^2+Z+X")):
        s = surf(field, f, phi)
        pairs += [(s, s), (s, _transformed_copy(rng, s))]
    pairs += [(surf(GF(7), "X^2+3", "Z^4 + Z^2 + Z + X"),   # two refuted candidates
               surf(GF(7), "X^2+3", "Z^4 + Z^2 + Z + 2*X")),
              (surf(QQ, "X^2*(X-1)", "Z^4 + Z^2 + 1"),
               surf(QQ, "X^2*(X-1)", "Z^4 + 1/9*Z^2 + 1/81"))]
    substitutions = _count_calls(monkeypatch, isomorph, "substitute")
    defects = _count_calls(monkeypatch, isomorph, "congruence_defect")
    candidates = _record_candidates(monkeypatch)
    decisions = [lambda s1=s1, s2=s2: decide_isomorphism(s1, s2) for s1, s2 in pairs]
    decisions += [lambda s=s: automorphisms(s) for s, t in pairs if s is t]
    total = 0
    for decide in decisions:
        defects.clear()
        candidates.clear()
        result = decide()
        certs = [] if isinstance(result, Obstruction) else result
        refuted = sum(c[3] is None for c in candidates)
        assert len(defects) == len(candidates) == len(certs) + refuted
        total += refuted
    assert total >= 2 and substitutions == []


# (field, f, P or None for a seeded P of degree d, d); each surface is
# decided against itself and a moved copy.  Over F_p both branches: p | d
# (the sparse shapes Z^p + Z + X and Z^9 + Z^3 + Z among them) and p not
# dividing d; over Q the elimination branch
DENSE_DEFECT_CASES = (
    (GF(2), "X^2+X+1", "Z^2+Z+X", 2),
    (GF(2), "X^3+X+1", None, 4),
    (GF(2), "X^3+X+1", None, 3),
    (GF(3), "X^2+1", "Z^3+Z+X", 3),
    (GF(3), "X^3-X", "Z^9+Z^3+Z", 9),
    (GF(3), "X^2*(X+1)", None, 2),
    (GF(5), "X^2+2", "Z^5+Z+X", 5),
    (GF(5), "X^3+2*X+1", None, 5),
    (GF(5), "X^2+X+1", None, 3),
    (GF(7), "X^2+3", "Z^7+Z+X", 7),
    (GF(7), "X^3+X+1", None, 4),
    (QQ, "X^2+1", "Z^3 + X*Z + 1", 3),
    (QQ, "X^2*(X-1)", "Z^4 + Z^2 + 1", 4),
)


def test_dense_defect_matches_the_substitution_oracle(monkeypatch):
    # every emitted certificate passes the oracle, and its theta is the
    # sparse quotient of the defect by f_2; the F7 pair and the Q pair of
    # the early stop add refuted candidates
    from danielewski.isomorph import _defect
    from danielewski.poly import divmod_in
    rng = random.Random(31)
    pairs = []
    for field, f_text, p_text, d in DENSE_DEFECT_CASES:
        P = (parse_poly(p_text, field, ("X", "Z")) if p_text
             else _seeded_phi(rng, field, d))
        s = surf_from(field, parse_poly(f_text, field, ("X",)), P)
        if field.modulus:
            moved = _transformed_copy(rng, s)
        else:
            moved = _copy_under(s, Scalar(QQ, -1), Scalar(QQ, 0), Scalar(QQ, 2),
                                parse_poly("3/2*X - 1", QQ, ("X",)))
        pairs += [(s, s, True), (s, moved, True)]
    pairs += [(surf(GF(7), "X^2+3", "Z^4 + Z^2 + Z + X"),
               surf(GF(7), "X^2+3", "Z^4 + Z^2 + Z + 2*X"), False),
              (surf(QQ, "X^2*(X-1)", "Z^4 + Z^2 + 1"),
               surf(QQ, "X^2*(X-1)", "Z^4 + 1/9*Z^2 + 1/81"), True)]
    candidates = _record_candidates(monkeypatch)
    branches, count = set(), 0
    for s1, s2, isomorphic in pairs:
        result = decide_isomorphism(s1, s2)
        certs = [] if isinstance(result, Obstruction) else result
        assert bool(certs) == isomorphic, (str(s1.f), str(s1.P), str(s2.P))
        for cert in certs:
            assert verify_iso_by_substitution(cert).ok
            theta, rem = divmod_in(_defect(s1, s2, cert.lam, cert.mu, cert.gamma, cert.delta),
                                   s2.f.with_vars(("X", "Z")), "X")
            assert rem.is_zero and theta == cert.theta_rem
        count += len(certs)
        if certs:
            p = s1.field.modulus
            branches.add((p, bool(p) and s1.d % p == 0))
    assert {(p, lifting) for p, lifting in branches if p} == {
        (p, lifting) for p in (2, 3, 5, 7) for lifting in (False, True)}
    assert (0, False) in branches
    assert sum(c[3] is None for c in candidates) >= 2 and count >= 400


@pytest.mark.parametrize("field, f, phi, pairs, count", [
    (GF(7), "X^7-X", "Z^7+Z", 42, 252),
    (GF(97), "X^12", "Z^12+1", 96, 1152),
], ids=["F7", "F97"])
def test_one_transport_line_per_affine_pair(monkeypatch, field, f, phi, pairs, count):
    # (III) depends on (lam, mu) alone: every certificate of a pair shares
    # the f-transport line built for it
    from danielewski import isomorph
    s = surf(field, f, phi)
    assert len(_affine_candidates(s, s, DEFAULT_CAP)[0]) == pairs
    lines = _count_calls(monkeypatch, isomorph, "_transport_check")
    assert len(automorphisms(s)) == count
    assert len(lines) == pairs


def _same_iso_report(cert):
    report = verify_iso(cert)
    assert jsonio.dumps(report.to_doc()) == jsonio.dumps(verify_iso_by_substitution(cert).to_doc())
    return report.ok


def test_verify_matches_substitution_oracle():
    # every certificate, and copies with theta, delta, u, lambda or gamma
    # tampered, get the oracle's report byte for byte, failure details too
    rng = random.Random(6)
    pairs = []
    for field, f, phi in ((GF(5), "X^2+X+1", "Z^3+2*Z+X"),           # elimination
                          (GF(5), "X^3*(X+1)", "Z^5+Z+X"),           # lifting
                          (GF(7), "X^3+X+1", "Z^3 + (X^3+X+1)*X*Z + 3*X^2"),
                          (GF(7), "X^2+3", "Z^4 + 2*Z^3 + (X^2+3)*Z^2 + Z + X")):
        s = surf(field, f, phi)
        pairs += [(s, s), (s, _transformed_copy(rng, s))]
    pairs += [(surf(QQ, "X^2*(X-1)", "Z^4 + Z^2 + 1"),
               surf(QQ, "X^2*(X-1)", "Z^4 + 1/9*Z^2 + 1/81")),
              (surf(QQ, "X^2*(X-1)", "Z^2+X*Z+1"),) * 2, (_baseline(5),) * 2]
    verified = refuted = 0
    for s1, s2 in pairs:
        for cert in decide_isomorphism(s1, s2):
            assert _same_iso_report(cert)
            verified += 1
            doc = jsonio.iso_to_doc(cert)
            for key, value in (("theta", doc["theta"] + " + X*Z"),
                               ("delta", doc["delta"] + " + 1"),
                               ("u", "2"), ("lambda", "3"), ("gamma", "2")):
                refuted += not _same_iso_report(jsonio.iso_from_doc({**doc, key: value}))
    assert verified >= 20 and refuted >= 3 * verified


@pytest.mark.parametrize("field, f, phi, count, digest", [
    (GF(7), "X^7-X", "Z^7+Z", 252,
     "f9d1bbc101bd7ad6947f6c7e2f62f8c2d8203640ec1f4e24f532d4c5edd2dac7"),
    (GF(5), "X^5*(X+1)", "Z^5+Z+X", 4,
     "9c98fea521105c434f7be9443a6451a4898e9c596428a3585d44e6fb497ca2f0"),
    (GF(97), "X^12", "Z^12+1", 1152,
     "5ef34d58aea4d3252770b92e4b54b422591313db468f3315126ef330545f8ca1"),
    (GF(3), "X^9-X", "Z^9+Z^3+Z", 8748,
     "a15c9a9057de8136ba8290c658d1a876bb1d13a5207d3ed8a436ebea5cda0f8c"),
    (GF(11), "X^11-X", "Z^11+Z+X", 1100,
     "1a351721856c2410d83f8c13c8b75e27048cdbea521cd37bd7f771f5209138bf"),
    (GF(11), "X^11-X", "Z^11+Z", 1100,
     "275bdaa3acebfce2340634c79580503408fcd673d53248823dca3a148d273a88"),
], ids=["F7", "F5", "F97", "F3", "F11-X", "F11"])
def test_automorphism_certificate_bytes_are_pinned(field, f, phi, count, digest):
    import hashlib
    certs = automorphisms(surf(field, f, phi))
    text = jsonio.dumps([jsonio.iso_to_doc(c) for c in certs])
    assert len(certs) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_multiplicity_obstruction_precedes_a_refused_affine_search():
    # 23 divides r = 23: the (lambda, mu) search would cover 22 * 23 = 506
    # pairs, past the cap, but the multisets {23} and {1, 22} already differ
    res = decide_isomorphism(surf(GF(23), "(X+1)^23", "Z^2"),
                             surf(GF(23), "X^22*(X+1)", "Z^2"), cap=500)
    assert isinstance(res, Obstruction)
    assert res.kind is ObstructionKind.MULTIPLICITY_MULTISET_MISMATCH
    s = surf(GF(23), "X^23+X+1", "Z^2")
    with pytest.raises(SearchCapExceededError) as err:
        decide_isomorphism(s, s, cap=500)
    assert err.value.needed == 506 and err.value.cap == 500


def test_a_pair_answers_without_factoring_past_the_zassenhaus_bound():
    # f of degree 32 needs 2516 recombination subsets to factor, past the
    # bound; the decision finds lambda = 1, mu = 0 and never factors f
    s = surf_from(QQ, swinnerton_dyer((2, 3, 5, 7, 11)), parse_poly("Z^2 + X", QQ, ("X", "Z")))
    certs = decide_isomorphism(s, s)
    assert sorted(str(c.gamma) for c in certs) == ["-1", "1"]
    assert all(c.lam == 1 and c.mu == 0 and verify_iso(c).ok for c in certs)

