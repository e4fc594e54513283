import random

import pytest

from danielewski import (GF, QQ, Obstruction, Poly, Scalar, automorphisms,
                         compose_certificates, decide_isomorphism, fingerprint,
                         identity_certificate, invert_certificate, parse_poly,
                         verify_iso)
from danielewski.errors import (FieldMismatchError, InfiniteFamilyError,
                                SearchCapExceededError)
from danielewski.isomorph import (DEFAULT_CAP, IsoCertificate, ObstructionKind,
                                  _affine_x, apply_certificate)

from conftest import random_poly, surf
from oracles import brute_force_certificates, exhaustive_gamma_delta


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
    from danielewski.poly import substitute
    field = s1.field
    p = field.modulus
    lam = Scalar(field, rng.randrange(1, p))
    mu = Scalar(field, rng.randrange(p))
    gamma = Scalar(field, rng.randrange(1, p))
    delta = Poly(field, ("X",),
                 {(i,): rng.randrange(p) for i in range(s1.r)})
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
            got = {c.tuple_key() for c in result}
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
            back_keys = {c.tuple_key() for c in bwd}
            for c in fwd:
                assert invert_certificate(c).tuple_key() in back_keys
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
    keys = {c.tuple_key() for c in autos}
    assert len(autos) == 8
    for a in autos:
        assert invert_certificate(a).tuple_key() in keys
        for b in autos:
            assert compose_certificates(a, b).tuple_key() in keys


def test_composition_is_associative():
    autos = automorphisms(surf(GF(2), "X^2*(X+1)^2", "Z^2"))
    a, b, c = autos[1], autos[3], autos[5]
    lhs = compose_certificates(compose_certificates(a, b), c)
    rhs = compose_certificates(a, compose_certificates(b, c))
    assert lhs.tuple_key() == rhs.tuple_key()


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


# (field, f, P or None for a seeded P, partner); d = p throughout, so the
# solver takes its lifting branch
LIFTING_CASES = (
    (GF(5), "X^3*(X+1)", None, "moved"),            # repeated linear factor
    (GF(5), "(X^2+2)^2", None, "self"),             # q^2 with deg q = 2
    (GF(5), "X^3*(X^2+X+1)", "Z^5 + X^2 + 1", "self"),  # P = Z^p + c(X), r = 5
    (GF(7), "X^2*(X+1)", None, "random"),           # r = 3, no (gamma, delta)
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
        pairs = [(Scalar(field, a), Scalar(field, b)) for a in range(1, p) for b in range(p)
                 if _affine_x(s1.f, Scalar(field, a), Scalar(field, b))
                 == s2.f.scaled(Scalar(field, a) ** s1.r)]
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
    keys = {c.tuple_key() for c in autos}
    for a in autos:
        assert invert_certificate(a).tuple_key() in keys
        for b in autos:
            assert compose_certificates(a, b).tuple_key() in keys


def test_cap_counts_candidates_examined():
    s = _baseline(5)
    assert automorphisms(s, cap=500)
    # lambda = 1, mu = 0 only; per gamma, X^5 lifts over five levels and
    # X + 1 takes one, 120 candidates in all
    assert automorphisms(s, cap=120)
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=119)
    assert err.value.cap == 119 and err.value.needed > 119


def test_cap_counts_affine_pairs_and_lifted_residues_together():
    # 5 divides r = 5: twenty (lambda, mu) pairs are tried, one survives;
    # then per gamma X^4 lifts over four levels and X + 1 takes one
    s = surf(GF(5), "X^4*(X+1)", "Z^5+Z+X")
    assert automorphisms(s, cap=20 + 4 * 25)
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s, cap=20 + 4 * 25 - 1)
    assert err.value.needed == 20 + 4 * 25


def test_unreachable_cap_is_refused_before_lifting():
    # irreducible f of degree 8 over F_7: every gamma must try all 7^8
    # residues of the first level, so the default cap is refused up front
    s = surf(GF(7), "X^8+X+3", "Z^7+Z+X")
    assert fingerprint(s).degrees == (8,)
    with pytest.raises(SearchCapExceededError) as err:
        automorphisms(s)
    assert err.value.needed == 6 * 7 ** 8 > DEFAULT_CAP


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


def test_elimination_branch_reuses_theta(monkeypatch):
    from danielewski import isomorph
    calls = []
    original = isomorph._congruence_split
    monkeypatch.setattr(isomorph, "_congruence_split",
                        lambda *args: calls.append(args[4]) or original(*args))
    s = surf(GF(5), "X^2+X+1", "Z^3+2*Z+X")  # 5 does not divide d = 3: elimination
    certs = decide_isomorphism(s, s)
    assert certs and all(verify_iso(c).ok for c in certs)
    # one split per gamma checked; none again when the certificate is assembled
    assert len(calls) == len(certs)
