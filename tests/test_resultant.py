import random

import pytest

from danielewski import GF, QQ, Poly, bezout_cofactors, parse_poly, poly_str, resultant, resultant_in
from danielewski.errors import ComaximalityError, VerificationInternalError
from danielewski.resultant import det_bareiss, sylvester_matrix

from conftest import random_coeff, random_poly
from oracles import bezout_by_cramer, naive_det

V = ("X", "Z")


def q(text):
    return parse_poly(text, QQ, V)


def test_resultant_examples():
    assert poly_str(resultant_in(q("Z^2+1"), q("2*Z"), "Z")) == "4"
    f2 = GF(2)
    assert poly_str(resultant_in(parse_poly("Z^2+Z+X", f2, V),
                                 parse_poly("1", f2, V), "Z")) == "1"
    assert resultant_in(q("Z^2"), q("2*Z"), "Z").is_zero


def test_resultant_degenerate_conventions():
    # zero companion reports 0; both-constant inputs are an error
    assert resultant_in(q("Z^2"), q("0"), "Z").is_zero
    with pytest.raises(ValueError):
        resultant_in(q("X"), q("1"), "Z")
    # constant companion: c ** deg
    assert poly_str(resultant_in(q("Z^3+X"), q("2"), "Z")) == "8"


def test_resultant_vanishes_iff_common_factor(rng):
    for _ in range(40):
        a = random_poly(rng, QQ, V, max_exp=2, max_terms=3, nonzero=True)
        b = random_poly(rng, QQ, V, max_exp=2, max_terms=3, nonzero=True)
        common = q("Z + X")
        if (a * common).degree_in("Z") >= 1 and (b * common).degree_in("Z") >= 1:
            assert resultant_in(a * common, b * common, "Z").is_zero


def test_bareiss_matches_cofactor_oracle(rng):
    # all sampled degrees <= 4 in the fixed corpus
    for trial in range(80):
        field = QQ if trial % 2 else GF(5)
        p = random_poly(rng, field, V, max_exp=2, max_terms=4)
        s = random_poly(rng, field, V, max_exp=2, max_terms=4)
        if p.degree_in("Z") in (0,) or s.degree_in("Z") in (0,):
            continue
        if p.is_zero or s.is_zero:
            continue
        matrix = sylvester_matrix(p, s, "Z")
        assert det_bareiss(matrix, field, V) == naive_det(matrix, field, V)


def test_bezout_examples():
    P = q("Z^2+1")
    a, b = bezout_cofactors(P, P.derivative("Z"))
    assert poly_str(a) == "-1/2*Z" and poly_str(b) == "1"
    f2 = GF(2)
    P = parse_poly("Z^2+Z+X", f2, V)
    a, b = bezout_cofactors(P, P.derivative("Z"))
    assert poly_str(a) == "1" and b.is_zero
    P = q("Z^2")
    with pytest.raises(ComaximalityError):
        bezout_cofactors(P, P.derivative("Z"))


def test_bezout_identity_reverified(rng):
    cases = [q("Z^2 + 1"), q("Z^2 + X*Z + 1/4*X^2 - 1/4"), q("Z^4 + Z + 1"),
             q("Z^3 - Z + 1"), parse_poly("Z^3 + Z^2 + Z + X", GF(3), V)]
    one_q = Poly.one(QQ, V)
    for P in cases:
        Pz = P.derivative("Z")
        try:
            a, b = bezout_cofactors(P, Pz)
        except ComaximalityError:
            continue
        assert a * Pz + b * P == Poly.one(P.field, V)
    assert bezout_cofactors(q("Z^2+1"), q("2*Z"))[1] * q("Z^2+1") \
        + bezout_cofactors(q("Z^2+1"), q("2*Z"))[0] * q("2*Z") == one_q


def test_bezout_rejects_pz_zero():
    with pytest.raises(ComaximalityError):
        bezout_cofactors(q("Z^2 + X"), q("0"))


def test_bezout_rejects_nonconstant_resultant():
    P = q("Z^2 + X")  # disc = -4X, vanishes at X = 0
    with pytest.raises(ComaximalityError):
        bezout_cofactors(P, P.derivative("Z"))


def test_failed_bareiss_division_is_internal_error(monkeypatch):
    monkeypatch.setattr(resultant, "exact_div", lambda a, b: None)
    matrix = sylvester_matrix(q("Z^2+1"), q("2*Z"), "Z")
    with pytest.raises(VerificationInternalError, match="Bareiss division failed"):
        det_bareiss(matrix, QQ, V)
    with pytest.raises(VerificationInternalError, match="Bareiss division failed"):
        bezout_cofactors(q("Z^2+1"), q("2*Z"))


def _monic_in_z(rng, field, m):
    terms = {(0, m): 1}
    for k in range(m):
        for _ in range(rng.randint(0, 2)):
            terms[(rng.randint(0, 2), k)] = random_coeff(rng, field)
    return Poly(field, V, terms)


def _bezout_corpus(field):
    """Seeded monic P over ("X", "Z"): random degrees 2..6, degrees divisible
    by the characteristic (P_Z drops degree), and P with a repeated factor."""
    rng = random.Random(f"bezout|{field.tag()}")
    p = field.modulus
    corpus = [_monic_in_z(rng, field, rng.randint(2, 6)) for _ in range(20)]
    if p:
        corpus += [_monic_in_z(rng, field, m) for m in range(p, 8, p) for _ in range(4)]
    for _ in range(6):
        linear = _monic_in_z(rng, field, 1)
        corpus.append(linear * linear * _monic_in_z(rng, field, rng.randint(0, 2)))
    return corpus


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=lambda f: f.tag())
def test_bezout_matches_cramer_oracle(field):
    p = field.modulus
    seen = {"comaximal": 0, "refused": 0, "degree drop": 0}
    for P in _bezout_corpus(field):
        Pz = P.derivative("Z")
        if p and P.degree_in("Z") % p == 0:
            seen["degree drop"] += 1
        try:
            expected, expected_error = bezout_by_cramer(P, Pz), None
        except ComaximalityError as exc:
            expected, expected_error = None, str(exc)
        try:
            got, got_error = bezout_cofactors(P, Pz), None
        except ComaximalityError as exc:
            got, got_error = None, str(exc)
        assert got == expected and got_error == expected_error, poly_str(P)
        seen["comaximal" if got else "refused"] += 1
        if Pz.degree_in("Z") >= 1:  # det M against the Sylvester determinant
            sylvester = det_bareiss(sylvester_matrix(P, Pz, "Z"), field, V)
            assert resultant_in(P, Pz, "Z") == sylvester, poly_str(P)
    assert seen["comaximal"] and seen["refused"]
    assert seen["degree drop"] or not p
