import random

import pytest

from danielewski import (GF, QQ, Poly, bezout_cofactors, parse_poly, poly_str, resultant,
                         resultant_in, substitute)
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


def test_bezout_refuses_low_degree_and_non_monic_P():
    for text in ("Z + X", "X^2 + 1", "0"):
        with pytest.raises(ValueError, match="degree >= 2"):
            bezout_cofactors(q(text), q("1"))
    with pytest.raises(ValueError, match="monic"):
        bezout_cofactors(q("2*Z^2 + 1"), q("4*Z"))
    with pytest.raises(ValueError, match="monic"):
        bezout_cofactors(q("X*Z^2 + 1"), q("2*X*Z"))


@pytest.mark.parametrize("p, text", [(3, "Z^3 + Z + X"), (5, "Z^5 + 3*Z + X"),
                                     (7, "Z^7 + 2*Z + X^2")])
def test_bezout_for_a_unit_pz_runs_no_elimination(p, text, monkeypatch):
    """P_Z a nonzero constant c (p | deg_Z P): the pair (1/c, 0), Cramer's
    pair, without the m x m elimination."""
    field = GF(p)
    P = parse_poly(text, field, V)
    Pz = P.derivative("Z")
    assert Pz.is_constant
    eliminations = []
    bareiss = resultant._bareiss
    monkeypatch.setattr(resultant, "_bareiss",
                        lambda *args: eliminations.append(1) or bareiss(*args))
    a, b = bezout_cofactors(P, Pz)
    assert not eliminations and b.is_zero
    assert a == Poly.const(field, V, field.inv(Pz.constant_value().value))
    assert (a, b) == bezout_by_cramer(P, Pz)


def test_failed_bareiss_division_is_internal_error(monkeypatch):
    monkeypatch.setattr(resultant, "exact_div", lambda a, b: None)
    matrix = sylvester_matrix(q("Z^2+1"), q("2*Z"), "Z")
    with pytest.raises(VerificationInternalError, match="Bareiss division failed"):
        det_bareiss(matrix, QQ, V)
    # a translate such as Z^2 + 1 is solved without elimination; a
    # non-translate over F3 reaches it
    P = parse_poly("Z^4 + X*Z + 1", GF(3), V)
    with pytest.raises(VerificationInternalError, match="Bareiss division failed"):
        bezout_cofactors(P, P.derivative("Z"))


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


def _univariate(rng, field, m, monic=True):
    """A random polynomial of degree m in Z alone over ("X", "Z")."""
    terms = {(0, k): random_coeff(rng, field) for k in range(m)}
    terms[(0, m)] = 1 if monic else rng.choice([c for c in range(1, 8)
                                                if not field.modulus or c % field.modulus])
    return Poly(field, V, terms)


def _translate_corpus(field):
    """Seeded (P, q, kind) over ("X", "Z"): translates P = Q(Z + h(X)) with
    q = P_Z, with a translated q of any degree and with an arbitrary q,
    among them squares (refused) and p | m; and non-translates with
    q = P_Z, comaximal ones among them over F_p."""
    rng = random.Random(f"translate|{field.tag()}")
    p = field.modulus
    Z = Poly.variable(field, V, "Z")
    corpus = []
    for _ in range(24):
        m = rng.randint(2, 5)
        if p and p <= 5 and rng.random() < 0.25:
            m = p * rng.randint(1, 5 // p)
        Q = _univariate(rng, field, m)
        if rng.random() < 0.25:                   # a square factor: refused
            linear = _univariate(rng, field, 1)
            Q = linear * linear * _univariate(rng, field, max(m - 2, 0))
        h = random_poly(rng, field, ("X",), max_exp=2, max_terms=3).with_vars(V)
        shift = {"Z": Z + h}
        P = substitute(Q, shift)
        corpus.append((P, P.derivative("Z"), "translate"))
        other = _univariate(rng, field, rng.randint(0, m + 2), monic=False)
        corpus.append((P, substitute(other, shift), "translated q"))
        corpus.append((P, random_poly(rng, field, V, max_exp=2, max_terms=3, nonzero=True),
                       "arbitrary q"))
    for _ in range(12):
        P = _monic_in_z(rng, field, rng.randint(2, 5))
        corpus.append((P, P.derivative("Z"), "non-translate"))
    if p:
        # comaximal, with p | m: P_Z = 1; and comaximal, yet no translate
        P = parse_poly(f"(Z + X)^{p} + Z + X + 1", field, V)
        corpus.append((P, P.derivative("Z"), "translate"))
        P = parse_poly(f"Z^{p + 1} + X*Z + 1", field, V)
        corpus.append((P, P.derivative("Z"), "non-translate"))
    if p == 2:
        corpus.append((parse_poly("Z^3 + 1", field, V), Poly.one(field, V), "translated q"))
    return corpus


def _solve(P, q):
    try:
        return bezout_cofactors(P, q), None
    except ComaximalityError as exc:
        return None, (str(exc), exc.resultant)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=lambda f: f.tag())
def test_translation_matches_elimination_and_cramer(field, monkeypatch):
    """The pair by translation is the matrix path's and Cramer's; a refusal
    carries the message and the resultant that ``resultant_in`` gives, and
    that resultant is the Sylvester determinant."""
    p = field.modulus
    seen = set()
    for P, q, kind in _translate_corpus(field):
        if q.is_zero:
            continue
        m = P.degree_in("Z")
        translated = resultant._translated(P, q, "Z") is not None
        if kind != "arbitrary q":
            assert translated == (not p or m % p != 0) or kind == "non-translate", poly_str(P)
        got, got_error = _solve(P, q)
        with monkeypatch.context() as patch:
            patch.setattr(resultant, "_translated", lambda *args: None)
            by_matrix, matrix_error = _solve(P, q)
            res_by_matrix = resultant_in(P, q, "Z")
        try:
            by_cramer, cramer_error = bezout_by_cramer(P, q), None
        except ComaximalityError as exc:
            by_cramer, cramer_error = None, str(exc)
        res = resultant_in(P, q, "Z")
        assert res == res_by_matrix, poly_str(P)
        if q.degree_in("Z") >= 1:
            assert res == det_bareiss(sylvester_matrix(P, q, "Z"), field, V), poly_str(P)
        assert got == by_matrix == by_cramer, (poly_str(P), poly_str(q))
        if got is None:
            assert got_error == matrix_error and got_error[0] == cramer_error
            assert got_error[1] == res
            if q.degree_in("Z") >= 1:
                assert got_error[0] == f"Res_Z(P, P_Z) = {res} is not a nonzero constant"
        else:
            a, b = got
            assert a * q + b * P == Poly.one(field, V) and a.degree_in("Z") < m
        seen.add((kind, translated, got is not None))
    assert {("translate", True, True), ("translate", True, False),
            ("translated q", True, True), ("non-translate", False, False)} <= seen
    if p:
        assert {("translate", False, True), ("non-translate", False, True)} <= seen
