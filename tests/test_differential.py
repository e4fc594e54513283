"""Differential oracle: factor, gcd, roots and resultants against sympy over
Q and GF(p).

Skipped when sympy (an optional test dependency) is not installed.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from danielewski import (GF, QQ, Poly, factor_univariate, gcd_univariate, resultant_in,
                         roots_in_field)
from danielewski.factor import dense_to_poly, poly_to_dense
from danielewski.resultant import det_bareiss, sylvester_matrix

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")
Z = sympy.Symbol("z")


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
              for c in reversed(poly_to_dense(p, "X"))] or [0]
    if p.field.modulus:
        return sympy.Poly(coeffs, X, modulus=p.field.modulus)
    return sympy.Poly(coeffs, X, domain=sympy.QQ)


def monic_key(sp, p):
    """Ascending coefficient tuple of the monic associate, entries in [0, p) over GF(p)."""
    sp = sp.monic()
    if p:
        return tuple(int(c) % p for c in reversed(sp.all_coeffs()))
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs()))


def ours_key(g: Poly):
    return tuple(poly_to_dense(g, "X"))


def random_product(rng, field, max_deg=12):
    """A lead times a product of random factors with multiplicities, degree <= max_deg."""
    p = field.modulus
    poly = Poly.one(field, ("X",))
    budget = max_deg
    for _ in range(rng.randint(1, 4)):
        deg, mult = rng.randint(1, 4), rng.randint(1, 3)
        if deg * mult > budget:
            continue
        coeffs = ([rng.randrange(p) for _ in range(deg)] if p
                  else [rng.randint(-4, 4) for _ in range(deg)])
        poly = poly * dense_to_poly(coeffs + [1 if p else rng.choice([1, 2, 3])],
                                    field, ("X",), "X") ** mult
        budget -= deg * mult
    return poly * (rng.randrange(1, p) if p else Fraction(rng.choice([1, -2, 3]),
                                                             rng.choice([1, 5])))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7), GF(97),
                                   GF(2147483647)],
                         ids=lambda f: f.tag())
def test_factor_gcd_roots_match_sympy(field):
    rng = random.Random(f"differential|{field.tag()}")
    p = field.modulus
    for _ in range(40):
        a = random_product(rng, field)
        common = random_product(rng, field, max_deg=4)
        b = random_product(rng, field, max_deg=8) * common
        a_common = a * common
        if a_common.degree_in("X") > 12:
            a_common = a

        ours = factor_univariate(a)
        lead, theirs = to_sympy(a).factor_list()
        assert Counter((ours_key(g), m) for g, m in ours.factors) == \
            Counter((monic_key(g, p), m) for g, m in theirs)
        sympy_lead = to_sympy(a).LC()
        assert ours.lead.value == (int(sympy_lead) % p if p
                                   else Fraction(int(sympy_lead.p), int(sympy_lead.q)))

        ours_gcd = gcd_univariate(a_common, b)
        theirs_gcd = to_sympy(a_common).gcd(to_sympy(b))
        assert ours_key(ours_gcd) == monic_key(theirs_gcd, p)

        roots = Counter()
        for g, m in theirs:
            if g.degree() == 1:
                root = -g.monic().TC()
                roots[int(root) % p if p else Fraction(int(root.p), int(root.q))] += m
        assert Counter(s.value for s in roots_in_field(a)) == roots


def to_sympy_xz(p: Poly):
    """A polynomial over ("X", "Z") as a sympy Poly in (z, x)."""
    terms = {(ez, ex): (sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction)
                        else c) for (ex, ez), c in p.terms.items()}
    if p.field.modulus:
        return sympy.Poly.from_dict(terms or {(0, 0): 0}, Z, X,
                                    modulus=p.field.modulus)
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, Z, X, domain=sympy.QQ)


def x_terms(p: Poly):
    """{X-exponent: coefficient} of a polynomial in which Z is unused."""
    return {ex: c for (ex, _), c in p.terms.items()}


def sympy_x_terms(r, p):
    """{x-exponent: coefficient} of a sympy resultant, entries in [0, p) over GF(p)."""
    r = sympy.Poly(r.as_expr(), X, Z, **({"modulus": p} if p else {"domain": sympy.QQ}))
    out = {}
    for (ex, ez), c in r.terms():
        assert ez == 0
        c = int(c) % p if p else Fraction(int(c.p), int(c.q))
        if c:
            out[ex] = c
    return out


def sympy_resultant(P: Poly, Q: Poly):
    """Res_Z(P, Q) from sympy.  sympy 1.14 returns -Res when the first
    operand has the lower degree and both degrees are odd (it gives -2 for
    Res(z, z^3 + 2) = 2), so it is asked with the higher degree first and
    Res(P, Q) = (-1)^(mn) Res(Q, P) applied here."""
    m, n = P.degree_in("Z"), Q.degree_in("Z")
    if m >= n:
        return to_sympy_xz(P).resultant(to_sympy_xz(Q))
    r = to_sympy_xz(Q).resultant(to_sympy_xz(P))
    return -r if m * n % 2 else r


def random_xz(rng, field, deg_z, monic=False):
    p = field.modulus
    terms = {}
    for k in range(deg_z):
        for _ in range(rng.randint(0, 2)):
            terms[(rng.randint(0, 2), k)] = (rng.randrange(p) if p
                                             else Fraction(rng.randint(-4, 4), rng.choice([1, 2])))
    if monic:
        terms[(0, deg_z)] = 1
    else:  # a leading coefficient in K[X], possibly non-constant
        terms[(rng.randint(0, 1), deg_z)] = rng.randrange(1, p or 4)
        terms[(rng.randint(0, 1), deg_z)] = rng.randrange(1, p or 4)
    return Poly(field, ("X", "Z"), terms)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(97)], ids=lambda f: f.tag())
def test_resultant_matches_sympy(field):
    rng = random.Random(f"differential-resultant|{field.tag()}")
    p = field.modulus
    for trial in range(24):
        monic = trial % 2 == 0
        P = random_xz(rng, field, rng.randint(2, 7), monic=monic)
        Q = random_xz(rng, field, rng.randint(1, 7))
        if trial % 6 == 0:  # a common factor: the resultant vanishes
            common = random_xz(rng, field, 1, monic=True)
            P, Q = P * common, Q * common
            if P.degree_in("Z") > 7:
                continue
        theirs = sympy_x_terms(sympy_resultant(P, Q), p)
        assert x_terms(resultant_in(P, Q, "Z")) == theirs, (P, Q)
        if monic:  # resultant_in took det M; the Sylvester determinant agrees too
            sylvester = det_bareiss(sylvester_matrix(P, Q, "Z"), field, ("X", "Z"))
            assert x_terms(sylvester) == theirs, (P, Q)
