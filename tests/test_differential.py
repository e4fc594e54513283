"""Differential oracle: factor, gcd and roots against sympy over Q and GF(p).

Skipped when sympy (an optional test dependency) is not installed.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from danielewski import GF, QQ, Poly, factor_univariate, gcd_univariate, roots_in_field
from danielewski.factor import dense_to_poly, poly_to_dense

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c
              for c in reversed(poly_to_dense(p, "X"))] or [0]
    if p.field.characteristic():
        return sympy.Poly(coeffs, X, modulus=p.field.characteristic())
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
    p = field.characteristic()
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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7), GF(97)],
                         ids=lambda f: f.tag())
def test_factor_gcd_roots_match_sympy(field):
    rng = random.Random(f"differential|{field.tag()}")
    p = field.characteristic()
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
