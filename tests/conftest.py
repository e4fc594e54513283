"""Shared fixtures: the standard test surfaces and seeded random generators."""

from __future__ import annotations

import random

import pytest

from danielewski import (GF, QQ, Poly, make_surface, normal_form, parse_poly, resultant_in,
                         substitute)


def swinnerton_dyer(primes):
    """The minimal polynomial over Q of the sum of the square roots of
    ``primes``, built as iterated resultants Res_Y(Y^2 - p, g(X - Y)):
    irreducible of degree 2**len(primes), and split into linear and
    quadratic factors modulo every prime."""
    xy = ("X", "Y")
    g = parse_poly(f"X^2 - {primes[0]}", QQ, xy)
    for p in primes[1:]:
        shifted = substitute(g, {"X": parse_poly("X - Y", QQ, xy)})
        g = resultant_in(parse_poly(f"Y^2 - {p}", QQ, xy), shifted, "Y")
    return g.with_vars(("X",))


def surf(field, f_text, p_text):
    return make_surface(field, parse_poly(f_text, field, ("X",)),
                        parse_poly(p_text, field, ("X", "Z")))


# the product of the odd primes up to 127: every one of them is a bad
# Zassenhaus prime for X^3 - D and X^2 - D
D_ODD_PRIMES = 1
for _p in range(3, 128, 2):
    if all(_p % k for k in range(3, _p, 2)):
        D_ODD_PRIMES *= _p


STANDARD_SURFACES = (
    (QQ, "X^2", "Z^2+1"),
    (QQ, "X^3-X^2", "Z^2+1"),
    (GF(2), "X^2+X", "Z^2"),
    (GF(2), "X^2*(X+1)", "Z^2+Z+X"),
)


@pytest.fixture(scope="session")
def surfaces():
    return tuple(surf(field, f, p) for field, f, p in STANDARD_SURFACES)


@pytest.fixture()
def rng():
    return random.Random(20260811)


def random_coeff(rng, field):
    p = field.modulus
    if p:
        return rng.randrange(p)
    return rng.randint(-5, 5)


def random_poly(rng, field, vars, max_exp=3, max_terms=5, nonzero=False):
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            exps = tuple(rng.randint(0, max_exp) for _ in vars)
            c = random_coeff(rng, field)
            if c:
                terms[exps] = c
        p = Poly(field, vars, terms)
        if not nonzero or not p.is_zero:
            return p


def random_raw(rng, spec, max_terms=6):
    """Random representative in K[X, Y, Z] with Z-powers beyond d."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = (rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2 * spec.d + 1))
        c = random_coeff(rng, spec.field)
        if c:
            terms[exps] = c
    return Poly(spec.field, ("X", "Y", "Z"), terms)


def random_element(rng, spec, max_terms=4, nonzero=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = (rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, spec.d - 1))
            c = random_coeff(rng, spec.field)
            if c:
                terms[exps] = c
        e = normal_form(Poly(spec.field, ("X", "Y", "Z"), terms), spec)
        if not nonzero or not e.is_zero:
            return e
