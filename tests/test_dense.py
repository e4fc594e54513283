"""The dense kernel's Taylor routine, F_p root finder and equal-degree
split, against oracles."""

import itertools
import random

import pytest

from danielewski import GF, QQ, Poly
from danielewski.dense import Fp, hasse, mul, poly_to_dense, z_rows

from conftest import random_poly
from oracles import fp_split_reference, roots_by_evaluation, taylor_by_substitution

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def _random_P(rng, field):
    """A random P over (X, Z) with deg_Z P >= max(p, 3), so that some C(j, k)
    vanish mod p."""
    dz = max(field.modulus, 3) + rng.randint(0, 2)
    lead = Poly.monomial(field, ("X", "Z"), (rng.randint(0, 2), dz))
    return lead + random_poly(rng, field, ("X", "Z"), max_exp=dz - 1, max_terms=8)


def _strip(rows):
    rows = list(rows)
    while rows and not rows[-1]:
        rows.pop()
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hasse_derivatives_match_taylor_by_substitution(field):
    rng = random.Random(f"hasse|{field}")
    m = field.modulus
    for _ in range(8):
        P = _random_P(rng, field)
        e = taylor_by_substitution(P)
        zero = Poly.zero(field, P.vars)
        rows = z_rows(P)
        u = P.coeff_in("X", 0).with_vars(("Z",))        # a univariate slice, scalar entries
        e_u = taylor_by_substitution(u)
        for k in range(P.degree_in("Z") + 2):
            assert P.hasse_derivative("Z", k) == e.get(k, zero)
            assert _strip(hasse(rows, k, m)) == (z_rows(e[k]) if k in e else [])
            want = e_u.get(k, Poly.zero(field, ("Z",)))
            assert hasse(poly_to_dense(u, "Z"), k, m) == poly_to_dense(want, "Z")
        assert P.hasse_derivative("Z", 1) == P.derivative("Z")
        assert P.hasse_derivative("Z", 0) == P


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_roots_match_evaluation(p):
    rng = random.Random(f"fp_roots|{p}")
    field = GF(p)
    for _ in range(25):
        f = random_poly(rng, field, ("X",), max_exp=2 * p, max_terms=6, nonzero=True)
        want = sorted({r.value for r in roots_by_evaluation(f)})
        assert Fp(p).roots(poly_to_dense(f, "X")) == want


def _rootless(f, p):
    return all(sum(c * x ** i for i, c in enumerate(f)) % p for x in range(p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fp_split_matches_the_reference_splitters(p):
    rng = random.Random(f"split|{p}")
    for k in (1, 2, 3):
        # a monic polynomial of degree <= 3 is irreducible when it has no root
        irreducibles = [list(c) + [1] for c in itertools.product(range(p), repeat=k)
                        if k == 1 or _rootless(list(c) + [1], p)]
        for _ in range(6):
            chosen = rng.sample(irreducibles, rng.randint(1, min(4, len(irreducibles))))
            g = [1]
            for h in chosen:
                g = mul(g, h, p)
            assert Fp(p).split(g, k) == fp_split_reference(g, k, p) == sorted(chosen)
