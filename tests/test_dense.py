"""The dense kernel's Taylor routine, F_p root finder, equal-degree split
and pow_mod, against oracles."""

import hashlib
import itertools
import random

import pytest

from danielewski import GF, QQ, Poly
from danielewski.dense import (Fp, Fq, add, congruence_defect, divrem, hasse, mul, norm,
                               poly_to_dense, z_rows)
from danielewski.poly import substitute

from conftest import random_coeff, random_poly
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


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_congruence_defect_matches_substitution(field):
    # P of Z-degree >= max(p, 3) with gaps (zero rows), so rows j >= p meet
    # binomials that vanish mod p; deg delta up to 3 and delta = 0, and a
    # target Q of another Z-degree
    rng = random.Random(f"congruence_defect|{field}")
    m = field.modulus
    vars2 = ("X", "Z")
    for trial in range(12):
        P = _random_P(rng, field)
        P = P - P.coeff_in("Z", 1).mul_var_power("Z", 1)        # row 1 is zero
        Q = _random_P(rng, field)
        gamma = random_coeff(rng, field) or 1
        delta = random_poly(rng, field, ("X",), max_exp=3) if trial % 4 else Poly.zero(
            field, ("X",))
        z = Poly.variable(field, vars2, "Z").scaled(gamma) + delta.with_vars(vars2)
        d = Q.degree_in("Z")
        g = field.coerce(gamma)
        want = substitute(P, {"Z": z}, vars_out=vars2) - Q.scaled(field.pow(g, d))
        rows = z_rows(P)
        assert rows[1] == []
        assert _strip(congruence_defect(rows, g, poly_to_dense(delta, "X"), z_rows(Q), m)) \
            == z_rows(want)


@pytest.mark.parametrize("field, d, delta", [(QQ, 1200, 0), (GF(1009), 1000, 0),
                                             (GF(1009), 1000, 3), (GF(7), 1200, 0),
                                             (GF(7), 1200, 3)], ids=str)
def test_congruence_defect_of_a_sparse_high_degree_P(field, d, delta):
    # P = Z^d + X has no row between Z^0 and Z^d, so delta^d has no lower
    # power cached: the ladder fills the powers below p (every power over Q)
    # in a loop, not by one recursion per exponent step
    vars2 = ("X", "Z")
    X, Z = (Poly.variable(field, vars2, v) for v in vars2)
    P = Z ** d + X
    want = substitute(P, {"Z": Z.scaled(field.coerce(2)) + Poly.monomial(field, vars2, (0, 0),
                                                                          delta)},
                      vars_out=vars2) - P.scaled(field.pow(field.coerce(2), d))
    got = congruence_defect(z_rows(P), field.coerce(2), norm([delta], field.modulus), z_rows(P),
                            field.modulus)
    assert _strip(got) == ([] if want.is_zero else z_rows(want))


@pytest.mark.parametrize("m", [2, 7, 9, 125, 0], ids=lambda m: f"m{m}")
def test_divrem_holds_its_identity_for_sparse_and_dense_divisors(m):
    # f = q g + r with deg r < deg g, for X^k - X, X^k + c and dense monic g,
    # mod a prime, mod a prime power and over Q (m = 0)
    rng = random.Random(f"divrem|{m}")
    for _ in range(40):
        k = rng.randint(1, 9)
        kind = rng.randrange(3)
        if kind == 0:
            g = [0, -1] + [0] * (k - 2) + [1] if k >= 2 else [3, 1]
        elif kind == 1:
            g = [rng.randint(-5, 5)] + [0] * (k - 1) + [1]
        else:
            g = [rng.randint(-5, 5) for _ in range(k)] + [1]
        g = norm(g, m)
        f = norm([rng.randint(-9, 9) for _ in range(rng.randint(0, 3 * k + 4))], m)
        q, r = divrem(f, g, m)
        assert len(r) < len(g) and (not r or r[-1]) and (not q or q[-1])
        assert add(mul(q, g, m), r, m) == f
        if m:
            assert all(0 <= c < m for c in q + r)


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


# pow_mod's fields: prime fields, and F_q = F_p[X]/(q) with q irreducible of
# degree 2 or 3
_POW_MOD_FIELDS = [("F2", lambda: Fp(2)), ("F3", lambda: Fp(3)), ("F7", lambda: Fp(7)),
                   ("F4", lambda: Fq([1, 1, 1], 2)), ("F9", lambda: Fq([1, 0, 1], 3)),
                   ("F25", lambda: Fq([2, 0, 1], 5)), ("F8", lambda: Fq([1, 1, 0, 1], 2))]

# sha256 of _pow_mod_transcript per field, recorded at 89e0fdb
_POW_MOD_DIGESTS = {
    'F2': "906dcea59e7236bc4cf7f2db7a54ada7f39db10b637fc039f19db0ebd9abab54",
    'F3': "b051921fb3e82a6d96f67cf659310fa3e2d2de22545dce00a44a3b6e30cdd0e3",
    'F7': "e3fdf10e1c66bf09c87361c054bc1bc9b73ae6f4ebb5567006336f603a37fbb0",
    'F4': "d507071d2208eb45856686f9e3255a75d556f4922a814d06be22df002a5fccc3",
    'F9': "aeb6cd22e2840c16aabf5ddbe16f2ab6d8c37c3e81242d50366c7c1687738004",
    'F25': "b7b8b35b3137566b84dad28bcf203cda0cfc8d22850f09eb412dc2b1d7abacb8",
    'F8': "f25f1e42e0bccd191975115cbe10365181f69a3a3acad5ae75d4f7106a0dbb3d",
}


def _random_dense(field, rng, length, monic=False):
    """A polynomial over ``field`` with ``length`` random coefficients, and a
    leading one after them when ``monic``."""
    coeffs = [field.element([rng.randrange(field.p) for _ in range(field.degree)])
              for _ in range(length)]
    return field.poly(coeffs + [field.one] if monic else coeffs)


def _pow_mod_transcript(field):
    """pow_mod on seeded inputs, e = 0 included: f of degree < 8 (zero too),
    g monic of degree 0..5, e over 0..40 and a few large exponents."""
    rng = random.Random(f"pow_mod|{field.size}|{field.degree}")
    lines = []
    for e in (*range(41), 64, 100, 255, field.size ** 3, 2 ** 40 + 3):
        for _ in range(4):
            f = _random_dense(field, rng, rng.randint(0, 8))
            g = _random_dense(field, rng, rng.randint(0, 5), monic=True)
            lines.append(f"{f} {e} {g} {field.pow_mod(f, e, g)}")
    return "\n".join(lines)


@pytest.mark.parametrize("name, make", _POW_MOD_FIELDS, ids=[n for n, _ in _POW_MOD_FIELDS])
def test_pow_mod_keeps_its_pinned_values_and_matches_repeated_products(name, make):
    field = make()
    transcript = _pow_mod_transcript(field)
    assert hashlib.sha256(transcript.encode()).hexdigest() == _POW_MOD_DIGESTS[name]
    rng = random.Random(f"pow_mod_oracle|{name}")
    for _ in range(30):
        f = _random_dense(field, rng, rng.randint(0, 6))
        g = _random_dense(field, rng, rng.randint(0, 4), monic=True)
        e = rng.randint(0, 12)
        by_products = [field.one]
        for _ in range(e):
            by_products = field.pdivmod(field.pmul(by_products, f), g)[1]
        assert field.pow_mod(f, e, g) == by_products
