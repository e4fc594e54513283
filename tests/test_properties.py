"""Property tests with hypothesis: the print/parse round trip over Q and
F_p, the Leibniz rule of the higher derivation on random elements, the
normal form (idempotent, rebuilt by the public constructor), the ring laws
in A and A[U], exact division, resultants and Bezout cofactors against
a univariate gcd and against planted common factors, and the (lambda, mu)
solve of the isomorphism decision against a planted transport.  Skipped when
hypothesis is not installed."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from danielewski import (GF, QQ, Poly, Scalar, SurfaceElement, bezout_cofactors,  # noqa: E402
                         canonical_expmap, derivation_coeff, exact_div, gcd_univariate,
                         make_surface, normal_form, parse_poly, phi_degree, poly_str,
                         resultant_in, substitute)
from danielewski.errors import ComaximalityError  # noqa: E402
from danielewski.isomorph import DEFAULT_CAP, _affine_candidates  # noqa: E402
from danielewski.poly import NEG_INF  # noqa: E402

from conftest import STANDARD_SURFACES, surf  # noqa: E402

SETTINGS = settings(max_examples=50, derandomize=True, database=None, deadline=None)
VARS = ("X", "Y", "Z")
EXPS = st.tuples(*(st.integers(0, 4) for _ in VARS))
Q_COEFFS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


def polys(field, coeffs):
    return st.dictionaries(EXPS, coeffs, max_size=12).map(lambda t: Poly(field, VARS, t))


@SETTINGS
@given(polys(QQ, Q_COEFFS))
def test_round_trip_over_q(p):
    assert parse_poly(poly_str(p), QQ, VARS) == p


@SETTINGS
@given(st.sampled_from((2, 3, 5, 97)).flatmap(
    lambda q: st.tuples(st.just(q), polys(GF(q), st.integers(0, q - 1)))))
def test_round_trip_over_fp(case):
    q, p = case
    assert parse_poly(poly_str(p), GF(q), VARS) == p


SPECS = tuple(surf(*case) for case in STANDARD_SURFACES) + (
    surf(GF(5), "X^2+X+1", "Z^3+2*Z+X"),)
MAPS = {i: canonical_expmap(spec) for i, spec in enumerate(SPECS)}


def elements(spec):
    field = spec.field
    coeffs = st.integers(-3, 3) if field == QQ else st.integers(0, field.modulus - 1)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, spec.d - 1))
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda t: normal_form(Poly(field, VARS, t), spec))


def _derivation(m, e, top):
    return [derivation_coeff(m, e, i) for i in range(top + 1)]


@SETTINGS
@given(st.sampled_from(range(len(SPECS))).flatmap(
    lambda i: st.tuples(st.just(i), elements(SPECS[i]), elements(SPECS[i]))))
def test_leibniz_rule(case):
    i, a, b = case
    spec, m = SPECS[i], MAPS[i]
    prod = a * b
    top = phi_degree(m, prod)
    top = 0 if top is NEG_INF else int(top)
    da, db, dp = (_derivation(m, e, top + 1) for e in (a, b, prod))
    for n in range(top + 2):
        rhs = spec.zero()
        for k in range(n + 1):
            rhs = rhs + da[k] * db[n - k]
        assert dp[n] == rhs


# -- the surface ring and exact division -------------------------------------

AUX_VARS = VARS + ("U",)


def aux_elements(spec):
    """Elements of A[U]: normal forms of random polynomials in X, Y, Z, U,
    with Z-powers up to 2d - 1 so that the rewrite runs."""
    field = spec.field
    coeffs = st.integers(-3, 3) if field == QQ else st.integers(0, field.modulus - 1)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2 * spec.d - 1),
                     st.integers(0, 1))
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda t: normal_form(Poly(field, AUX_VARS, t), spec))


def spec_and(n, strategy):
    return st.sampled_from(range(len(SPECS))).flatmap(
        lambda i: st.tuples(st.just(i), *(strategy(SPECS[i]) for _ in range(n))))


@SETTINGS
@given(spec_and(1, aux_elements))
def test_normal_form_is_idempotent_and_round_trips(case):
    i, e = case
    spec = SPECS[i]
    assert normal_form(e.raw_lift(), spec) == e
    assert SurfaceElement(e.spec, e.aux, e.coeffs) == e
    assert all(not g.is_zero and g.degree_in("Z") < spec.d for g in e.coeffs.values())
    assert e.aux == tuple(v for v in e.raw_lift().used_vars() if v == "U")


@SETTINGS
@given(spec_and(3, elements))
def test_ring_laws_in_a(case):
    _, a, b, c = case
    assert a * b == b * a and a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a and a - a == a.spec.zero()


@SETTINGS
@given(spec_and(3, aux_elements))
def test_ring_laws_in_a_u(case):
    _, a, b, c = case
    assert a * b == b * a and a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a and (a - a).is_zero and (a - a).aux == ()


@SETTINGS
@given(st.sampled_from((QQ, GF(2), GF(5))).flatmap(
    lambda f: st.tuples(st.just(f),
                        polys(f, Q_COEFFS if f == QQ else st.integers(0, f.modulus - 1)),
                        polys(f, Q_COEFFS if f == QQ else st.integers(0, f.modulus - 1)))))
def test_exact_div_recovers_the_quotient(case):
    field, a, b = case
    if b.is_zero:
        return
    assert exact_div(a * b, b) == a
    if not b.is_constant:
        # a*b + 1 is 1 modulo b, so b does not divide it
        assert exact_div(a * b + Poly.one(field, VARS), b) is None


# -- resultants and Bezout cofactors ------------------------------------------

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


def field_coeffs(field):
    return Q_COEFFS if field == QQ else st.integers(0, field.modulus - 1)


def z_polys(field, max_degree=3):
    """Nonzero polynomials in Z alone, over ("Z",)."""
    return st.dictionaries(st.integers(0, max_degree), field_coeffs(field), min_size=1,
                           max_size=4).map(
        lambda t: Poly(field, ("Z",), {(e,): c for e, c in t.items()})).filter(
        lambda p: not p.is_zero)


def xz_polys(field, max_z=2):
    exps = st.tuples(st.integers(0, 2), st.integers(0, max_z))
    return st.dictionaries(exps, field_coeffs(field), max_size=4).map(
        lambda t: Poly(field, ("X", "Z"), t))


def with_field(build):
    return st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(st.just(f), *build(f)))


@SETTINGS
@given(with_field(lambda f: (st.booleans(), z_polys(f, 2), z_polys(f), z_polys(f))))
def test_resultant_vanishes_exactly_on_a_common_factor(case):
    """Res_Z(G*A, G*B), G planted or 1, is zero exactly when gcd(G*A, G*B)
    has positive degree."""
    field, planted, g, a, b = case
    if not planted:
        g = Poly.one(field, ("Z",))
    p, q = g * a, g * b
    if max(p.degree_in("Z"), q.degree_in("Z")) < 1:
        return
    shared = gcd_univariate(p, q).total_degree() > 0
    assert resultant_in(p, q, "Z").is_zero == shared


@SETTINGS
@given(with_field(lambda f: (xz_polys(f), xz_polys(f), xz_polys(f))))
def test_resultant_vanishes_on_a_planted_factor(case):
    """A common factor of positive Z-degree over K[X] makes Res_Z zero."""
    field, g, a, b = case
    g = g + Poly.variable(field, ("X", "Z"), "Z")    # positive Z-degree
    p, q = g * a, g * b
    if g.degree_in("Z") < 1 or p.is_zero or q.is_zero:
        return
    assert resultant_in(p, q, "Z").is_zero


def monic_z_polys(field):
    """Monic polynomials of Z-degree 2 or 3 over ("X", "Z")."""
    return st.tuples(st.integers(2, 3), xz_polys(field, max_z=1)).map(
        lambda dt: dt[1] + Poly(field, ("X", "Z"), {(0, dt[0]): 1}))


@SETTINGS
@given(with_field(lambda f: (st.integers(2, 3), z_polys(f, 1), z_polys(f, 2))))
def test_bezout_cofactors_exactly_when_coprime(case):
    """For monic P in Z alone: (a, b) with a*Q + b*P = 1 when gcd(P, Q) = 1,
    ComaximalityError otherwise."""
    field, top, low, q = case
    p = Poly.variable(field, ("Z",), "Z") ** top + low
    coprime = gcd_univariate(p, q) == Poly.one(field, ("Z",))
    try:
        a, b = bezout_cofactors(p, q)
    except ComaximalityError:
        assert not coprime
        return
    assert coprime
    assert a * q + b * p == Poly.one(field, ("Z",))
    assert a.is_zero or a.degree_in("Z") < p.degree_in("Z")


@SETTINGS
@given(with_field(lambda f: (monic_z_polys(f), xz_polys(f))))
def test_bezout_cofactors_over_k_x(case):
    """For P monic in Z over K[X]: the cofactors of (P, P_Z) satisfy the
    identity whenever they exist, and a planted common factor refuses."""
    field, p, g = case
    one = Poly.one(field, ("X", "Z"))
    pz = p.derivative("Z")
    try:
        a, b = bezout_cofactors(p, pz)
    except ComaximalityError:
        res = resultant_in(p, pz, "Z") if not pz.is_zero else Poly.zero(field, p.vars)
        assert res.is_zero or not res.is_constant
    else:
        assert a * pz + b * p == one
    # Z - g(X) divides both P*(Z - g) and (Z - g)
    linear = Poly.variable(field, ("X", "Z"), "Z") - g.coeff_in("Z", 0)
    with pytest.raises(ComaximalityError):
        bezout_cofactors(p * linear, linear * (one + one + Poly.variable(field, p.vars, "X")))


@st.composite
def transports(draw):
    """(field, f, lam, mu): a monic f of degree 2..6 and a pair lam != 0, mu."""
    field = draw(st.sampled_from((QQ, GF(2), GF(3), GF(5), GF(7))))
    if field == QQ:
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
        lam = draw(coeffs.filter(bool))
    else:
        coeffs = st.integers(0, field.modulus - 1)
        lam = draw(st.integers(1, field.modulus - 1))
    r = draw(st.integers(2, 6))
    lower = draw(st.lists(coeffs, min_size=r, max_size=r))
    f = Poly(field, ("X",), {(i,): c for i, c in enumerate(lower + [1])})
    return field, f, Scalar(field, lam), Scalar(field, draw(coeffs))


@SETTINGS
@given(transports())
def test_affine_solve_finds_a_planted_transport(case):
    """f_2 = lam^(-r) f_1(lam X + mu) always yields (lam, mu); over Q a free
    lam yields the lam = 1 slice instead."""
    field, f, lam, mu = case
    phi = parse_poly("Z^2", field, ("X", "Z"))
    x = Poly.variable(field, ("X",), "X")
    moved = substitute(f, {"X": x.scaled(lam) + Poly.const(field, ("X",), mu)})
    s1 = make_surface(field, f, phi)
    s2 = make_surface(field, moved.scaled((lam ** s1.r).inverse()), phi)
    pairs, free, _ = _affine_candidates(s1, s2, DEFAULT_CAP)
    assert (lam, mu) in pairs or (free and field == QQ)
    assert not free or field == QQ
