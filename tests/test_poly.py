import random
from fractions import Fraction

import pytest

from danielewski import (GF, QQ, Poly, bezout_cofactors, build_stable_iso, exact_div,
                         make_surface, parse_poly, resultant_in, substitute)
from danielewski.errors import FieldMismatchError, UnknownVariableError
from danielewski.jsonio import dumps, stable_to_doc
from danielewski.poly import NEG_INF, divmod_in

from conftest import random_coeff, random_poly

V = ("X", "Y", "Z")


def q(text, vars=V):
    return parse_poly(text, QQ, vars)


def test_zero_polynomial_has_empty_terms():
    assert Poly(QQ, V, {(0, 0, 0): 0}).is_zero
    assert q("X - X").is_zero
    assert q("0").degree_in("X") is NEG_INF


def test_degrees():
    p = q("X^2*Y - Z^2 - 1")
    assert p.degree_in("X") == 2
    assert p.degree_in("Y") == 1
    assert p.total_degree() == 3


def test_exponent_overflow_is_hard_error():
    with pytest.raises(OverflowError):
        Poly(QQ, ("X",), {(2**31,): 1})
    big = Poly(QQ, ("X",), {(2**30,): 1})
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        q("X", ("X",)) ** (2**31)
    with pytest.raises(OverflowError):
        big.mul_var_power("X", 2**30)


def test_ring_laws_random(rng):
    for field in (QQ, GF(5)):
        for _ in range(120):
            a = random_poly(rng, field, V)
            b = random_poly(rng, field, V)
            c = random_poly(rng, field, V)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == Poly.zero(field, V)
            assert a * Poly.one(field, V) == a


def test_exact_div_round_trip(rng):
    # 500 random pairs per field, per the stated property budget
    for field in (QQ, GF(5)):
        for _ in range(500):
            a = random_poly(rng, field, V, max_exp=2, max_terms=3)
            b = random_poly(rng, field, V, max_exp=2, max_terms=3, nonzero=True)
            assert exact_div(a * b, b) == a


def test_exact_div_examples():
    a = q("2*X^2*U*Z + X^4*U^2", ("X", "Z", "U"))
    b = q("X^2", ("X", "Z", "U"))
    quo = exact_div(a, b)
    assert quo == q("2*U*Z + X^2*U^2", ("X", "Z", "U"))
    assert quo * b == a
    f2 = GF(2)
    assert exact_div(parse_poly("X^2+X", f2, ("X",)),
                     parse_poly("X", f2, ("X",))) == parse_poly("X+1", f2, ("X",))
    assert exact_div(q("X+1", ("X",)), q("X", ("X",))) is None
    with pytest.raises(ZeroDivisionError):
        exact_div(q("X", ("X",)), q("0", ("X",)))


def test_substitute_examples():
    f2 = GF(2)
    f = parse_poly("X^2+X", f2, ("X",))
    assert substitute(f, {"X": parse_poly("X+1", f2, ("X",))}) == f
    p = q("Z^2 + 1", ("Z",))
    assert substitute(p, {"Z": q("Z", ("Z",))}) == p
    big = ("X", "Z", "v")
    p = q("Z^2 + 1", big)
    binding = q("(X^2-X)*v + Z", big)
    got = substitute(p, {"Z": binding})
    want = q("X^4*v^2 - 2*X^3*v^2 + X^2*v^2 + 2*X^2*Z*v - 2*X*Z*v + Z^2 + 1", big)
    assert got == want


def test_substitute_rejects_bad_bindings():
    p = q("X + Y")
    with pytest.raises(UnknownVariableError):
        substitute(p, {"W": q("X")})
    with pytest.raises(FieldMismatchError):
        substitute(p, {"X": parse_poly("X", GF(2), ("X",))})


def test_substitute_is_simultaneous():
    p = q("X*Y", ("X", "Y"))
    x, y = q("Y", ("X", "Y")), q("X", ("X", "Y"))
    assert substitute(p, {"X": x, "Y": y}) == p


def test_divmod_in_monic(rng):
    f2 = q("X^2 - 1", ("X", "Z"))
    for _ in range(50):
        p = random_poly(rng, QQ, ("X", "Z"), max_exp=4)
        quo, rem = divmod_in(p, f2, "X")
        assert quo * f2 + rem == p
        assert rem.is_zero or rem.degree_in("X") < 2


def test_with_vars_embedding():
    p = q("X + 1", ("X",))
    p3 = p.with_vars(V)
    assert p3.vars == V
    assert p3.with_vars(("X",)) == p
    with pytest.raises(UnknownVariableError):
        q("X*Y").with_vars(("X", "Z"))


def test_evaluate():
    p = q("X^2*Y - Z^2 - 1")
    assert p.evaluate({"X": 2, "Y": 1, "Z": 1}) == 2
    with pytest.raises(UnknownVariableError):
        p.evaluate({"X": 2})


# -- raw Q values: an int when integral, a Fraction with denominator > 1 otherwise

def _assert_canonical(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)


def _random_q_poly(rng, vars, max_exp=3, max_terms=5):
    """A nonzero Q polynomial whose coefficients have real denominators,
    including integral quotients such as 4/2."""
    while True:
        terms = {tuple(rng.randint(0, max_exp) for _ in vars):
                 Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(rng.randint(1, max_terms))}
        p = Poly(QQ, vars, terms)
        if not p.is_zero:
            return p


def _monic_cubic(rng):
    """(Z + c X)^3 + a (Z + c X) + b: monic in Z, Res_Z(P, P_Z) a nonzero constant."""
    c, a, b = (Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3))
    while 4 * a ** 3 + 27 * b ** 2 == 0:
        b += Fraction(1, 3)
    xz = ("X", "Z")
    t = Poly.variable(QQ, xz, "Z") + Poly.variable(QQ, xz, "X").scaled(c)
    return t ** 3 + t.scaled(a) + Poly.const(QQ, xz, b)


def test_q_coefficients_are_ints_or_proper_fractions(rng):
    _assert_canonical(q("1/2*X^2*Y + 4/2*Z - 3/3 + 6/4*X"))
    halves, thirds = q("1/2*X + 1/3*Z + 1/3"), q("1/2*X + 2/3*Z - 1/3")
    _assert_canonical(halves + thirds)
    _assert_canonical(halves - thirds)
    assert halves + thirds == q("X + Z")
    for _ in range(25):
        a, b = _random_q_poly(rng, V), _random_q_poly(rng, V)
        for r in (a, b, a + b, a - b, a - a, a * b, -a, a.scaled(Fraction(2)),
                  a.scaled(Fraction(1, 2)), a.scaled(4), a ** 0, a ** 3,
                  Poly(QQ, V, {(1, 0, 2): Fraction(4, 3)}) ** 3,
                  a.derivative("X"), a.derivative("Z"),
                  substitute(a, {"X": b, "Z": q("1/2*Y + 2")})):
            _assert_canonical(r)
        quo = exact_div(a * b, b)
        assert quo == a
        _assert_canonical(quo)
        lead = Fraction(rng.choice((-3, 2, 5)), rng.choice((1, 3)))
        divisor = _random_q_poly(rng, V, max_exp=1) + Poly(QQ, V, {(0, 0, 2): lead})
        for r in divmod_in(a, divisor, "Z"):
            _assert_canonical(r)
    for _ in range(6):
        P = _monic_cubic(rng)
        Pz = P.derivative("Z")
        other = _random_q_poly(rng, ("X", "Z"), max_exp=2)
        for r in (resultant_in(P, Pz, "Z"), resultant_in(P, other, "Z"),
                  resultant_in(other, P, "Z"), *bezout_cofactors(P, Pz, "Z")):
            _assert_canonical(r)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(97)], ids=lambda f: f.tag())
def test_one_term_power_matches_repeated_multiplication(field):
    vars2 = ("X", "Z")
    coeffs = [1, 2, 7, 96] if field.characteristic() else [
        1, -1, 3, -2, Fraction(2, 3), Fraction(-5, 7), Fraction(4, 2)]
    monos = [(0, 0), (1, 0), (2, 3), (0, 5)]
    one = Poly.one(field, vars2)
    for c in coeffs:
        for mono in monos:
            base = Poly(field, vars2, {mono: c})
            if base.is_zero:
                continue
            acc = one
            for e in range(41):
                assert base ** e == acc, (c, mono, e)
                acc = acc * base
            big = base ** 200
            assert big == (base ** 100) * (base ** 100)
            assert len(big.terms) == 1
    zero = Poly.zero(field, vars2)
    assert zero ** 0 == one and (zero ** 5).is_zero


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(97)], ids=lambda f: f.tag())
@pytest.mark.parametrize("var", V)
def test_divmod_in_multivariate(field, var):
    rng = random.Random(f"divmod-{field.tag()}-{var}")
    i = V.index(var)
    for _ in range(30):
        p = (_random_q_poly(rng, V, max_exp=4) if field is QQ
             else random_poly(rng, field, V, max_exp=4, max_terms=8))
        dd = rng.randint(0, 3)
        lead = Fraction(rng.choice((-3, 2, 5)), rng.choice((1, 3))) if field is QQ else (
            rng.randrange(1, field.characteristic()))
        lower = {tuple(rng.randint(0, dd - 1) if j == i else rng.randint(0, 2)
                       for j in range(3)): random_coeff(rng, field)
                 for _ in range(rng.randint(0, 4))} if dd else {}
        lower[tuple(dd if j == i else 0 for j in range(3))] = lead
        divisor = Poly(field, V, lower)
        quo, rem = divmod_in(p, divisor, var)
        assert quo * divisor + rem == p
        assert rem.is_zero or rem.degree_in(var) < dd
    zero = Poly.zero(field, V)
    assert divmod_in(zero, Poly.variable(field, V, var), var) == (zero, zero)


def test_mixed_q_representations_give_identical_certificates():
    """The representation rule only decides which type is stored: a
    certificate built from Fraction-valued inputs, even ones kept as
    integral Fractions, prints byte for byte like one built from ints."""
    f = {(5,): 1, (4,): 1, (3,): -2}          # X^3 (X - 1) (X + 2)
    P = {(0, 3): 1, (1, 2): 3, (2, 1): 3, (3, 0): 1, (0, 0): -1}   # (Z + X)^3 - 1
    docs = set()
    for conv in (int, Fraction):
        for build in (Poly, Poly._raw):
            fx = build(QQ, ("X",), {e: conv(c) for e, c in f.items()})
            Px = build(QQ, ("X", "Z"), {e: conv(c) for e, c in P.items()})
            docs.add(dumps(stable_to_doc(build_stable_iso(make_surface(QQ, fx, Px)))))
    assert len(docs) == 1
