import itertools
import random
from fractions import Fraction

import pytest

from danielewski import (GF, QQ, Poly, bezout_cofactors, build_stable_iso, exact_div,
                         make_surface, normal_form, parse_poly, resultant_in, substitute)
from danielewski.errors import FieldMismatchError, UnknownVariableError
from danielewski.jsonio import dumps, stable_to_doc
from danielewski.poly import NEG_INF, _cleared, divmod_in, pack

from conftest import random_coeff, random_poly
from oracles import fraction_mul, tuple_substitute

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


def test_divmod_in_rejects_a_nonconstant_leading_coefficient():
    message = "divisor leading coefficient in 'Z' is not constant: X + 1"
    divisor = q("X*Z^2 + Z^2 + Y")
    # p's Z-degree above, equal to and below the divisor's; zero p too
    for p in (q("Z^3 + X"), q("Z^2"), q("X*Z + Y"), q("X^4"), q("0")):
        with pytest.raises(ValueError) as info:
            divmod_in(p, divisor, "Z")
        assert str(info.value) == message
    for p in (q("Z^3"), q("X"), q("0")):
        with pytest.raises(ZeroDivisionError):
            divmod_in(p, q("0"), "Z")


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
    # surface products reach divmod_in through normal_form
    spec = make_surface(QQ, q("X^2 - 1/2*X", ("X",)), q("Z^3 - 2/3*X*Z + 1/2", ("X", "Z")))
    for _ in range(25):
        a, b = (normal_form(_random_q_poly(rng, V, max_exp=2), spec) for _ in range(2))
        for el in (a * b, a * a * b, (a + b) ** 2):
            _assert_canonical(el.raw_lift())
            assert el.raw_lift().is_zero or el.raw_lift().degree_in("Z") < 3
    for _ in range(6):
        P = _monic_cubic(rng)
        Pz = P.derivative("Z")
        other = _random_q_poly(rng, ("X", "Z"), max_exp=2)
        for r in (resultant_in(P, Pz, "Z"), resultant_in(P, other, "Z"),
                  resultant_in(other, P, "Z"), *bezout_cofactors(P, Pz, "Z")):
            _assert_canonical(r)


# -- Q products on integers: each operand's common denominator taken out once

Q_KINDS = ("int", "shared", "coprime", "mixed")


def _q_poly_of_kind(rng, vars, kind, max_exp=3, max_terms=5):
    """A Q polynomial, possibly zero, with negative coefficients among the
    rest: "int" integral; "shared" every coefficient over one denominator D
    (so each reduced denominator divides D); "coprime" a distinct prime
    denominator per term; "mixed" ints beside halves and sixths."""
    primes = iter(rng.sample((2, 3, 5, 7, 11, 13, 17), 7))
    den = rng.choice((2, 6, 12, 3 ** 40))

    def coeff():
        num = rng.randint(-50, 50)
        if kind == "int":
            return num
        if kind == "shared":
            return Fraction(num, den)
        if kind == "coprime":
            return Fraction(num, next(primes))
        return rng.choice((num, Fraction(num, rng.choice((2, 6)))))

    return Poly(QQ, vars, {tuple(rng.randint(0, max_exp) for _ in vars): coeff()
                           for _ in range(rng.randint(0, max_terms))})


def _clearing(p):
    """How the kernel treats p's denominators: "int", "cleared" or "kept"."""
    if all(type(c) is int for c in p.terms.values()):
        return "int"
    return "cleared" if _cleared(p.packed)[1] > 1 else "kept"


def test_q_products_match_fraction_reference():
    rng = random.Random("q-clearing-mul")
    seen = []
    for _ in range(150):
        vars_ = tuple(rng.sample(V, rng.randint(1, 3)))
        a, b = (_q_poly_of_kind(rng, vars_, rng.choice(Q_KINDS)) for _ in range(2))
        seen.append((_clearing(a), _clearing(b)))
        got = a * b
        assert dict(got.terms.items()) == fraction_mul(QQ, dict(a.terms.items()),
                                                       dict(b.terms.items()))
        _assert_canonical(got)
    # every pairing of an integral, a cleared and a kept operand occurs
    pairs = {frozenset(pair) for pair in seen}
    assert all(frozenset(pair) in pairs for pair in
               itertools.product(("int", "cleared", "kept"), repeat=2))
    # fractional operands with an integral product, terms that cancel to
    # zero, negative coefficients, a cleared operand beside a kept one
    for x, y, want in (("1/3*X", "3*X", "X^2"),
                       ("1/6*X + 1/2*Y", "6*X - 2*Z", "X^2 - 1/3*X*Z + 3*X*Y - Y*Z"),
                       ("X + 1/2*Y", "X - 1/2*Y", "X^2 - 1/4*Y^2"),
                       ("-1/2*X - 3/4", "-2/3*X + 4/9", "1/3*X^2 + 5/18*X - 1/3"),
                       ("1/4*X + 1/2", "1/3*X + 1/5*Y", "1/12*X^2 + 1/20*X*Y + 1/6*X + 1/10*Y"),
                       ("1/2*X - 1/2", "1/2*X + 1/2", "1/4*X^2 - 1/4")):
        got = q(x) * q(y)
        assert got == q(want), (x, y)
        _assert_canonical(got)
    assert all(type(c) is int for c in (q("1/3*X") * q("3*X")).terms.values())


def test_q_substitute_matches_fraction_reference():
    rng = random.Random("q-clearing-substitute")
    seen = set()
    for _ in range(60):
        p = _q_poly_of_kind(rng, V, rng.choice(Q_KINDS), max_exp=2, max_terms=4)
        seen.add(_clearing(p))
        bound = rng.sample(V, rng.randint(1, 3))
        bindings = {v: _q_poly_of_kind(rng, tuple(rng.sample(V, 2)), rng.choice(Q_KINDS),
                                       max_exp=2, max_terms=3) for v in bound}
        got = substitute(p, bindings, vars_out=V)
        assert dict(got.terms.items()) == tuple_substitute(p, bindings, V, mul=fraction_mul)
        _assert_canonical(got)
    assert seen == {"int", "cleared", "kept"}
    # p's denominators cancel against its images: (X/3)(3X) and 1/2 - 1/2
    got = substitute(q("1/3*X*Y + 1/2*Z"), {"Y": q("3*X"), "Z": q("X^2 - 1")})
    assert got == q("3/2*X^2 - 1/2")
    assert substitute(q("1/2*Z - 1/2"), {"Z": q("1")}).is_zero


def test_cleared_q_products_make_no_fraction_arithmetic(monkeypatch):
    # denominators {2, 6, 3} and {4, 2}: each lcm is the largest denominator
    a = q("1/2*X^2 + 1/6*X*Y - 2/3*Z + 5")
    b = q("3/4*Y*Z - 1/4*X + 7/2")
    assert _clearing(a) == _clearing(b) == "cleared"
    images = {"X": q("Y + 2*Z"), "Z": q("X*Y - 1")}
    want_product = fraction_mul(QQ, dict(a.terms.items()), dict(b.terms.items()))
    want_image = tuple_substitute(a, images, V, mul=fraction_mul)
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(x, y, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(x, y)
        monkeypatch.setattr(Fraction, name, counted)
    product, image = a * b, substitute(a, images, vars_out=V)
    monkeypatch.undo()
    assert calls == []
    assert dict(product.terms.items()) == want_product
    assert dict(image.terms.items()) == want_image


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(97)], ids=lambda f: f.tag())
def test_one_term_power_matches_repeated_multiplication(field):
    vars2 = ("X", "Z")
    coeffs = [1, 2, 7, 96] if field.modulus else [
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
            rng.randrange(1, field.modulus))
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


def _raw_from_tuples(field, vars, terms):
    """A Poly that stores the given coefficients as they are, unnormalized."""
    return Poly._raw(field, vars, {pack(e): c for e, c in terms.items()})


def test_mixed_q_representations_give_identical_certificates():
    """The representation rule only decides which type is stored: a
    certificate built from Fraction-valued inputs, even ones kept as
    integral Fractions, prints byte for byte like one built from ints."""
    f = {(5,): 1, (4,): 1, (3,): -2}          # X^3 (X - 1) (X + 2)
    P = {(0, 3): 1, (1, 2): 3, (2, 1): 3, (3, 0): 1, (0, 0): -1}   # (Z + X)^3 - 1
    docs = set()
    for conv in (int, Fraction):
        for build in (Poly, _raw_from_tuples):
            fx = build(QQ, ("X",), {e: conv(c) for e, c in f.items()})
            Px = build(QQ, ("X", "Z"), {e: conv(c) for e, c in P.items()})
            docs.add(dumps(stable_to_doc(build_stable_iso(make_surface(QQ, fx, Px)))))
    assert len(docs) == 1
