from fractions import Fraction

import pytest

from danielewski import (GF, QQ, Scalar, factor_univariate, gcd_univariate,
                         is_squarefree, parse_poly, poly_str, roots_in_field,
                         squarefree_part)
from danielewski.factor import _add, _divmod, _gcd, _mul, _norm, _xgcd, dense_to_poly

from conftest import D_ODD_PRIMES as D, random_poly
from oracles import roots_by_evaluation


def q(text):
    return parse_poly(text, QQ, ("X",))


def fp(text, p):
    return parse_poly(text, GF(p), ("X",))


def as_strs(fac):
    return sorted((poly_str(g), m) for g, m in fac.factors)


def test_factor_examples():
    assert as_strs(factor_univariate(fp("X^2+X", 2))) == [("X", 1), ("X + 1", 1)]
    assert as_strs(factor_univariate(q("X^3-X^2"))) == [("X", 2), ("X - 1", 1)]
    assert as_strs(factor_univariate(q("X^2+1"))) == [("X^2 + 1", 1)]


def test_factor_lead_coefficient():
    fac = factor_univariate(q("6*X^2 - 6"))
    assert fac.lead == 6
    assert as_strs(fac) == [("X + 1", 1), ("X - 1", 1)]
    assert fac.expand() == q("6*X^2 - 6")


def test_factor_rejects_zero_and_multivariate():
    with pytest.raises(ZeroDivisionError):
        factor_univariate(q("0"))
    with pytest.raises(ValueError):
        factor_univariate(parse_poly("X*Z", QQ, ("X", "Z")))


def test_factor_round_trip_prime_fields(rng):
    # 200 random products of irreducible-candidates per field
    for p in (2, 3, 5, 7, 97):
        field = GF(p)
        for trial in range(200):
            poly = parse_poly("1", field, ("X",))
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 4)
                coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
                poly = poly * dense_to_poly(coeffs, field, ("X",), "X") ** rng.randint(1, 2)
            poly = poly * rng.randrange(1, p)
            assert factor_univariate(poly).expand() == poly


def test_factor_round_trip_rationals(rng):
    linears = ["X", "X - 1", "X + 2", "2*X + 1", "X - 1/2"]
    quads = ["X^2 + 1", "X^2 - 2", "X^2 + X + 1"]
    for trial in range(200):
        poly = q("1")
        for _ in range(rng.randint(1, 3)):
            text = rng.choice(linears + quads)
            poly = poly * q(text) ** rng.randint(1, 2)
        fac = factor_univariate(poly)
        assert fac.expand() == poly
        for g, _ in fac.factors:
            assert g.coefficient((g.degree_in("X"),)) == 1  # monic parts


def test_factor_desk_scale_degrees():
    poly = q("(X^3+X+1)*(X^3-2)*(X^2+X+1)*(X-3)*(X+7)")
    fac = factor_univariate(poly)
    assert fac.expand() == poly and len(fac.factors) == 5
    poly = q("(X^4+X+1)^2*(X^2+3)*(X-1)^2")
    fac = factor_univariate(poly)
    assert fac.expand() == poly
    assert sorted((int(g.total_degree()), m) for g, m in fac.factors) == \
        [(1, 2), (2, 1), (4, 2)]


def test_factor_determinism():
    poly = fp("X^6 + X^5 + X^4 + X^2 + 1", 5) * 3
    a = factor_univariate(poly)
    b = factor_univariate(poly)
    assert a == b


def test_roots_examples():
    assert sorted(s.value for s in roots_in_field(q("X^2-1"))) == [-1, 1]
    assert roots_in_field(q("X^2+1")) == []
    assert sorted(s.value for s in roots_in_field(fp("X^2+X", 2))) == [0, 1]


def test_roots_with_multiplicity(rng):
    r = roots_in_field(q("X^3 - X^2"))
    assert sorted(s.value for s in r) == [0, 0, 1]
    r = roots_in_field(q("4*X^2 - 4*X + 1"))
    assert [str(s) for s in r] == ["1/2", "1/2"]  # (2X-1)^2: multiplicity 2


def test_roots_match_evaluation(rng):
    for field in (QQ, GF(7)):
        for _ in range(80):
            p = random_poly(rng, field, ("X",), max_exp=5, nonzero=True)
            roots = roots_in_field(p)
            for s in roots:
                assert p.evaluate({"X": s}) == 0
            if field.characteristic():
                exhaustive = [c for c in range(7)
                              if p.evaluate({"X": Scalar(field, c)}) == 0]
                assert sorted(set(s.value for s in roots)) == exhaustive


def test_roots_match_evaluation_oracle(rng):
    """Roots read off the factorization against evaluation at every residue,
    multiplicities included, over every prime field F2..F97."""
    primes = [p for p in range(2, 98) if all(p % k for k in range(2, p))]
    for p in primes:
        field = GF(p)
        for _ in range(12):
            poly = parse_poly("1", field, ("X",))
            for _ in range(rng.randint(1, 4)):
                coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1]
                poly = poly * dense_to_poly(coeffs, field, ("X",), "X") ** rng.randint(1, 3)
            poly = poly * rng.randrange(1, p)
            assert roots_in_field(poly) == roots_by_evaluation(poly)
    with pytest.raises(ZeroDivisionError):
        roots_in_field(fp("0", 5))


def test_big_constants_over_q():
    """Neither roots nor factors depend on trial division of the constant
    term, and the good-prime walk goes past every prime dividing it."""
    assert [s.value for s in roots_in_field(q("X^2 - 2^200"))] == [-2 ** 100, 2 ** 100]
    assert [s.value for s in roots_in_field(q(f"X^2 - {D * D}"))] == [-D, D]
    assert as_strs(factor_univariate(q(f"X^3 - {D}"))) == [(f"X^3 - {D}", 1)]
    assert as_strs(factor_univariate(q(f"X^2 - {D}"))) == [(f"X^2 - {D}", 1)]
    fac = factor_univariate(q(f"(X^3 - {D})*(X - 1)^2"))
    assert as_strs(fac) == [("X - 1", 2), (f"X^3 - {D}", 1)]


def test_large_prime_field():
    field = GF(2147483647)
    poly = parse_poly("(X^2 + 1)*(X - 5)^2*(X + 7)", field, ("X",))
    assert [s.value for s in roots_in_field(poly)] == [5, 5, 2147483640]
    assert roots_in_field(parse_poly("X^2 + 1", field, ("X",))) == []


def test_gcd_examples():
    assert poly_str(gcd_univariate(q("X^2*(X-1)"), q("X*(X+1)"))) == "X"
    assert poly_str(gcd_univariate(q("2*X + 2"), q("0"))) == "X + 1"
    assert gcd_univariate(q("0"), q("0")).is_zero
    assert poly_str(gcd_univariate(q("X^2+1"), q("2*X"))) == "1"
    with pytest.raises(ValueError):
        gcd_univariate(parse_poly("X*Z", QQ, ("X", "Z")), q("X"))


def test_squarefree_detection():
    assert not is_squarefree(q("X^2"))
    assert is_squarefree(q("X^2 - 1"))
    # inseparable-style case: derivative vanishes in characteristic 2
    assert not is_squarefree(parse_poly("Z^2+1", GF(2), ("Z",)))
    assert poly_str(squarefree_part(q("X^3 - X^2"))) == "X^2 - X"


def test_dense_kernel_contract(rng):
    """The dense kernel over Z/m: m = 0 on Fractions and on ints, m = p, and
    m = 3**4, where only monic divisors are allowed."""
    def rand(kind, n, monic=False):
        if kind == "Q":
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
        elif kind == "Z":
            cs = [rng.randint(-9, 9) for _ in range(n + 1)]
        else:
            cs = [rng.randrange(kind) for _ in range(n + 1)]
        if monic:
            cs[-1] = 1
        return _norm(cs, 0 if kind in ("Q", "Z") else kind)

    for kind, m, monic in (("Q", 0, False), ("Z", 0, False), (7, 7, False),
                           (97, 97, False), (81, 81, True)):
        for _ in range(60):
            f = rand(kind, rng.randint(0, 9))
            g = rand(kind, rng.randint(0, 5), monic)
            if not g:
                continue
            q, r = _divmod(f, g, m)
            assert _add(_mul(q, g, m), r, m) == _norm(f, m)
            assert len(r) < len(g)
    for kind in ("Q", 7, 97):
        m = 0 if kind == "Q" else kind
        coprime = 0
        for _ in range(60):
            c = rand(kind, rng.randint(0, 3))
            f = _mul(rand(kind, rng.randint(0, 6)), c, m)
            g = _mul(rand(kind, rng.randint(0, 6)), c, m)
            if not f or not g:
                continue
            d = _gcd(f, g, m)
            assert d[-1] == 1 and len(d) >= len(c)
            assert _divmod(f, d, m)[1] == [] and _divmod(g, d, m)[1] == []
            d2, s, t = _xgcd(f, g, m)
            assert d2 == d
            assert _add(_mul(s, f, m), _mul(t, g, m), m) == d
            coprime += d == [1]
        assert coprime


def test_factorization_roots_and_one_factorization_in_surface_info(monkeypatch, capsys):
    from danielewski import cli, factor, isomorph, surface
    for text in ("X^3 - X^2", "X^2 + 1", "4*X^2 - 4*X + 1", "7"):
        assert factor_univariate(q(text)).roots() == roots_in_field(q(text))
    assert factor_univariate(fp("X^3 + X", 5)).roots() == roots_in_field(fp("X^3 + X", 5))
    f_text = "X^3 - X^2"
    calls = []
    original = factor.factor_univariate
    for module in (cli, factor, isomorph, surface):
        if getattr(module, "factor_univariate", None) is original:
            monkeypatch.setattr(module, "factor_univariate",
                                lambda p: calls.append(poly_str(p)) or original(p))
    assert cli.main(["surface", "info", "--field", "Q", "--f", f_text, "--phi", "Z^2+1"]) == 0
    assert "fiber over x = 0" in capsys.readouterr().out
    assert calls.count(poly_str(q(f_text))) == 1
