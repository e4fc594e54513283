import time
from fractions import Fraction

import pytest

from danielewski import GF, QQ, Poly, parse_poly, parse_scalar, poly_str
from danielewski.errors import PolyParseError
from danielewski.parsing import MAX_CONSTANT_BITS, MAX_DEGREE, MAX_TERM_PRODUCTS

from conftest import random_poly


def test_parse_examples():
    p = parse_poly("X^2*Y - Z^2 - 1", QQ, ("X", "Y", "Z"))
    assert p.terms == {(2, 1, 0): Fraction(1), (0, 0, 2): Fraction(-1),
                       (0, 0, 0): Fraction(-1)}
    q = parse_poly("X*(X+1)", GF(2), ("X",))
    assert q == parse_poly("X^2 + X", GF(2), ("X",))
    z = parse_poly("0", QQ, ("X", "Y"))
    assert z.is_zero and z.terms == {}


def test_rational_literals():
    p = parse_poly("1/2*X - 3/4", QQ, ("X",))
    assert p.coefficient((1,)) == Fraction(1, 2)
    assert p.coefficient((0,)) == Fraction(-3, 4)
    assert parse_scalar("7/3", QQ).value == Fraction(7, 3)
    # literal denominators reduce through the field inverse over F_p
    assert parse_scalar("1/2", GF(5)).value == 3


def test_noninvertible_denominator_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("1/2", GF(2), ())


def test_syntax_errors_carry_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("X + ", QQ, ("X",))
    assert err.value.position == 4
    with pytest.raises(PolyParseError) as err:
        parse_poly("X ^ Y", QQ, ("X", "Y"))
    assert err.value.position == 4
    with pytest.raises(PolyParseError):
        parse_poly("X X", QQ, ("X",))  # implicit multiplication is not allowed
    with pytest.raises(PolyParseError):
        parse_poly("2 X", QQ, ("X",))
    with pytest.raises(PolyParseError):
        parse_poly("X + $", QQ, ("X",))


def test_unknown_variable_rejected():
    with pytest.raises(PolyParseError) as err:
        parse_poly("X + W", QQ, ("X",))
    assert "W" in str(err.value)


def test_precedence_and_unary_minus():
    assert parse_poly("-X^2", QQ, ("X",)) == -parse_poly("X^2", QQ, ("X",))
    assert parse_poly("2*X^3", QQ, ("X",)).coefficient((3,)) == 2
    assert parse_poly("-(X - 1)", QQ, ("X",)) == parse_poly("1 - X", QQ, ("X",))
    assert parse_poly("X - Y - Z", QQ, ("X", "Y", "Z")) == \
        parse_poly("X - (Y + Z)", QQ, ("X", "Y", "Z"))


def test_print_parse_round_trip(rng):
    for field in (QQ, GF(7)):
        for _ in range(200):
            p = random_poly(rng, field, ("X", "Y", "Z"))
            text = poly_str(p)
            assert parse_poly(text, field, ("X", "Y", "Z")) == p
            # canonical: printing the reparse reproduces the text
            assert poly_str(parse_poly(text, field, ("X", "Y", "Z"))) == text


def test_fuzzed_inputs_parse_or_report(rng):
    # random token soup either parses or raises a positioned error, nothing else
    pieces = ["X", "Y", "2", "13", "+", "-", "*", "^", "(", ")", "/", " ", "1/2"]
    for _ in range(400):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 12)))
        try:
            parse_poly(text, QQ, ("X", "Y"))
        except PolyParseError as err:
            assert 0 <= err.position <= len(text)
        except OverflowError:
            pass  # exponent beyond 2**31 via repeated '^' digits


def test_canonical_output_shape():
    p = parse_poly("Z^2 + X^2*Y - 1", QQ, ("X", "Y", "Z"))
    assert poly_str(p) == "X^2*Y + Z^2 - 1"  # graded-lex, total degree first
    assert poly_str(parse_poly("0", QQ, ("X",))) == "0"
    assert poly_str(parse_poly("-1/2*X + 1", QQ, ("X",))) == "-1/2*X + 1"


def test_degree_budget_is_checked_before_expanding():
    V2 = ("X", "Z")
    assert parse_poly(f"X^{MAX_DEGREE}", QQ, V2).total_degree() == MAX_DEGREE
    assert parse_poly(f"X^{MAX_DEGREE - 6}*(Z+X)^3*Z^3", GF(3), V2).total_degree() == MAX_DEGREE
    for text in (f"X^{MAX_DEGREE + 1}", "(Z+1)^3000", f"(Z+X)^{MAX_DEGREE // 2}*(Z+1)^{MAX_DEGREE}",
                 f"X^200*Z^{MAX_DEGREE - 199}", "((Z+X)^20)^20", "X^2147483647"):
        with pytest.raises(PolyParseError, match="input budget"):
            parse_poly(text, QQ, V2)
    # the zero polynomial has no degree, so its powers and products pass
    assert parse_poly("(X-X)^3000 + Z", QQ, V2) == parse_poly("Z", QQ, V2)
    assert parse_poly(f"0*X^{MAX_DEGREE}*Z^{MAX_DEGREE}", QQ, V2).is_zero


def test_constant_power_budget():
    V2 = ("X", "Z")
    for text in ("7^2000000000", f"2^{MAX_CONSTANT_BITS + 1}", "(1/3)^100000", "Z + (-5)^90000"):
        with pytest.raises(PolyParseError, match="input budget"):
            parse_poly(text, QQ, V2)
    assert parse_poly(f"2^{MAX_CONSTANT_BITS}", QQ, V2).constant_value().value == 2 ** MAX_CONSTANT_BITS
    assert parse_poly("1^2000000000 + (-1)^2000000001", QQ, V2).is_zero
    # over F_p a constant power is one modular pow, so it needs no budget
    assert parse_poly("7^2000000000", GF(97), V2).constant_value().value == pow(7, 2000000000, 97)


def test_long_sum_round_trip(rng):
    vars3 = ("X", "Y", "Z")
    for field in (QQ, GF(5)):
        terms = {}
        while len(terms) < 320:
            exps = tuple(rng.randint(0, 7) for _ in vars3)
            c = (Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3)) if field == QQ
                 else rng.randint(1, 4))
            terms[exps] = c
        p = Poly(field, vars3, terms)
        assert len(p.terms) >= 300
        text = poly_str(p)
        assert parse_poly(text, field, vars3) == p
        # the sum minus itself cancels exactly, term by term
        assert parse_poly(f"{text} - ({text})", field, vars3).terms == {}


def test_sum_stores_canonical_coefficients():
    p = parse_poly("1/2*X + 1/2*X", QQ, ("X",))
    assert p.terms == {(1,): 1} and type(p.terms[(1,)]) is int
    q = parse_poly("1/3 + 2/3 - X + X", QQ, ("X",))
    assert q.terms == {(0,): 1} and type(q.terms[(0,)]) is int
    assert parse_poly("X - X + 0", QQ, ("X",)).is_zero
    r = parse_poly("3*X + 4*X - 2", GF(5), ("X",))
    assert r.terms == {(1,): 2, (0,): 3}


# -- the monomial-level parser against the product parser -------------------

def _random_expr(rng, p, depth=0):
    """A random expression in X, Y, Z: parentheses, powers, rationals, unary
    minus, zero monomials, and (with p > 0) constants that are 0 mod p."""
    terms = []
    for k in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.3:
                base = rng.choice("XYZ")
            elif roll < 0.45:
                base = str(rng.choice([0, 1, 2, 3, 12]))
            elif roll < 0.55:
                base = f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
            elif roll < 0.65 and p:
                base = str(p * rng.randint(1, 3))
            elif roll < 0.75:
                base = f"0*{rng.choice('XYZ')}^{rng.randint(0, 9)}"
            elif depth < 2:
                base = f"({_random_expr(rng, p, depth + 1)})"
            else:
                base = rng.choice("XYZ")
            if rng.random() < 0.3 and "*" not in base[:3]:
                base = f"{base}^{rng.randint(0, 4)}"
            factors.append("-" * rng.choice((0, 0, 0, 1, 2)) + base)
        term = rng.choice(("*", " * ")).join(factors)
        terms.append(term if k == 0 else f" {rng.choice('+-')} {term}")
    return "".join(terms)


def _outcome(parse, text, field):
    try:
        return parse(text, field, ("X", "Y", "Z")).terms
    except PolyParseError as err:
        return ("error", str(err), err.position)


def test_parser_matches_product_parser(rng):
    from oracles import parse_by_products
    for field in (QQ, GF(2), GF(5), GF(7)):
        p = field.characteristic()
        for _ in range(300):
            text = _random_expr(rng, p)
            want = _outcome(parse_by_products, text, field)
            got = _outcome(parse_poly, text, field)
            assert got == want, text
            if isinstance(got, dict):
                assert all(type(c) is int or c.denominator > 1 for c in got.values())


def test_parser_errors_match_product_parser(rng):
    from oracles import parse_by_products
    pieces = ["X", "Y", "2", "13", "+", "-", "*", "^", "(", ")", "/", " ", "1/2", "0", "$"]
    for field in (QQ, GF(3)):
        for _ in range(400):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
            assert _outcome(parse_poly, text, field) == _outcome(parse_by_products, text, field), text


def test_work_budget_refuses_large_products():
    V2 = ("X", "Z")
    started = time.process_time()
    for text in ("(Z+X+1)^64*(Z+X+1)^64", "(Z+X+1)^64", "(X+Z+1)^40*(X+Z+1)^40"):
        with pytest.raises(PolyParseError, match="input budget"):
            parse_poly(text, QQ, V2)
    assert time.process_time() - started < 1.0
    # a product just inside the budget is expanded
    side = "+".join(f"X^{i}*Z^{j}" for i in range(16) for j in range(16))
    assert len(parse_poly(f"({side})*({side})", QQ, V2).terms) == 31 * 31
    assert 256 * 256 <= MAX_TERM_PRODUCTS


def test_canonical_sum_needs_no_polynomial_product(monkeypatch, rng):
    calls = []
    for name in ("__mul__", "__pow__"):
        original = getattr(Poly, name)
        monkeypatch.setattr(Poly, name, lambda a, b, _f=original, _n=name: calls.append(_n) or _f(a, b))
    vars3 = ("X", "Y", "Z")
    for field in (QQ, GF(5)):
        for _ in range(50):
            p = random_poly(rng, field, vars3, max_exp=6, max_terms=12)
            assert parse_poly(poly_str(p), field, vars3) == p
    assert parse_poly("-3/4*X^2*Y*Z^3 + 2^5*X - -Y", QQ, vars3).terms == {
        (2, 1, 3): Fraction(-3, 4), (1, 0, 0): 32, (0, 1, 0): 1}
    assert calls == []
