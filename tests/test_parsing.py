import pytest
from fractions import Fraction

from danielewski import GF, QQ, parse_poly, parse_scalar, poly_str
from danielewski.errors import PolyParseError
from danielewski.parsing import MAX_CONSTANT_BITS, MAX_DEGREE

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
