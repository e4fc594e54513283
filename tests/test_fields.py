import pytest
from decimal import Decimal
from fractions import Fraction

from danielewski import GF, QQ, Scalar, parse_field_tag
from danielewski.errors import FieldMismatchError
from danielewski.fields import number_str, q_norm


def test_characteristics():
    assert QQ.modulus == 0
    assert GF(7).modulus == 7


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    GF(2147483647)  # largest prime below 2**31


def test_field_tags():
    assert QQ.tag() == "Q"
    assert GF(97).tag() == "F97"
    assert parse_field_tag("Q") == QQ
    assert parse_field_tag("F2") == GF(2)
    with pytest.raises(ValueError):
        parse_field_tag("F")
    with pytest.raises(ValueError):
        parse_field_tag("R")
    # only the tags FieldSpec.tag() prints: no other digits, no leading zero,
    # no more digits than a modulus below 2**31 has
    for tag in ("F\u0663", "F\u00b2", "F07", "F\uff17", "F7 ", " F7", "F+7", "F0",
                "F" + "9" * 11, "F" + "7" * 5000):
        with pytest.raises(ValueError) as err:
            parse_field_tag(tag)
        assert str(err.value) == f"unknown field tag {tag!r} (expected \"Q\" or \"F<p>\")"
    assert parse_field_tag("F2147483647") == GF(2147483647)
    with pytest.raises(ValueError, match="prime below 2"):
        parse_field_tag("F4294967311")


def test_rational_arithmetic_is_exact():
    a = Scalar(QQ, Fraction(1, 3))
    b = Scalar(QQ, Fraction(1, 6))
    assert a + b == Fraction(1, 2)
    assert a * 3 == 1
    assert (a / b).value == 2
    assert -a == Fraction(-1, 3)
    assert a ** 3 == Fraction(1, 27)


def test_prime_field_residues_are_canonical():
    a = Scalar(GF(5), 7)
    assert a.value == 2
    assert a + 4 == 1
    assert (a / 3).value == 4  # 2 * inv(3) = 2 * 2
    assert Scalar(GF(5), -1).value == 4


def test_rational_literal_in_prime_field():
    assert Scalar(GF(5), Fraction(1, 2)).value == 3
    with pytest.raises(ZeroDivisionError):
        Scalar(GF(5), Fraction(1, 5))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar(QQ, 1) / Scalar(QQ, 0)
    with pytest.raises(ZeroDivisionError):
        Scalar(GF(3), 1) / Scalar(GF(3), 0)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        Scalar(QQ, 1) + Scalar(GF(3), 1)


def test_equality_is_structural():
    assert Scalar(QQ, Fraction(2, 4)) == Scalar(QQ, Fraction(1, 2))
    assert Scalar(GF(3), 5) == Scalar(GF(3), 2)
    assert Scalar(QQ, 1) != Scalar(GF(3), 1)
    assert hash(Scalar(QQ, Fraction(2, 4))) == hash(Scalar(QQ, Fraction(1, 2)))


def _same(value, expected):
    """Equal, and of the same type (int or Fraction)."""
    return type(value) is type(expected) and value == expected


def test_q_raw_values_are_ints_when_integral():
    assert _same(q_norm(Fraction(6, 3)), 2) and _same(q_norm(5), 5)
    assert _same(q_norm(Fraction(1, 3)), Fraction(1, 3))
    assert _same(QQ.coerce(Fraction(4, 2)), 2)
    assert _same(QQ.coerce(-7), -7)
    assert _same(QQ.coerce(True), 1)
    assert _same(QQ.zero(), 0) and _same(QQ.one(), 1)
    assert _same(QQ.inv(Fraction(1, 3)), 3) and _same(QQ.inv(-2), Fraction(-1, 2))
    assert _same(QQ.pow(Fraction(1, 2), -2), 4) and _same(QQ.pow(3, 0), 1)
    assert _same(QQ.pow(Fraction(2, 3), 2), Fraction(4, 9))
    assert _same(QQ.mul(Fraction(1, 2), 4), 2)
    assert _same(QQ.add(Fraction(1, 2), Fraction(1, 2)), 1)
    assert _same(QQ.sub(Fraction(1, 2), Fraction(-3, 2)), 2)
    assert _same(QQ.div(3, Fraction(3, 2)), 2)
    assert _same(Scalar(QQ, Fraction(9, 3)).value, 3)
    assert _same((Scalar(QQ, Fraction(1, 3)) * 3).value, 1)
    # over F_p nothing changes: residues stay ints in [0, p)
    assert _same(GF(7).coerce(Fraction(1, 2)), 4) and _same(GF(7).one(), 1)


def test_q_coerce_never_truncates():
    # anything that is neither an int nor a Fraction goes through Fraction(x)
    assert _same(QQ.coerce(2.5), Fraction(5, 2))
    assert _same(QQ.coerce(0.1), Fraction(0.1)) and QQ.coerce(0.1) != 0
    assert _same(QQ.coerce(2.0), 2)
    assert _same(QQ.coerce("3/4"), Fraction(3, 4))
    assert _same(QQ.coerce("-1.5"), Fraction(-3, 2))
    for x in (2.5, 0.1, "3/4", -1.5):
        assert type(QQ.coerce(x)) is not float


def test_number_str_prints_past_the_digit_limit():
    big = 3 ** 10000          # 4,772 digits, past the 4,300-digit limit of str(int)
    assert number_str(-big) == str(Decimal(-big))
    assert number_str(Fraction(-1, big)) == f"-1/{Decimal(big)}"
    assert number_str(Fraction(2, 3)) == "2/3" and number_str(7) == "7"
    assert str(Scalar(QQ, Fraction(1, big))) == f"1/{Decimal(big)}"
    assert repr(Scalar(QQ, -big)) == f"Scalar(Q, {Decimal(-big)})"
