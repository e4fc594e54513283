import hashlib
import math
import time
from fractions import Fraction

import pytest

from danielewski import GF, QQ, Poly, parse_poly, parse_scalar, parsing, poly_str
from danielewski.errors import PolyParseError
from danielewski.parsing import MAX_CONSTANT_BITS, MAX_DEGREE, MAX_NESTING, MAX_TERM_PRODUCTS

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


def test_constant_product_budget():
    V2 = ("X", "Z")
    k = MAX_CONSTANT_BITS * 3 // 5                # 3^k is inside the budget, 3^(2k) is not
    product = "*".join([f"3^{k}"] * 50)
    for text in (product, f"3^{k}*3^{k}", f"(1/3)^{k}*(1/3)^{k} + X",
                 f"(3^{k} + X)*(3^{k} + Z)", f"(3^{k} + X)^2", f"2^{MAX_CONSTANT_BITS}*2"):
        started = time.process_time()
        with pytest.raises(PolyParseError, match="input budget"):
            parse_poly(text, QQ, V2)
        assert time.process_time() - started < 0.1, text
    # a product is refused only when its value is certainly past 2^MAX_CONSTANT_BITS
    assert parse_poly(f"2^{MAX_CONSTANT_BITS}*1*(-1)", QQ, V2).constant_value().value == (
        -2 ** MAX_CONSTANT_BITS)
    assert parse_poly(f"2^{MAX_CONSTANT_BITS // 2}*2^{MAX_CONSTANT_BITS // 2}", QQ,
                      V2).constant_value().value == 2 ** MAX_CONSTANT_BITS
    assert parse_poly(f"3^{k}*(1/3)^{k}*X", QQ, V2) == parse_poly("X", QQ, V2)
    # over F_p every product is reduced as it is formed
    assert parse_poly(product, GF(7), V2).constant_value().value == pow(3, k * 50, 7)


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
        p = field.modulus
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


# powers whose expansion the parser's multiply steps are pinned for: a sum
# that grows to the work budget, one whose degree passes the degree budget,
# one that is a monomial over F3, one with a rational constant
_POWER_BASES = ("(Z+X+1)", "(X^2-2*Z+X*Z)", "(3*X+Z)", "(X+1/2)")
_POWER_EXPONENTS = (*range(41), 64, 100, 255)
_POWER_FIELDS = {"Q": QQ, "F3": GF(3), "F7": GF(7)}

# sha256 of _power_transcript per (field, base), recorded at 89e0fdb
_POWER_DIGESTS = {
    ('Q', '(Z+X+1)'): "707eef47165ca6b6ccf586c068ddc8dbd81c810b418a5d7432d86bf6b72ac8f4",
    ('Q', '(X^2-2*Z+X*Z)'): "6b3ff980cefd115603e8026a53b3346d5635740ee6422d5c69adfd465e515b5b",
    ('Q', '(3*X+Z)'): "a3435f8899fec2287bfb2673369c7a5d7a4c13c3e61b5da7a5ac78ec17e1a081",
    ('Q', '(X+1/2)'): "8069b3b4b1cbb7b3197b461266c1e42996dfed02f3566c0d4d37e3447de65e33",
    ('F3', '(Z+X+1)'): "dbbde09d71ad507603d579d03201af2f20d204c0288af2c238394af734b55180",
    ('F3', '(X^2-2*Z+X*Z)'): "360e322ef75a2dcfb9de5378ee08c07f73a6ce4ad627e38c03c00cb32f05234b",
    ('F3', '(3*X+Z)'): "dd11de460e1d665d4a428116850e42305607ff1ebf07b9ffb5522b8f238aeb34",
    ('F3', '(X+1/2)'): "1b5695e9d608490029f8e74d77970659d27453551c470ca08503f1d20d81a7c2",
    ('F7', '(Z+X+1)'): "f7bd3d0e053ab563b4f58402b97bb42ba6cd6bb80ee84b29fb9bc999a17a9763",
    ('F7', '(X^2-2*Z+X*Z)'): "94020397ca628099db7c7640e0223cece15c1edc3d928d9e8acb8c7a45e0ed7d",
    ('F7', '(3*X+Z)'): "b45a7465fbd0e586c0e40de91a5c7b592e2df5f0e4f7d2dbc65c93076dbe1ca9",
    ('F7', '(X+1/2)'): "eeb130484b881560003a5efb5ca02b343f12b5721a1cb844dccce471ced2159d",
}


def _power_transcript(field, base):
    """One line per exponent: the (len(a), len(b)) of every multiply step the
    parser takes for base^e, then the printed value, or the refusal's
    message and position."""
    steps = []
    multiply = parsing._Parser.multiply

    def recorded(parser, a, b, at):
        steps.append((len(a), len(b)))
        return multiply(parser, a, b, at)

    lines = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parsing._Parser, "multiply", recorded)
        for e in _POWER_EXPONENTS:
            steps.clear()
            try:
                outcome = poly_str(parse_poly(f"{base}^{e}", field, ("X", "Z")))
            except PolyParseError as err:
                outcome = f"{err.args[0]} [{err.position}]"
            lines.append(f"{e} {steps} {outcome}")
    return "\n".join(lines)


@pytest.mark.parametrize("field", _POWER_FIELDS)
@pytest.mark.parametrize("base", _POWER_BASES)
def test_powers_keep_their_multiply_steps_values_and_refusals(field, base):
    transcript = _power_transcript(_POWER_FIELDS[field], base)
    assert hashlib.sha256(transcript.encode()).hexdigest() == _POWER_DIGESTS[field, base]


def test_nesting_budget_refuses_at_the_parenthesis_past_it():
    from oracles import parse_by_products
    V2 = ("X", "Z")
    deepest = "(" * MAX_NESTING + "X^2" + ")" * MAX_NESTING
    assert parse_poly(deepest, QQ, V2) == parse_poly("X^2", QQ, V2)
    # the depth is of open parentheses, not of all parentheses read
    assert parse_poly(" + ".join([deepest] * 3), GF(5), V2) == parse_poly("3*X^2", GF(5), V2)
    for n in (MAX_NESTING + 1, 250, 100000):
        for prefix in ("", "Z - 2*"):
            text = prefix + "(" * n + "X^2" + ")" * n
            for parse in (parse_poly, parse_by_products):
                with pytest.raises(PolyParseError, match=f"budget of {MAX_NESTING} levels") as err:
                    parse(text, QQ, V2)
                assert err.value.position == len(prefix) + MAX_NESTING, (parse, n)


def test_a_chain_of_unary_minus_signs_is_read_without_recursion():
    V2 = ("X", "Z")
    for n in (1, 2, 5000, 5001):
        sign = "-" if n % 2 else ""
        assert parse_poly("-" * n + "X^2", QQ, V2) == parse_poly(sign + "X^2", QQ, V2)
        assert (parse_poly("Z*" + "-" * n + "(X+1)^2", GF(7), V2)
                == parse_poly(sign + "Z*(X+1)^2", GF(7), V2))
    with pytest.raises(PolyParseError, match="unexpected end of input") as err:
        parse_poly("-" * 5000, QQ, V2)
    assert err.value.position == 5000


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


# -- the literal-monomial reader: edge cases against the product parser -------

MONOMIAL_EDGE_CASES = (
    "13*", "X*", "X^", "X^0", "3*X*X", "X*2",
    "--X", " - X", "X  +  Z ",
    "0*X^300", "X^300", "X^200*Z^100", "X^2147483648",
    "1/0*X", "2/3*X",
    "W", "2*W^2",
)


@pytest.mark.parametrize("field", (QQ, GF(3)), ids=("Q", "F3"))
@pytest.mark.parametrize("case", MONOMIAL_EDGE_CASES)
def test_monomial_edge_cases_match_product_parser(case, field):
    from oracles import parse_by_products
    # alone, as a summand after each operator, and inside parentheses
    for text in (case, f"Y + {case}", f"Y - {case}", f"Y-{case}", f"({case})*Y"):
        assert _outcome(parse_poly, text, field) == _outcome(parse_by_products, text, field), text


def test_monomial_edge_case_errors():
    V3 = ("X", "Y", "Z")
    for text, position in (("X^200*Z^100", 5), ("Y + X^200*Z^100", 9), ("13*", 3),
                           ("X^300", 2), ("0*X^300", 4), ("1/0*X", 2), ("X - W", 4)):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, QQ, V3)
        assert err.value.position == position, text
    with pytest.raises(PolyParseError, match="not invertible") as err:
        parse_poly("Y + 2/3*X", GF(3), V3)
    assert err.value.position == 6
    # a zero coefficient drops the monomial but not the checks on its powers
    assert parse_poly("0*X^200*Z^100 + Y", QQ, V3) == parse_poly("Y", QQ, V3)
    assert parse_poly("3*X^200*Z^100 + Y", GF(3), V3) == parse_poly("Y", GF(3), V3)


def test_long_literals_are_refused_at_their_position():
    # a literal may have as many digits as 2^(MAX_CONSTANT_BITS + 1), no more
    digits = len(str(2 ** (MAX_CONSTANT_BITS + 1)))
    longest, past = "9" * digits, "1" + "0" * digits
    for field in (QQ, GF(5)):
        for text, position in ((past, 0), (f"X + {past}*Z", 4), (f"1/{past}", 2),
                               (f"X^{past}", 2), (f"Z - ({past})", 5), ("1" * 5000, 0)):
            with pytest.raises(PolyParseError, match="input budget") as err:
                parse_poly(text, field, ("X", "Z"))
            assert err.value.position == position, (field, text[:12])
        assert parse_poly(f"X + {longest}", field, ("X", "Z")).terms[(0, 0)] == (
            field.coerce(10 ** digits - 1))
    # a product with the longest literal still meets the bit budget
    with pytest.raises(PolyParseError, match="constant product"):
        parse_poly(f"X + {longest}*Z", QQ, ("X", "Z"))


def test_coefficients_built_from_several_factors_or_terms_keep_the_bit_budget():
    # each operand is inside the budget, but a coefficient that a sum, a
    # product of sums or a power of a monomial builds is past it: refused at
    # its operator, so that every accepted input prints as literals the
    # parser accepts again
    V2 = ("X", "Z")
    for text, position in (("Z^2 + (1/3)^5000 + (1/5)^3500", 17),
                           ("(1/3)^5000*X + Z - (1/5)^3500*X", 17),
                           ("((1/3)^1300*X + (1/5)^1100)*((1/7)^900*X + (1/11)^700)", 27),
                           ("(3^5000*X)^2", 11)):
        with pytest.raises(PolyParseError, match="input budget") as err:
            parse_poly(text, QQ, V2)
        assert err.value.position == position, text
    # a sum whose partial sums all stay inside the budget is read
    p = parse_poly("(1/3)^5000*X + Z - (1/3)^5000*X", QQ, V2)
    assert p == parse_poly("Z", QQ, V2)


def test_constants_within_the_bit_budget_print_and_parse_back():
    V2 = ("X", "Z")
    bits = MAX_CONSTANT_BITS
    for text in (f"2^{bits}", f"2^{bits}*Z + X", f"-(1/3)^{int(bits / math.log2(3))}*X",
                 f"2^{bits}*1*(-1) + X", f"{2 ** (bits + 1) - 1}*Z", f"1/{2 ** (bits + 1) - 1}"):
        p = parse_poly(text, QQ, V2)
        assert parse_poly(poly_str(p), QQ, V2) == p, text[:20]
