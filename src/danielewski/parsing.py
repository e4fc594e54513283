"""Polynomial expression grammar and the canonical printer.

Grammar (UTF-8 text):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' INTEGER)?
    base   := INTEGER ('/' INTEGER)? | IDENT | '(' expr ')'

Identifiers are ``[A-Za-z][A-Za-z0-9]*`` and integers ``[0-9]+``; ``a/b``
is a rational literal (``/`` is legal nowhere else); implicit
multiplication is not allowed.  Canonical printing lists terms in
descending graded-lexicographic order with explicit ``*`` and ``^``, so
print-then-parse is the identity.

One compiled regular expression reads the tokens, one at a time with one
token of lookahead, after a second has rejected any character outside the
grammar; each error carries the position of the token that raised it.  A
term first tries ``_MONOMIAL``: one match reads a whole literal monomial
(sign, integer or ``a/b`` coefficient, ``V`` or ``V^e`` factors joined by
``*``) and the token after it; in a sum the sign it reads is the binary
operator.  When the match fails or the reader declines the term (an
unknown variable, a bad denominator, a degree past the budget), the
recursive descent reads the term from the same position and raises what
it always raised, so both accept the same inputs.  A canonical sum of
monomials is read one match per term, without the descent.

Either way a product of literal factors stays one coefficient and one
packed exponent key (see ``poly``): ``V^e`` adds ``e`` times V's unit key,
so no exponent tuple is ever built.  Coefficients combine in the field as
they go (over F_p a constant power is one modular ``pow``); the terms of a
sum go straight into one coefficient dict.  A ``Poly`` product is built
only for a parenthesized sum with two or more terms, or a power of one,
which is ``poly.square_and_multiply`` with the budgeted multiply; the
``power_ladder`` would form (Z+X+1)^64 over Q from products of at
most 2,080 by 3 terms, inside the work budget that refuses it here.

One routine renders terms: ``poly_str`` prints a polynomial, and
``coefficient_strs`` the coefficients of one variable's powers (an
element's y-coefficients) straight off its packed keys.

Input budget, checked before anything is expanded, each refusal a
``PolyParseError`` that names the input budget:

- a product or power whose total degree would exceed ``MAX_DEGREE``
  (a monomial whose coefficient is 0 in the field has no degree);
- over Q, a power or a product of constants whose value would need more
  than ``MAX_CONSTANT_BITS`` bits in its numerator or denominator (bit
  lengths add under multiplication, so a product is checked before it is
  formed; the degree bound caps every other exponent), and a coefficient
  that two or more terms of a sum add up to, checked at the operator
  before the term that takes it past;
- in every field, an integer literal with more digits than
  2^(``MAX_CONSTANT_BITS`` + 1), the widest constant a product may form,
  so a literal is never converted past the interpreter's 4,300-digit
  limit for int-string conversion, and every coefficient read prints as a
  literal the parser accepts (``number_str`` prints a computed value past
  that limit too);
- a polynomial product, or a multiply or squaring step of a power, that
  would form more than ``MAX_TERM_PRODUCTS`` products of terms, or, over
  Q, whose operands' widest coefficients together pass
  ``MAX_CONSTANT_BITS`` bits;
- parentheses nested more than ``MAX_NESTING`` levels deep, refused at the
  ``(`` past the budget, so the descent stays far from the interpreter's
  recursion limit (a chain of unary minus signs is read in a loop).

All of them sit far above desk scale: over two benchmark rounds at seeds
7 and 11, no parsed polynomial passes total degree 49 or 30-bit
coefficients, and no product forms more than 3,010 term products.  The
work budget refuses ``(Z+X+1)^64`` at its last squaring (561 by 561
terms) instead of expanding it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from .errors import PolyParseError
from .fields import FieldKind, FieldSpec, Scalar, number_str, q_norm
from .poly import SLOT, SLOT_MASK, Poly, square_and_multiply, unit_key

MAX_DEGREE = 256
MAX_CONSTANT_BITS = 2**13
MAX_TERM_PRODUCTS = 2**18
MAX_NESTING = 64

# the digits of 2^(MAX_CONSTANT_BITS + 1): any constant a product may form
# prints within them, and no literal may have more
_LITERAL_DIGITS = int((MAX_CONSTANT_BITS + 1) * math.log10(2)) + 1

_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z][A-Za-z0-9]*|[-+*^()/]|\Z)")
_BAD = re.compile(r"[^\sA-Za-z0-9*^()/+-]")

# A literal monomial: a sign, an integer or a/b coefficient, then V or V^e
# factors joined by '*'; then the token after it, which must end the
# monomial.  In a sum the sign is the binary operator before the term;
# elsewhere only a unary '-' is allowed.  A literal shorter than
# _LITERAL_DIGITS is below 2^MAX_CONSTANT_BITS, so no product with it passes
# the bit budget; a longer one is left to the descent, which checks it.
_INT = rf"([0-9]{{1,{_LITERAL_DIGITS - 1}}})"
_POWER = rf"[A-Za-z][A-Za-z0-9]*(?:\^[0-9]{{1,{_LITERAL_DIGITS - 1}}})?"
_FACTORS = rf"{_POWER}(?:\*{_POWER})*"
_MONOMIAL = re.compile(
    rf"([-+]?)\s*(?:{_INT}(?:/{_INT})?(?:\*({_FACTORS}))?|({_FACTORS}))\s*([-+*)]|\Z)")


class _Parser:
    """Recursive descent with one token of lookahead: ``tok`` is the current
    token ("" at the end of input), ``at`` its position, ``end`` the
    position after it.  A factor or term is either a monomial
    ``(coefficient, packed key)`` with a canonical raw coefficient (0 for
    the zero monomial) or, once a sum has been multiplied or raised to a
    power, a ``Poly``.  A term first tries ``_MONOMIAL`` at its position;
    ``factor`` reads what that leaves, from the same position."""

    def __init__(self, text: str, field: FieldSpec, vars: Tuple[str, ...]):
        bad = _BAD.search(text)
        if bad:
            raise PolyParseError(f"unexpected character {bad.group()!r}", bad.start())
        self.text = text
        self.field = field
        self.vars = vars
        self.unit = {v: unit_key(len(vars), i) for i, v in enumerate(vars)}
        self.degree_shift = SLOT * len(vars)
        self.p = field.modulus if field.kind is FieldKind.PRIME else 0
        self.depth = 0          # open parentheses around the current token
        self.end = 0
        self.advance()

    def advance(self) -> None:
        m = _TOKEN.match(self.text, self.end)
        self.tok = m[1]
        self.at, self.end = m.span(1)

    def literal(self) -> int:
        """The current token, an integer literal, as an int."""
        if len(self.tok) > _LITERAL_DIGITS:
            raise PolyParseError(f"a literal of {len(self.tok)} digits exceeds the input "
                                 f"budget of {_LITERAL_DIGITS} digits", self.at)
        return int(self.tok)

    def check_degree(self, degree: int, at: int) -> None:
        if degree > MAX_DEGREE:
            raise PolyParseError(f"total degree {degree} exceeds the input budget of "
                                 f"{MAX_DEGREE}", at)

    def check_bits(self, bits: int, at: int, what: str = "constant product") -> None:
        if bits > MAX_CONSTANT_BITS:
            raise PolyParseError(f"a {what} of about {bits} bits exceeds the "
                                 f"input budget of {MAX_CONSTANT_BITS}", at)

    def multiply(self, a: Poly, b: Poly, at: int) -> Poly:
        """a * b, refused before it is formed past the work budget or, over
        Q, when the operands' widest coefficients together pass the bit
        budget, and after, when a coefficient summed from several products
        passes it."""
        if len(a) * len(b) > MAX_TERM_PRODUCTS:
            raise PolyParseError(f"a product of {len(a)} by {len(b)} terms "
                                 f"exceeds the input budget of {MAX_TERM_PRODUCTS} term "
                                 f"products", at)
        if self.p:
            return a * b
        self.check_bits(_widest(a) + _widest(b), at)
        c = a * b
        self.check_bits(_widest(c), at, "coefficient sum")
        return c

    def add(self, a, b, at: int):
        """a + b, two terms of a sum; over Q refused past the constant
        budget at ``at``, the operator before b, so that every coefficient
        read prints as a literal the parser accepts."""
        c = a + b
        if not self.p:
            self.check_bits(_log2(max(abs(c.numerator), c.denominator)), at,
                            "coefficient sum")
        return c

    def parse(self) -> Poly:
        x = self.expr()
        if self.tok:
            raise PolyParseError(f"unexpected {self.tok!r}", self.at)
        return self._poly(x)

    def _poly(self, x) -> Poly:
        if type(x) is Poly:
            return x
        c, key = x
        return Poly._raw(self.field, self.vars, {key: c} if c else {})

    def expr(self):
        x = self.term()
        tok = self.tok
        if tok != "+" and tok != "-":
            return x
        # one running dict for the whole sum, normalized once at the end
        sums: dict = {}
        sign = 1
        while True:
            if type(x) is Poly:
                for key, c in x.packed.items():
                    sums[key] = self.add(sums[key], sign * c, at) if key in sums else sign * c
            elif x[0]:
                c, key = x
                # no 0 + c or 1 * c: over Q both dispatch through Fraction
                c = c if sign > 0 else -c
                sums[key] = self.add(sums[key], c, at) if key in sums else c
            if tok != "+" and tok != "-":
                return Poly._from_sums(self.field, self.vars, sums)
            at = self.at
            m = _MONOMIAL.match(self.text, self.at)     # its sign is tok
            x = self.monomial(m) if m else None
            if x is None:
                sign = 1 if tok == "+" else -1
                self.advance()
                x = self.term()
            else:
                sign = 1            # the monomial carries the operator's sign
                if self.tok == "*":
                    x = self.product(x)
            tok = self.tok

    def term(self):
        m = _MONOMIAL.match(self.text, self.at)
        x = self.monomial(m) if m and m[1] != "+" else None      # no unary '+'
        return self.product(self.factor() if x is None else x)

    def monomial(self, m):
        """The literal monomial matched by ``m``, read past, or None when the
        descent must read it: an unknown variable, a zero or non-invertible
        denominator, or a degree past the budget.  The descent then raises
        the error it always raised, at the same position; a monomial
        accepted here is one it accepts."""
        sign, num, den, scaled, bare, tok = m.groups()
        p = self.p
        c = int(num) if num else 1
        if den:
            den = int(den)
            if not (den % p if p else den):
                return None
            c = c * pow(den, -1, p) if p else q_norm(Fraction(c, den))
        if sign == "-":
            c = -c
        if p:
            c %= p
        key = 0
        factors = scaled or bare
        if factors:
            unit = self.unit
            for f in factors.split("*"):
                v, _, e = f.partition("^")
                u = unit.get(v)
                if u is None:
                    return None
                key += int(e) * u if e else u
            # an exponent too wide for its field carries into higher fields,
            # which only raises the degree read here
            if key >> self.degree_shift > MAX_DEGREE:
                return None
        self.tok = tok
        self.at, self.end = m.span(6)
        return (c, key)

    def product(self, x):
        """x times the factors that follow while the next token is '*'."""
        while self.tok == "*":
            at = self.at
            self.advance()
            y = self.factor()
            if type(x) is tuple and type(y) is tuple:
                if x[0] and y[0]:
                    key = x[1] + y[1]
                    self.check_degree(key >> self.degree_shift, at)
                    a, b = x[0], y[0]
                    if self.p:
                        x = (a * b % self.p, key)
                        continue
                    self.check_bits(max(_log2(a.numerator) + _log2(b.numerator),
                                        _log2(a.denominator) + _log2(b.denominator)), at)
                    x = (q_norm(a * b), key)
                elif not y[0]:
                    x = y
                continue
            x, y = self._poly(x), self._poly(y)
            if x.is_zero or y.is_zero:
                x = Poly.zero(self.field, self.vars)
                continue
            self.check_degree(x.total_degree() + y.total_degree(), at)
            x = self.multiply(x, y, at)
        return x

    def factor(self):
        negate = False
        while self.tok == "-":      # '-' factor, read in a loop: no recursion
            negate = not negate
            self.advance()
        x = self.base()
        if self.tok == "^":
            self.advance()
            at = self.at
            if not self.tok.isdigit():
                raise PolyParseError("exponent must be an integer literal", at)
            e = self.literal()
            self.advance()
            if e >= 2**31:
                raise PolyParseError("exponent beyond 2**31", at)
            x = self._power(x, e, at)
        if not negate:
            return x
        if type(x) is Poly:
            return -x
        return ((-x[0]) % self.p if self.p else -x[0], x[1])

    def _power(self, x, e: int, at: int):
        if e == 0:
            return (1, 0)
        if type(x) is Poly:
            if x.is_zero:
                return x
            if len(x) == 1:
                (key, c), = x.packed.items()
                x = (c, key)
            else:
                self.check_degree(x.total_degree() * e, at)
                return square_and_multiply(x, e, lambda a, b: self.multiply(a, b, at))
        c, key = x
        if not c:
            return x
        self.check_degree((key >> self.degree_shift) * e, at)
        if self.p:
            return (pow(c, e, self.p), key * e)
        bits = e * math.log2(max(abs(c.numerator), c.denominator))
        if bits > MAX_CONSTANT_BITS:
            raise PolyParseError(f"a constant power of about {bits:.0f} bits exceeds "
                                 f"the input budget of {MAX_CONSTANT_BITS}", at)
        return (q_norm(c ** e), key * e)

    def base(self):
        tok, at = self.tok, self.at
        if tok.isdigit():
            num = self.literal()
            self.advance()
            if self.tok != "/":
                return (num % self.p if self.p else num, 0)
            self.advance()
            at = self.at
            if not self.tok.isdigit():
                raise PolyParseError("denominator must be an integer literal", at)
            den = self.literal()
            self.advance()
            if den == 0:
                raise PolyParseError("zero denominator", at)
            if self.p:
                if den % self.p == 0:
                    raise PolyParseError(
                        f"denominator {den} is not invertible in {self.field.tag()}", at)
                return (num * pow(den, -1, self.p) % self.p, 0)
            return (q_norm(Fraction(num, den)), 0)
        self.advance()
        if tok[:1].isalpha():
            unit = self.unit.get(tok)
            if unit is None:
                raise PolyParseError(f"unknown variable {tok!r}", at)
            return (1, unit)
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than the input budget "
                                     f"of {MAX_NESTING} levels", at)
            self.depth += 1
            x = self.expr()
            if self.tok != ")":
                raise PolyParseError("expected ')'", self.at)
            self.depth -= 1
            self.advance()
            return x
        raise PolyParseError(f"unexpected {tok!r}" if tok else "unexpected end of input", at)


def _log2(n: int) -> int:
    """floor(log2 |n|) for n != 0: a product of two integers has at least the
    sum of their floors, so a sum past the budget refuses no more than the
    rule for powers would."""
    return n.bit_length() - 1


def _widest(p: Poly) -> int:
    """floor(log2) of the widest numerator or denominator among p's Q
    coefficients."""
    return max(_log2(max(abs(c.numerator), c.denominator)) for c in p.packed.values())


def parse_poly(text: str, field: FieldSpec, vars: Iterable[str]) -> Poly:
    """Parse an expression into a polynomial over ``field`` and ``vars``."""
    return _Parser(text, field, tuple(vars)).parse()


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse a constant expression (no variables allowed)."""
    return parse_poly(text, field, ()).constant_value()


def scalar_str(s: Scalar) -> str:
    return number_str(s.value)


def poly_str(p: Poly) -> str:
    """Canonical rendering; parse(poly_str(p)) == p."""
    if p.is_zero:
        return "0"
    n = len(p.vars)
    return _terms_str(p, sorted(p.packed, reverse=True),   # integer order is grlex order
                      [(v, SLOT * (n - 1 - i)) for i, v in enumerate(p.vars)])


def coefficient_strs(p: Poly, var: str) -> Dict[int, str]:
    """{k: poly_str of the coefficient of var^k} over p's other variables,
    in increasing k, printed straight off p's packed keys.  One sort serves
    every k: keys that share var's exponent differ from the coefficient's
    keys by the same amount, so they keep its grlex order."""
    n = len(p.vars)
    fields = [(v, SLOT * (n - 1 - i)) for i, v in enumerate(p.vars)]
    off = fields.pop(p.vars.index(var))[1]
    groups: Dict[int, list] = {}
    for key in sorted(p.packed, reverse=True):
        groups.setdefault((key >> off) & SLOT_MASK, []).append(key)
    return {k: _terms_str(p, groups[k], fields) for k in sorted(groups)}


def _terms_str(p: Poly, keys, fields) -> str:
    """The terms of p at ``keys``, in that order, with the exponents read
    from ``fields``, (name, bit offset) pairs."""
    rational = p.field.kind is FieldKind.RATIONALS
    packed = p.packed
    pieces = []
    for key in keys:
        c = packed[key]
        negative = rational and c < 0
        mag = -c if negative else c
        factors = []
        for v, off in fields:
            e = (key >> off) & SLOT_MASK
            if e:
                factors.append(v if e == 1 else f"{v}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = number_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{number_str(mag)}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
