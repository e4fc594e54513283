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

One compiled regular expression splits the text into tokens, after a
second has rejected any character outside the grammar.  While a
term is a product of integer, rational and variable factors (each with an
optional ``^k``), the parser keeps it as one coefficient and one exponent
list, combining coefficients in the field as it goes (over F_p a constant
power is one modular ``pow``); the terms of a sum go straight into one
coefficient dict.  A ``Poly`` product is built only for a parenthesized
sum with two or more terms, or a power of one, so a canonical sum of
monomials is read without any polynomial multiplication.

Input budget, checked before anything is expanded, each refusal a
``PolyParseError`` that names the input budget:

- a product or power whose total degree would exceed ``MAX_DEGREE``
  (a monomial whose coefficient is 0 in the field has no degree);
- over Q, a power of a constant whose value would need more than
  ``MAX_CONSTANT_BITS`` bits (the degree bound caps every other exponent);
- a polynomial product, or a multiply or squaring step of a power, that
  would form more than ``MAX_TERM_PRODUCTS`` products of terms.

All three sit far above desk scale: over two benchmark rounds at seeds
7 and 11, no parsed polynomial passes total degree 49 or 30-bit
coefficients, and no product forms more than 3,010 term products.  The
work budget refuses ``(Z+X+1)^64`` at its last squaring (561 by 561
terms) instead of expanding it.  An error's position is recovered from
the token index only when the error is raised.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import PolyParseError
from .fields import FieldKind, FieldSpec, Scalar, q_norm
from .poly import Poly

MAX_DEGREE = 256
MAX_CONSTANT_BITS = 2**16
MAX_TERM_PRODUCTS = 2**18

_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z][A-Za-z0-9]*|[-+*^()/])")
_BAD = re.compile(r"[^\sA-Za-z0-9*^()/+-]")


def _tokenize(text: str) -> list:
    """The token strings, ending with "" for the end of input."""
    bad = _BAD.search(text)
    if bad:
        raise PolyParseError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the token list.  A factor or term is either a
    monomial ``(coefficient, exponent list)`` with a canonical raw
    coefficient (0 for the zero monomial) or, once a sum has been
    multiplied or raised to a power, a ``Poly``.  Token positions are found
    only when an error needs one."""

    def __init__(self, text: str, field: FieldSpec, vars: Tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.vars = vars
        self.index = {v: i for i, v in enumerate(vars)}
        self.p = field.modulus if field.kind is FieldKind.PRIME else 0

    def at(self, k: int) -> int:
        """Character position of token k."""
        for j, m in enumerate(_TOKEN.finditer(self.text)):
            if j == k:
                return m.start(1)
        return len(self.text)

    def check_degree(self, degree: int, at: int) -> None:
        if degree > MAX_DEGREE:
            raise PolyParseError(f"total degree {degree} exceeds the input budget of "
                                 f"{MAX_DEGREE}", self.at(at))

    def check_work(self, a: Poly, b: Poly, at: int) -> None:
        if len(a.terms) * len(b.terms) > MAX_TERM_PRODUCTS:
            raise PolyParseError(f"a product of {len(a.terms)} by {len(b.terms)} terms "
                                 f"exceeds the input budget of {MAX_TERM_PRODUCTS} term "
                                 f"products", self.at(at))

    def parse(self) -> Poly:
        x = self.expr()
        tok = self.tokens[self.pos]
        if tok:
            raise PolyParseError(f"unexpected {tok!r}", self.at(self.pos))
        return self._poly(x)

    def _poly(self, x) -> Poly:
        if type(x) is Poly:
            return x
        c, exps = x
        return Poly._raw(self.field, self.vars, {tuple(exps): c} if c else {})

    def expr(self):
        x = self.term()
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok != "+" and tok != "-":
            return x
        # one running dict for the whole sum, normalized once at the end
        sums: dict = {}
        sign = 1
        while True:
            if type(x) is Poly:
                for exps, c in x.terms.items():
                    sums[exps] = sums.get(exps, 0) + sign * c
            elif x[0]:
                exps = tuple(x[1])
                sums[exps] = sums.get(exps, 0) + sign * x[0]
            if tok != "+" and tok != "-":
                return Poly._from_sums(self.field, self.vars, sums)
            sign = 1 if tok == "+" else -1
            self.pos += 1
            x = self.term()
            tok = tokens[self.pos]

    def term(self):
        x = self.factor()
        tokens = self.tokens
        while tokens[self.pos] == "*":
            at = self.pos
            self.pos += 1
            y = self.factor()
            if type(x) is tuple and type(y) is tuple:
                if x[0] and y[0]:
                    exps = list(map(operator.add, x[1], y[1]))
                    self.check_degree(sum(exps), at)
                    c = x[0] * y[0]
                    x = (c % self.p if self.p else q_norm(c), exps)
                elif not y[0]:
                    x = y
                continue
            x, y = self._poly(x), self._poly(y)
            if x.is_zero or y.is_zero:
                x = Poly.zero(self.field, self.vars)
                continue
            self.check_degree(x.total_degree() + y.total_degree(), at)
            self.check_work(x, y, at)
            x = x * y
        return x

    def factor(self):
        tokens = self.tokens
        if tokens[self.pos] == "-":
            self.pos += 1
            x = self.factor()
            if type(x) is Poly:
                return -x
            return ((-x[0]) % self.p if self.p else -x[0], x[1])
        x = self.base()
        if tokens[self.pos] != "^":
            return x
        self.pos += 1
        at = self.pos
        tok = tokens[at]
        if not tok.isdigit():
            raise PolyParseError("exponent must be an integer literal", self.at(at))
        self.pos += 1
        e = int(tok)
        if e >= 2**31:
            raise PolyParseError("exponent beyond 2**31", self.at(at))
        return self._power(x, e, at)

    def _power(self, x, e: int, at: int):
        if e == 0:
            return (1, [0] * len(self.vars))
        if type(x) is Poly:
            if x.is_zero:
                return x
            if len(x.terms) == 1:
                (exps, c), = x.terms.items()
                x = (c, list(exps))
            else:
                self.check_degree(x.total_degree() * e, at)
                result = None
                while True:  # binary powering, each step within the work budget
                    if e & 1:
                        if result is None:
                            result = x
                        else:
                            self.check_work(result, x, at)
                            result = result * x
                    e >>= 1
                    if not e:
                        return result
                    self.check_work(x, x, at)
                    x = x * x
        c, exps = x
        if not c:
            return x
        self.check_degree(sum(exps) * e, at)
        if self.p:
            return (pow(c, e, self.p), [k * e for k in exps])
        if not any(exps):
            bits = e * math.log2(max(abs(c.numerator), c.denominator))
            if bits > MAX_CONSTANT_BITS:
                raise PolyParseError(f"a constant power of about {bits:.0f} bits exceeds "
                                     f"the input budget of {MAX_CONSTANT_BITS}", self.at(at))
        return (q_norm(c ** e), [k * e for k in exps])

    def base(self):
        tokens = self.tokens
        k = self.pos
        tok = tokens[k]
        self.pos += 1
        n = len(self.vars)
        if tok.isdigit():
            num = int(tok)
            if tokens[self.pos] != "/":
                return (num % self.p if self.p else num, [0] * n)
            k = self.pos + 1
            tok = tokens[k]
            if not tok.isdigit():
                raise PolyParseError("denominator must be an integer literal", self.at(k))
            self.pos += 2
            den = int(tok)
            if den == 0:
                raise PolyParseError("zero denominator", self.at(k))
            if self.p:
                if den % self.p == 0:
                    raise PolyParseError(
                        f"denominator {den} is not invertible in {self.field.tag()}", self.at(k))
                return (num * pow(den, -1, self.p) % self.p, [0] * n)
            return (q_norm(Fraction(num, den)), [0] * n)
        if tok[:1].isalpha():
            i = self.index.get(tok)
            if i is None:
                raise PolyParseError(f"unknown variable {tok!r}", self.at(k))
            exps = [0] * n
            exps[i] = 1
            return (1, exps)
        if tok == "(":
            x = self.expr()
            if tokens[self.pos] != ")":
                raise PolyParseError("expected ')'", self.at(self.pos))
            self.pos += 1
            return x
        raise PolyParseError(f"unexpected {tok!r}" if tok else "unexpected end of input",
                             self.at(k))


def parse_poly(text: str, field: FieldSpec, vars: Iterable[str]) -> Poly:
    """Parse an expression into a polynomial over ``field`` and ``vars``."""
    return _Parser(text, field, tuple(vars)).parse()


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse a constant expression (no variables allowed)."""
    return parse_poly(text, field, ()).constant_value()


def scalar_str(s: Scalar) -> str:
    return str(s.value)


def _monomial_str(vars: Tuple[str, ...], exps: Tuple[int, ...]) -> str:
    parts = []
    for v, e in zip(vars, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def poly_str(p: Poly) -> str:
    """Canonical rendering; parse(poly_str(p)) == p."""
    if p.is_zero:
        return "0"
    rational = p.field.kind is FieldKind.RATIONALS
    pieces = []
    for exps, c in p.sorted_terms():
        negative = rational and c < 0
        mag = -c if negative else c
        mono = _monomial_str(p.vars, exps)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
