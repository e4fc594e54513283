"""Polynomial expression grammar and the canonical printer.

Grammar (UTF-8 text):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' INTEGER)?
    base   := INTEGER ('/' INTEGER)? | IDENT | '(' expr ')'

Identifiers are ``[A-Za-z][A-Za-z0-9]*``; ``a/b`` is a rational literal
(``/`` is legal nowhere else); implicit multiplication is not allowed.
Canonical printing lists terms in descending graded-lexicographic order
with explicit ``*`` and ``^``, so print-then-parse is the identity.

Input budget: a product or power whose total degree would exceed
``MAX_DEGREE`` is refused with a ``PolyParseError`` before it is expanded,
and so is a power of a rational constant whose value would need more than
``MAX_CONSTANT_BITS`` bits (the degree bound caps every other exponent).
Both bounds sit far above desk scale: over two benchmark rounds at seeds
7 and 11, no parsed polynomial passes total degree 49 or 30-bit
coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import PolyParseError
from .fields import FieldKind, FieldSpec, Scalar
from .poly import Poly

_OPS = set("+-*^()/")

MAX_DEGREE = 256
MAX_CONSTANT_BITS = 2**16


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _check_degree(degree: int, at: int) -> None:
    if degree > MAX_DEGREE:
        raise PolyParseError(
            f"total degree {degree} exceeds the input budget of {MAX_DEGREE}", at)


def _check_power(p: Poly, e: int, at: int) -> None:
    if not e or p.is_zero:
        return
    _check_degree(p.total_degree() * e, at)
    if p.is_constant and p.field.kind is FieldKind.RATIONALS:
        c = p.constant_value().value
        bits = e * math.log2(max(abs(c.numerator), c.denominator))
        if bits > MAX_CONSTANT_BITS:
            raise PolyParseError(f"a constant power of about {bits:.0f} bits exceeds "
                                 f"the input budget of {MAX_CONSTANT_BITS}", at)


class _Parser:
    def __init__(self, text: str, field: FieldSpec, vars: Tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.vars = vars

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", at)
        return self.advance()

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {val!r}", at)
        return p

    def expr(self) -> Poly:
        p = self.term()
        kind, val, _ = self.peek()
        if not (kind == "op" and val in "+-"):
            return p
        # one running dict for the whole sum, normalized once at the end
        sums = dict(p.terms)
        while kind == "op" and val in "+-":
            self.advance()
            sign = 1 if val == "+" else -1
            for exps, c in self.term().terms.items():
                sums[exps] = sums.get(exps, 0) + sign * c
            kind, val, _ = self.peek()
        return Poly._from_sums(self.field, self.vars, sums)

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                q = self.factor()
                if not (p.is_zero or q.is_zero):
                    _check_degree(p.total_degree() + q.total_degree(), at)
                p = p * q
            else:
                return p

    def factor(self) -> Poly:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.factor()
        p = self.base()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, at = self.peek()
            if kind != "int":
                raise PolyParseError("exponent must be an integer literal", at)
            self.advance()
            e = int(val)
            if e >= 2**31:
                raise PolyParseError("exponent beyond 2**31", at)
            _check_power(p, e, at)
            p = p ** e
        return p

    def base(self) -> Poly:
        kind, val, at = self.advance()
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.advance()
                k3, v3, at3 = self.peek()
                if k3 != "int":
                    raise PolyParseError("denominator must be an integer literal", at3)
                self.advance()
                den = int(v3)
                if den == 0:
                    raise PolyParseError("zero denominator", at3)
                if self.field.kind is FieldKind.PRIME and den % self.field.modulus == 0:
                    raise PolyParseError(
                        f"denominator {den} is not invertible in {self.field.tag()}", at3
                    )
                return Poly.const(self.field, self.vars, Fraction(num, den))
            return Poly.const(self.field, self.vars, num)
        if kind == "ident":
            if val not in self.vars:
                raise PolyParseError(f"unknown variable {val!r}", at)
            return Poly.variable(self.field, self.vars, val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError(f"unexpected {val!r}" if val else "unexpected end of input", at)


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
