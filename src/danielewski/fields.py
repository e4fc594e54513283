"""Exact coefficient fields: the rationals Q and prime fields F_p.

Raw coefficient values over F_p are plain ``int`` residues in ``[0, p)``.
Over Q a raw value is a plain ``int`` when it is integral and a
``Fraction`` (denominator > 1) otherwise; ``q_norm`` applies that rule,
and every ``FieldSpec`` operation returns a value that obeys it.  Most
coefficients in practice are integers, and ``int`` arithmetic skips the gcd
and the object that every ``Fraction`` operation pays for.  The choice of
type is invisible: ``Fraction(3) == 3``, both hash alike and print as
``3``.  ``FieldSpec`` supplies arithmetic on raw values; ``Scalar`` pairs
one raw value with its field for the public API.  Keeping raw values
unboxed keeps the polynomial inner loops cheap.

All arithmetic is exact.  Division by zero raises ``ZeroDivisionError``,
never wraps silently.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError

RawValue = Union[Fraction, int]

_PRIME_TAG = re.compile(r"F[1-9][0-9]{0,9}")


def q_norm(x: RawValue) -> RawValue:
    """The canonical raw Q value of an int or Fraction: an integral value
    as an ``int``, anything else unchanged."""
    return x.numerator if x.denominator == 1 else x


def q_inv(a: RawValue) -> RawValue:
    """1/a for a nonzero raw Q value, canonical as under ``q_norm``; a unit
    +-1, the leading coefficient of a monic divisor, comes back as it is."""
    if a == 1 or a == -1:
        return a
    return q_norm(Fraction(a.denominator, a.numerator))


def number_str(x: RawValue) -> str:
    """str(x) for an int or Fraction, also past the interpreter's limit on
    int-to-string conversion (4,300 digits by default), which ``decimal``
    is not bound by: ``Decimal(n)`` holds an int exactly."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal
        if type(x) is int:
            return str(Decimal(x))
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


class FieldKind(enum.Enum):
    RATIONALS = "Q"
    PRIME = "F"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals, or F_p for a prime p below 2**31."""

    kind: FieldKind
    modulus: int = 0

    def __post_init__(self):
        if self.kind is FieldKind.PRIME:
            p = self.modulus
            if not isinstance(p, int) or not 2 <= p < 2**31 or not is_prime(p):
                raise ValueError(f"modulus must be a prime below 2**31, got {p!r}")
        else:
            if self.modulus != 0:
                raise ValueError("the rationals take no modulus")

    def tag(self) -> str:
        """File/CLI tag: "Q" or "F<p>"."""
        return "Q" if self.kind is FieldKind.RATIONALS else f"F{self.modulus}"

    # -- raw-value arithmetic ------------------------------------------------

    def coerce(self, x) -> RawValue:
        """Coerce an int, Fraction, or Scalar to a canonical raw value."""
        if isinstance(x, Scalar):
            if x.field != self:
                raise FieldMismatchError(f"{x.field.tag()} value in {self.tag()} context")
            return x.value
        if self.kind is FieldKind.PRIME:
            if isinstance(x, Fraction):
                if x.denominator % self.modulus == 0:
                    raise ZeroDivisionError(
                        f"denominator {x.denominator} is not invertible mod {self.modulus}"
                    )
                return (x.numerator * pow(x.denominator, -1, self.modulus)) % self.modulus
            return x % self.modulus
        if isinstance(x, int):
            return int(x)  # a bool or other int subclass becomes a plain int
        # Fraction(x) is exact for a float or a decimal string; int(x) would truncate
        return q_norm(x if isinstance(x, Fraction) else Fraction(x))

    def zero(self) -> RawValue:
        return 0

    def one(self) -> RawValue:
        return 1

    def add(self, a: RawValue, b: RawValue) -> RawValue:
        return (a + b) % self.modulus if self.kind is FieldKind.PRIME else q_norm(a + b)

    def sub(self, a: RawValue, b: RawValue) -> RawValue:
        return (a - b) % self.modulus if self.kind is FieldKind.PRIME else q_norm(a - b)

    def mul(self, a: RawValue, b: RawValue) -> RawValue:
        return (a * b) % self.modulus if self.kind is FieldKind.PRIME else q_norm(a * b)

    def neg(self, a: RawValue) -> RawValue:
        return (-a) % self.modulus if self.kind is FieldKind.PRIME else -a

    def inv(self, a: RawValue) -> RawValue:
        if self.kind is FieldKind.PRIME:
            if a % self.modulus == 0:
                raise ZeroDivisionError(f"0 is not invertible in {self.tag()}")
            return pow(a, -1, self.modulus)
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in Q")
        return q_inv(a)

    def div(self, a: RawValue, b: RawValue) -> RawValue:
        return self.mul(a, self.inv(b))

    def pow(self, a: RawValue, e: int) -> RawValue:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.kind is FieldKind.PRIME:
            return pow(a, e, self.modulus)
        return q_norm(a ** e)


QQ = FieldSpec(FieldKind.RATIONALS)


@lru_cache(maxsize=64)
def GF(p: int) -> FieldSpec:
    """F_p; one shared instance per p, so operands over one field usually
    compare by identity."""
    return FieldSpec(FieldKind.PRIME, p)


def parse_field_tag(tag: str) -> FieldSpec:
    """Inverse of FieldSpec.tag(): "Q" -> rationals, "F7" -> F_7.  An F tag
    is "F" and ASCII digits without a leading zero, at most ten of them (a
    modulus below 2**31 has no more); GF checks that the number is a prime
    below 2**31."""
    if tag == "Q":
        return QQ
    if isinstance(tag, str) and _PRIME_TAG.fullmatch(tag):
        return GF(int(tag[1:]))
    raise ValueError(f"unknown field tag {tag!r} (expected \"Q\" or \"F<p>\")")


class Scalar:
    """One exact field element: an int or a reduced non-integral Fraction
    over Q, a residue in [0, p) over F_p.  Equality is structural;
    canonical form is unique.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", field.coerce(value))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _coerce_other(self, other) -> RawValue:
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine {self.field.tag()} with {other.field.tag()}"
                )
            return other.value
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce_other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce_other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerce_other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(v, self.value))

    def __mul__(self, other):
        v = self._coerce_other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce_other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.div(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce_other(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.div(v, self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __pow__(self, e: int):
        return Scalar(self.field, self.field.pow(self.value, e))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def sort_key(self):
        """Total order used for deterministic report/certificate ordering."""
        if self.field.kind is FieldKind.PRIME:
            return (self.value,)
        return (self.value.numerator, self.value.denominator)

    def __str__(self):
        return number_str(self.value)

    def __repr__(self):
        return f"Scalar({self.field.tag()}, {number_str(self.value)})"
