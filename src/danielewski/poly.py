"""Sparse multivariate polynomials over an exact coefficient field.

A ``Poly`` stores an ordered variable tuple ``vars`` and a ``terms`` dict
mapping exponent tuples (aligned with ``vars``) to nonzero raw coefficients
(``Fraction`` over Q, ``int`` residues over F_p).  The zero polynomial has
an empty term map; no zero coefficient is ever stored, so structural
equality decides mathematical equality.

Arithmetic requires identical variable tuples; use ``with_vars`` to embed a
polynomial into a larger variable context.  Exponents are machine integers;
any exponent at or above 2**31 is a hard error.

Everything here is immutable and pure, safe for concurrent use.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import FieldMismatchError, UnknownVariableError
from .fields import FieldKind, FieldSpec, Scalar

NEG_INF = float("-inf")

MAX_EXPONENT = 2**31

ExpVec = Tuple[int, ...]


def grlex_key(exps: ExpVec):
    """Graded-lexicographic sort key: total degree first, then lexicographic
    with earlier variables more significant."""
    return (sum(exps), exps)


class Poly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: FieldSpec, vars: Iterable[str], terms: Mapping[ExpVec, object] = ()):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", tuple(vars))
        clean: Dict[ExpVec, object] = {}
        nvars = len(self.vars)
        for exps, c in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not match {self.vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e >= MAX_EXPONENT for e in exps):
                raise OverflowError(f"exponent beyond 2**31 in {exps}")
            raw = field.coerce(c)
            if raw != 0:
                clean[exps] = raw
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, field: FieldSpec, vars: Tuple[str, ...], terms: Dict[ExpVec, object]) -> "Poly":
        """Fast constructor for internally built, already-clean term maps."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def _from_sums(cls, field: FieldSpec, vars: Tuple[str, ...], sums: Dict[ExpVec, object]) -> "Poly":
        """Constructor for accumulated coefficient sums: reduced mod p over
        F_p, zero coefficients dropped."""
        if field.kind is FieldKind.PRIME:
            p = field.modulus
            out = {}
            for e, v in sums.items():
                v %= p
                if v:
                    out[e] = v
        else:
            out = {e: v for e, v in sums.items() if v}
        return cls._raw(field, vars, out)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec, vars: Iterable[str]) -> "Poly":
        return cls._raw(field, tuple(vars), {})

    @classmethod
    def const(cls, field: FieldSpec, vars: Iterable[str], value) -> "Poly":
        vars = tuple(vars)
        raw = field.coerce(value)
        if raw == 0:
            return cls._raw(field, vars, {})
        return cls._raw(field, vars, {(0,) * len(vars): raw})

    @classmethod
    def one(cls, field: FieldSpec, vars: Iterable[str]) -> "Poly":
        return cls.const(field, vars, 1)

    @classmethod
    def variable(cls, field: FieldSpec, vars: Iterable[str], name: str) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise UnknownVariableError(f"variable {name!r} not among {vars}")
        exps = tuple(1 if w == name else 0 for w in vars)
        return cls._raw(field, vars, {exps: field.one()})

    @classmethod
    def monomial(cls, field: FieldSpec, vars: Iterable[str], exps: ExpVec, coeff=1) -> "Poly":
        return cls(field, vars, {tuple(exps): coeff})

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial as a Scalar."""
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        raw = self.terms.get((0,) * len(self.vars), self.field.zero())
        return Scalar(self.field, raw)

    def degree_in(self, var: str):
        """Max exponent of ``var`` over terms; -inf for the zero polynomial."""
        i = self._var_index(var)
        if not self.terms:
            return NEG_INF
        return max(e[i] for e in self.terms)

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_univariate_in(self, var: str) -> bool:
        i = self._var_index(var)
        return all(all(e == 0 for j, e in enumerate(exps) if j != i) for exps in self.terms)

    def used_vars(self) -> Tuple[str, ...]:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for j, e in enumerate(exps):
                if e:
                    used[j] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def _var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise UnknownVariableError(f"variable {var!r} not among {self.vars}") from None

    def coefficient(self, exps: ExpVec) -> Scalar:
        return Scalar(self.field, self.terms.get(tuple(exps), self.field.zero()))

    def coeff_in(self, var: str, k: int) -> "Poly":
        """Coefficient of var**k, as a polynomial over the same variables
        (with that variable's exponent zeroed)."""
        i = self._var_index(var)
        out: Dict[ExpVec, object] = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                out[exps[:i] + (0,) + exps[i + 1:]] = c
        return Poly._raw(self.field, self.vars, out)

    def coefficients_in(self, var: str) -> Dict[int, "Poly"]:
        """Split into {k: coefficient of var**k} with var zeroed out."""
        i = self._var_index(var)
        buckets: Dict[int, Dict[ExpVec, object]] = {}
        for exps, c in self.terms.items():
            buckets.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
        return {k: Poly._raw(self.field, self.vars, t) for k, t in buckets.items()}

    def leading_term_grlex(self) -> Tuple[ExpVec, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def sort_key(self):
        """Deterministic total order on polynomials over one field."""
        key = []
        for exps, c in self.sorted_terms():
            if self.field.kind is FieldKind.PRIME:
                key.append((exps, c))
            else:
                key.append((exps, c.numerator, c.denominator))
        return tuple(key)

    # -- variable plumbing ------------------------------------------------------

    def with_vars(self, new_vars: Iterable[str]) -> "Poly":
        """Re-embed into a variable tuple that contains every used variable
        (any order, possibly larger or smaller)."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(new_vars)}
        mapping = []
        for j, v in enumerate(self.vars):
            mapping.append(pos.get(v, -1))
        n = len(new_vars)
        out: Dict[ExpVec, object] = {}
        for exps, c in self.terms.items():
            new = [0] * n
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                i = mapping[j]
                if i < 0:
                    raise UnknownVariableError(
                        f"variable {self.vars[j]!r} is used but absent from {new_vars}"
                    )
                new[i] = e
            out[tuple(new)] = c
        return Poly._raw(self.field, new_vars, out)

    # -- arithmetic ---------------------------------------------------------------

    def _check_compat(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot combine {self.field.tag()} with {other.field.tag()}"
            )
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.const(self.field, self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compat(other)
        out = dict(self.terms)
        if self.field.kind is FieldKind.PRIME:
            p = self.field.modulus
            for e, c in other.terms.items():
                v = (out.get(e, 0) + c) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        else:
            for e, c in other.terms.items():
                v = out.get(e)
                v = c if v is None else v + c
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return Poly._raw(self.field, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Poly._raw(self.field, self.vars, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.const(self.field, self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, c) -> "Poly":
        raw = self.field.coerce(c)
        if raw == 0:
            return Poly.zero(self.field, self.vars)
        if self.field.kind is FieldKind.PRIME:
            p = self.field.modulus
            return Poly._raw(self.field, self.vars,
                             {e: (v * raw) % p for e, v in self.terms.items()})
        return Poly._raw(self.field, self.vars,
                         {e: v * raw for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scaled(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compat(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly.zero(self.field, self.vars)
        if self.total_degree() + other.total_degree() >= MAX_EXPONENT:
            raise OverflowError("product exponent would exceed 2**31")
        if len(a) > len(b):
            a, b = b, a
        acc: Dict[ExpVec, object] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(operator.add, e1, e2))
                v = acc.get(e)
                acc[e] = c1 * c2 if v is None else v + c1 * c2
        return Poly._from_sums(self.field, self.vars, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if e and not self.is_zero and self.total_degree() * e >= MAX_EXPONENT:
            raise OverflowError("power exponent would exceed 2**31")
        result = Poly.one(self.field, self.vars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def mul_var_power(self, var: str, k: int) -> "Poly":
        """Multiply by var**k (exponent shift, no coefficient work)."""
        if k == 0:
            return self
        i = self._var_index(var)
        if not self.is_zero and self.degree_in(var) + k >= MAX_EXPONENT:
            raise OverflowError("shifted exponent would exceed 2**31")
        out = {}
        for exps, c in self.terms.items():
            out[exps[:i] + (exps[i] + k,) + exps[i + 1:]] = c
        return Poly._raw(self.field, self.vars, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.field == other.field and self.vars == other.vars
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        from .parsing import poly_str
        return poly_str(self)

    def __repr__(self):
        return f"Poly({self.field.tag()}, {self.vars}, {str(self)!r})"

    # -- calculus / evaluation ------------------------------------------------------

    def derivative(self, var: str) -> "Poly":
        i = self._var_index(var)
        field = self.field
        out: Dict[ExpVec, object] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            v = field.mul(c, field.coerce(e))
            if v != 0:
                out[exps[:i] + (e - 1,) + exps[i + 1:]] = v
        return Poly._raw(field, self.vars, out)

    def evaluate(self, assignment: Mapping[str, object]) -> Scalar:
        """Evaluate at scalars, one per variable."""
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise UnknownVariableError(f"no value given for {v!r}")
            vals.append(self.field.coerce(assignment[v]))
        field = self.field
        acc = field.zero()
        for exps, c in self.terms.items():
            t = c
            for val, e in zip(vals, exps):
                if e:
                    t = field.mul(t, field.pow(val, e))
            acc = field.add(acc, t)
        return Scalar(field, acc)


def canonical_var_union(*var_lists: Iterable[str]) -> Tuple[str, ...]:
    """Merge variable lists, keeping first-seen order."""
    seen = []
    for vs in var_lists:
        for v in vs:
            if v not in seen:
                seen.append(v)
    return tuple(seen)


def substitute(p: Poly, bindings: Mapping[str, Poly], vars_out: Optional[Iterable[str]] = None) -> Poly:
    """Simultaneous substitution of polynomials for variables.

    Every bound variable must occur in ``p.vars``; all polynomials must share
    one field.  The result lives over ``vars_out`` (default: p's variables
    followed by any new variables the bindings introduce, first-seen order).
    """
    for v, q in bindings.items():
        if v not in p.vars:
            raise UnknownVariableError(f"bound variable {v!r} not among {p.vars}")
        if q.field != p.field:
            raise FieldMismatchError(
                f"binding for {v!r} lives over {q.field.tag()}, expected {p.field.tag()}"
            )
    if vars_out is None:
        vars_out = canonical_var_union(p.vars, *(q.vars for q in bindings.values()))
    else:
        vars_out = tuple(vars_out)
    pos = {v: i for i, v in enumerate(vars_out)}
    embedded = {v: q.with_vars(vars_out) for v, q in bindings.items()}
    n = len(vars_out)
    field = p.field
    one = Poly.one(field, vars_out)
    pow_cache: Dict[str, Dict[int, Poly]] = {v: {0: one, 1: q} for v, q in embedded.items()}

    def power(v: str, e: int) -> Poly:
        cache = pow_cache[v]
        if e in cache:
            return cache[e]
        best = max(k for k in cache if k <= e)
        acc = cache[best]
        for k in range(best + 1, e + 1):
            acc = acc * cache[1]
            cache[k] = acc
        return acc

    acc: Dict[ExpVec, object] = {}
    for exps, c in p.terms.items():
        base = [0] * n
        image = None  # c times the product of the bound variables' images
        for j, e in enumerate(exps):
            if e == 0:
                continue
            v = p.vars[j]
            if v in embedded:
                f = power(v, e)
                image = f.scaled(c) if image is None else image * f
            else:
                i = pos.get(v)
                if i is None:
                    raise UnknownVariableError(f"variable {v!r} absent from output variables")
                base[i] = e
        if image is None:
            items = ((tuple(base), c),)
        elif any(base):
            if sum(base) + image.total_degree() >= MAX_EXPONENT:
                raise OverflowError("product exponent would exceed 2**31")
            items = ((tuple(map(operator.add, e, base)), v) for e, v in image.terms.items())
        else:
            items = image.terms.items()
        for key, v in items:
            prev = acc.get(key)
            acc[key] = v if prev is None else prev + v
    return Poly._from_sums(field, vars_out, acc)


def exact_div(a: Poly, b: Poly) -> Optional[Poly]:
    """Exact quotient a / b, or None when b does not divide a.

    Single-divisor multivariate division with graded-lex leading terms; for
    a = b*q the algorithm always recovers q, and any term that escapes to
    the remainder proves indivisibility.
    """
    a._check_compat(b)
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return Poly.zero(a.field, a.vars)
    field = a.field
    lead_e, lead_c = b.leading_term_grlex()
    inv_lead = field.inv(lead_c)
    rem = dict(a.terms)
    quo: Dict[ExpVec, object] = {}
    prime = field.kind is FieldKind.PRIME
    p = field.modulus
    while rem:
        e = max(rem, key=grlex_key)
        c = rem[e]
        diff = tuple(map(operator.sub, e, lead_e))
        if any(d < 0 for d in diff):
            return None
        qc = (c * inv_lead) % p if prime else c * inv_lead
        quo[diff] = qc
        for be, bc in b.terms.items():
            te = tuple(map(operator.add, diff, be))
            v = rem.get(te, 0) - qc * bc
            if prime:
                v %= p
            if v:
                rem[te] = v
            elif te in rem:
                del rem[te]
    return Poly._raw(field, a.vars, quo)


def divmod_in(p: Poly, divisor: Poly, var: str) -> Tuple[Poly, Poly]:
    """Division with remainder viewing both sides as polynomials in ``var``.

    The divisor's leading coefficient in ``var`` must be a nonzero constant
    (e.g. any monic polynomial), so the division is defined over the
    coefficient ring in the remaining variables.
    """
    p._check_compat(divisor)
    dd = divisor.degree_in(var)
    if dd is NEG_INF:
        raise ZeroDivisionError("division by the zero polynomial")
    lc = divisor.coeff_in(var, dd)
    if not lc.is_constant:
        raise ValueError(f"divisor leading coefficient in {var!r} is not constant: {lc}")
    inv = p.field.inv(lc.constant_value().value)
    quo = Poly.zero(p.field, p.vars)
    rem = p
    while not rem.is_zero:
        dr = rem.degree_in(var)
        if dr < dd:
            break
        top = rem.coeff_in(var, dr).scaled(inv)
        piece = top.mul_var_power(var, dr - dd)
        quo = quo + piece
        rem = rem - piece * divisor
    return quo, rem
