"""Sparse multivariate polynomials over an exact coefficient field.

A ``Poly`` stores an ordered variable tuple ``vars`` and a term map
``packed`` from packed exponent keys to nonzero raw coefficients: over Q an
``int`` when integral and a ``Fraction`` otherwise (the rule of
``fields.q_norm``, applied wherever a Q sum or product is stored), ``int``
residues over F_p.  The zero polynomial has an empty term map; no zero
coefficient is ever stored, so structural equality decides mathematical
equality.

Packed keys (Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007).  Over n variables the key
of X_0^e_0 ... X_{n-1}^e_{n-1} is one ``int``: variable i has a ``SLOT``-bit
field at bit offset ``SLOT*(n-1-i)`` (earlier variables more significant),
and the total degree sits above them all, at offset ``SLOT*n``.  So:

- integer order is graded-lexicographic order (total degree first, then
  the exponents with earlier variables more significant), and the
  constant monomial is the key 0;
- a monomial product is one integer addition and ``m**k`` is ``k * key``;
  ``e * unit`` is X_i^e, where a variable's unit key has one bit in its
  field and one in the degree field;
- every stored exponent is below 2**31, so the top bit of each field is a
  guard bit: a sum of two exponents never carries into the next field,
  and b divides a as a monomial exactly when ``(a - b) & guard`` is 0
  (a negative field borrows and sets its own guard bit);
- the 2**31 overflow check of a product, power, shift or substitution is
  one comparison on the degree field of the leading keys (a total degree
  below 2**31 bounds every exponent), and raises ``OverflowError``.

The public surface takes and returns exponent tuples aligned with
``vars``: the constructor packs its term map, and ``terms`` is a read-only
view keyed by tuples.  The view answers ``len``, truth and ``values()``
from the packed map without unpacking a key; iterating its keys, ``items()``
and lookups unpack or pack one key at a time.  Code in the package reads
``packed`` and ``Poly.slot`` directly.

Over Q, ``__mul__`` and ``substitute`` (for ``p``'s terms) multiply on
integers: an operand is scaled once by its common denominator D, and each
output sum is divided once by the product of the D's, to an int or one
``Fraction``.  An operand is cleared only when D, the lcm of its
denominators, is the largest of them, so no cleared coefficient outgrows
its numerator plus D (content and primitive part, von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 6); otherwise it is read as is.

Arithmetic requires identical variable tuples; use ``with_vars`` to embed a
polynomial into another variable context (one pass of shifts and masks).

Powers have two routines, one job each, and the caller passes the product
(and, for the ladder, the p-th power), so each serves every representation.
``square_and_multiply`` forms a single power of one base.  ``power_ladder``
keeps every power of one base it builds and over F_p takes p-th powers by
the Frobenius map: ``substitute`` and ``Poly.__pow__`` read it on ``Poly``
(``_frobenius``), ``dense.congruence_defect`` on dense rows (``dense.spread``).

Everything here is immutable and pure, safe for concurrent use.
"""

from __future__ import annotations

import heapq
import math
import operator
import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, Iterable, Optional, Tuple

from .errors import FieldMismatchError, UnknownVariableError
from .fields import FieldKind, FieldSpec, Scalar, q_norm

NEG_INF = float("-inf")

MAX_EXPONENT = 2**31
SLOT = 32
SLOT_MASK = (1 << SLOT) - 1

ExpVec = Tuple[int, ...]


def pack(exps: ExpVec) -> int:
    """The packed key of an exponent tuple whose entries are in [0, 2**31)."""
    key = degree = 0
    for e in exps:
        key = (key << SLOT) | e
        degree += e
    return key | (degree << (SLOT * len(exps)))


def unpack(key: int, n: int) -> ExpVec:
    """The exponent tuple of a packed key over n variables."""
    return struct.unpack(f">{n}I", (key & ((1 << (SLOT * n)) - 1)).to_bytes(4 * n, "big"))


def unit_key(n: int, i: int) -> int:
    """The key of the i-th of n variables to the first power."""
    return (1 << (SLOT * n)) | (1 << (SLOT * (n - 1 - i)))


def _guard(n: int) -> int:
    """The top bit of every variable field over n variables."""
    return sum(1 << (SLOT * i + SLOT - 1) for i in range(n))


def _valid(exps, n: int) -> bool:
    return len(exps) == n and all(0 <= e < MAX_EXPONENT for e in exps)


@lru_cache(maxsize=256)
def _embedding(old_vars: Tuple[str, ...], new_vars: Tuple[str, ...]):
    """How ``with_vars`` moves keys from ``old_vars`` to ``new_vars``:
    (mask of the fields of dropped variables, offset of the first run in the
    old and in the new layout, [(old offset, mask, new offset)] of the other
    runs).  A run is a block of fields that stay neighbours in the same
    order; the degree field heads the first run and is never masked, so
    appending variables is a single shift."""
    old_n, new_n = len(old_vars), len(new_vars)
    pos = {v: i for i, v in enumerate(new_vars)}
    dropped = sum(SLOT_MASK << (SLOT * (old_n - 1 - j))
                  for j, v in enumerate(old_vars) if v not in pos)
    # fields as (old index, new index), the degree field being -1 in both
    runs = []                            # [first old, last old, last new]
    for j, i in [(-1, -1)] + [(j, pos[v]) for j, v in enumerate(old_vars) if v in pos]:
        if runs and j == runs[-1][1] + 1 and i == runs[-1][2] + 1:
            runs[-1][1:] = [j, i]
        else:
            runs.append([j, j, i])
    moves = tuple((SLOT * (old_n - 1 - last), (1 << (SLOT * (last - first + 1))) - 1,
                   SLOT * (new_n - 1 - new_last)) for first, last, new_last in runs[1:])
    return (dropped, SLOT * (old_n - 1 - runs[0][1]), SLOT * (new_n - 1 - runs[0][2]),
            moves)


class TermsView(Mapping):
    """Read-only view {exponent tuple: raw coefficient} of a packed term map."""

    __slots__ = ("_packed", "_n")

    def __init__(self, packed: Dict[int, object], n: int):
        self._packed = packed
        self._n = n

    def __len__(self):
        return len(self._packed)

    def values(self):
        return self._packed.values()

    def __iter__(self):
        n = self._n
        return (unpack(k, n) for k in self._packed)

    def items(self):
        n = self._n
        return [(unpack(k, n), c) for k, c in self._packed.items()]

    def __getitem__(self, exps):
        exps = tuple(exps)
        if not _valid(exps, self._n):
            raise KeyError(exps)
        return self._packed[pack(exps)]

    def __repr__(self):
        return f"TermsView({dict(self.items())!r})"


class Poly:
    __slots__ = ("field", "vars", "packed")

    def __init__(self, field: FieldSpec, vars: Iterable[str], terms: Mapping[ExpVec, object] = ()):
        _set_field(self, field)
        _set_vars(self, tuple(vars))
        clean: Dict[int, object] = {}
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
                clean[pack(exps)] = raw
        _set_packed(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, field: FieldSpec, vars: Tuple[str, ...], packed: Dict[int, object]) -> "Poly":
        """Fast constructor for internally built, already-clean packed maps."""
        self = object.__new__(cls)
        _set_field(self, field)
        _set_vars(self, vars)
        _set_packed(self, packed)
        return self

    @classmethod
    def _from_sums(cls, field: FieldSpec, vars: Tuple[str, ...], sums: Dict[int, object],
                   den: int = 1) -> "Poly":
        """Constructor for accumulated coefficient sums: reduced mod p over
        F_p, over Q divided by ``den`` (what ``_cleared`` took out) and
        normalized by ``q_norm``, zero coefficients dropped."""
        if field.kind is FieldKind.PRIME:
            p = field.modulus
            out = {}
            for e, v in sums.items():
                v %= p
                if v:
                    out[e] = v
        elif den == 1:
            out = {e: q_norm(v) for e, v in sums.items() if v}
        else:
            out = {e: v // den if v.__class__ is int and not v % den else q_norm(Fraction(v, den))
                   for e, v in sums.items() if v}
        return cls._raw(field, vars, out)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec, vars: Iterable[str]) -> "Poly":
        return cls._raw(field, tuple(vars), {})

    @classmethod
    def const(cls, field: FieldSpec, vars: Iterable[str], value) -> "Poly":
        vars = tuple(vars)
        raw = field.coerce(value)
        return cls._raw(field, vars, {0: raw} if raw != 0 else {})

    @classmethod
    def one(cls, field: FieldSpec, vars: Iterable[str]) -> "Poly":
        return cls.const(field, vars, 1)

    @classmethod
    def variable(cls, field: FieldSpec, vars: Iterable[str], name: str) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise UnknownVariableError(f"variable {name!r} not among {vars}")
        return cls._raw(field, vars, {unit_key(len(vars), vars.index(name)): field.one()})

    @classmethod
    def monomial(cls, field: FieldSpec, vars: Iterable[str], exps: ExpVec, coeff=1) -> "Poly":
        return cls(field, vars, {tuple(exps): coeff})

    # -- structure ------------------------------------------------------------

    @property
    def terms(self) -> TermsView:
        """Read-only {exponent tuple: raw coefficient} view of the terms."""
        return TermsView(self.packed, len(self.vars))

    def __len__(self) -> int:
        """The number of terms."""
        return len(self.packed)

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def is_constant(self) -> bool:
        return not any(self.packed)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial as a Scalar."""
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Scalar(self.field, self.packed.get(0, self.field.zero()))

    def slot(self, var: str) -> Tuple[int, int]:
        """(bit offset of ``var``'s exponent field, unit key of ``var``): the
        exponent of ``var`` in key k is ``(k >> offset) & SLOT_MASK``."""
        n = len(self.vars)
        off = SLOT * (n - 1 - self._var_index(var))
        return off, (1 << (SLOT * n)) | (1 << off)

    def degree_in(self, var: str):
        """Max exponent of ``var`` over terms; -inf for the zero polynomial."""
        off = self.slot(var)[0]
        if not self.packed:
            return NEG_INF
        return max((k >> off) & SLOT_MASK for k in self.packed)

    def total_degree(self):
        if not self.packed:
            return NEG_INF
        return max(self.packed) >> (SLOT * len(self.vars))

    def used_vars(self) -> Tuple[str, ...]:
        used = reduce(operator.or_, self.packed, 0)
        n = len(self.vars)
        return tuple(v for i, v in enumerate(self.vars)
                     if (used >> (SLOT * (n - 1 - i))) & SLOT_MASK)

    def _var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise UnknownVariableError(f"variable {var!r} not among {self.vars}") from None

    def coefficient(self, exps: ExpVec) -> Scalar:
        exps = tuple(exps)
        raw = self.packed.get(pack(exps)) if _valid(exps, len(self.vars)) else None
        return Scalar(self.field, self.field.zero() if raw is None else raw)

    def coeff_in(self, var: str, k: int) -> "Poly":
        """Coefficient of var**k, as a polynomial over the same variables
        (with that variable's exponent zeroed)."""
        off, unit = self.slot(var)
        shift = k * unit
        return Poly._raw(self.field, self.vars, {e - shift: c for e, c in self.packed.items()
                                                 if (e >> off) & SLOT_MASK == k})

    def coefficients_in(self, var: str) -> Dict[int, "Poly"]:
        """Split into {k: coefficient of var**k} with var zeroed out."""
        off, unit = self.slot(var)
        buckets: Dict[int, Dict[int, object]] = {}
        for e, c in self.packed.items():
            k = (e >> off) & SLOT_MASK
            buckets.setdefault(k, {})[e - k * unit] = c
        return {k: Poly._raw(self.field, self.vars, t) for k, t in buckets.items()}

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        n, packed = len(self.vars), self.packed
        return [(unpack(k, n), packed[k]) for k in sorted(packed, reverse=True)]

    def sort_key(self):
        """Deterministic total order on polynomials over one field: the
        terms in descending grlex order, compared as exponent tuples."""
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
        (any order, possibly larger or smaller): one pass of shifts and
        masks per term (see ``_embedding``)."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        dropped, top_old, top_new, moves = _embedding(self.vars, new_vars)
        packed = self.packed
        if dropped and reduce(operator.or_, packed, 0) & dropped:
            lost = [v for v in self.used_vars() if v not in new_vars]
            raise UnknownVariableError(
                f"variable {lost[0]!r} is used but absent from {new_vars}")
        if not moves:             # appending variables: one shift
            out = {(k >> top_old) << top_new: c for k, c in packed.items()}
        elif len(moves) == 1:     # inserting or dropping one block: one mask more
            (o, m, s), = moves
            out = {((k >> top_old) << top_new) | (((k >> o) & m) << s): c
                   for k, c in packed.items()}
        else:
            out = {}
            for k, c in packed.items():
                new = (k >> top_old) << top_new
                for o, m, s in moves:
                    new |= ((k >> o) & m) << s
                out[new] = c
        return Poly._raw(self.field, new_vars, out)

    # -- arithmetic ---------------------------------------------------------------

    def _check_compat(self, other: "Poly"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(
                f"cannot combine {self.field.tag()} with {other.field.tag()}"
            )
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, Scalar)):
                return NotImplemented
            other = Poly.const(self.field, self.vars, other)
        self._check_compat(other)
        out = dict(self.packed)
        if self.field.kind is FieldKind.PRIME:
            p = self.field.modulus
            for e, c in other.packed.items():
                v = (out.get(e, 0) + c) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        else:
            for e, c in other.packed.items():
                v = out.get(e)
                v = c if v is None else v + c
                if v:
                    out[e] = q_norm(v)
                elif e in out:
                    del out[e]
        return Poly._raw(self.field, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Poly._raw(self.field, self.vars, {e: neg(c) for e, c in self.packed.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, Scalar)):
                return NotImplemented
            other = Poly.const(self.field, self.vars, other)
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
                             {e: (v * raw) % p for e, v in self.packed.items()})
        return Poly._raw(self.field, self.vars,
                         {e: q_norm(v * raw) for e, v in self.packed.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction, Scalar)):
                return self.scaled(other)
            return NotImplemented
        self._check_compat(other)
        a, b = self.packed, other.packed
        if not a or not b:
            return Poly.zero(self.field, self.vars)
        ds = SLOT * len(self.vars)
        if (max(a) >> ds) + (max(b) >> ds) >= MAX_EXPONENT:
            raise OverflowError("product exponent would exceed 2**31")
        if len(a) > len(b):
            a, b = b, a
        da = db = 1
        if self.field.kind is not FieldKind.PRIME:
            (a, da), (b, db) = _cleared(a), _cleared(b)
        acc: Dict[int, object] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                v = acc.get(e)
                acc[e] = c1 * c2 if v is None else v + c1 * c2
        return Poly._from_sums(self.field, self.vars, acc, da * db)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        packed = self.packed
        if e and packed and (max(packed) >> (SLOT * len(self.vars))) * e >= MAX_EXPONENT:
            raise OverflowError("power exponent would exceed 2**31")
        if len(packed) == 1:  # (c*m)^e = c^e * m^e
            (key, c), = packed.items()
            return Poly._raw(self.field, self.vars, {key * e: self.field.pow(c, e)})
        if not e:
            return Poly.one(self.field, self.vars)
        return power_ladder({1: self}, e, self.field.modulus, operator.mul, _frobenius)

    def mul_var_power(self, var: str, k: int) -> "Poly":
        """Multiply by var**k (exponent shift, no coefficient work)."""
        if k == 0:
            return self
        unit = self.slot(var)[1]
        if self.packed and self.total_degree() + k >= MAX_EXPONENT:
            raise OverflowError("shifted exponent would exceed 2**31")
        shift = k * unit
        return Poly._raw(self.field, self.vars, {e + shift: c for e, c in self.packed.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.field == other.field and self.vars == other.vars
                and self.packed == other.packed)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        from .parsing import poly_str
        return poly_str(self)

    def __repr__(self):
        return f"Poly({self.field.tag()}, {self.vars}, {str(self)!r})"

    # -- calculus / evaluation ------------------------------------------------------

    def derivative(self, var: str) -> "Poly":
        return self.hasse_derivative(var, 1)

    def hasse_derivative(self, var: str, k: int) -> "Poly":
        """The k-th Hasse derivative in ``var``: the coefficient of T**k in
        self(var + T), sum C(e, k) c var^(e-k) over the terms c var^e with
        e >= k.  It is defined in every characteristic; k = 1 gives the
        derivative."""
        off, unit = self.slot(var)
        shift = k * unit
        sums: Dict[int, object] = {}
        for key, c in self.packed.items():
            e = (key >> off) & SLOT_MASK
            if e >= k:
                sums[key - shift] = math.comb(e, k) * c
        return Poly._from_sums(self.field, self.vars, sums)

    def evaluate(self, assignment: Mapping[str, object]) -> Scalar:
        """Evaluate at scalars, one per variable."""
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise UnknownVariableError(f"no value given for {v!r}")
            vals.append(self.field.coerce(assignment[v]))
        field = self.field
        n = len(self.vars)
        acc = field.zero()
        for k, c in self.packed.items():
            t = c
            for val, e in zip(vals, unpack(k, n)):
                if e:
                    t = field.mul(t, field.pow(val, e))
            acc = field.add(acc, t)
        return Scalar(field, acc)


# the slot setters, which bypass Poly.__setattr__ (it refuses every write)
_set_field, _set_vars, _set_packed = (Poly.__dict__[name].__set__ for name in Poly.__slots__)


def _cleared(packed: Dict[int, object]) -> Tuple[Dict[int, object], int]:
    """(packed times D, D) for the common denominator D of a Q term map, its
    coefficients then all ints; (packed, 1) for an integral map, or when D
    exceeds the largest denominator (the rule in the module docstring)."""
    if Fraction not in map(type, packed.values()):
        return packed, 1
    dens = {c.denominator for c in packed.values()}
    den = max(dens)
    if math.lcm(*dens) != den:
        return packed, 1
    return {e: c.numerator * (den // c.denominator) for e, c in packed.items()}, den


def canonical_var_union(*var_lists: Iterable[str]) -> Tuple[str, ...]:
    """Merge variable lists, keeping first-seen order."""
    seen = []
    for vs in var_lists:
        for v in vs:
            if v not in seen:
                seen.append(v)
    return tuple(seen)


def square_and_multiply(x, e: int, mul):
    """x**e for e >= 1 by right-to-left binary powering, each product
    ``mul(a, b)``; no product by one, no squaring past the top bit of e.
    The one routine for a single power of one base; ``power_ladder`` is
    the one for every power of a base that a caller reads off."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


def power_ladder(cache: Dict[int, object], e: int, p: int, mul, frobenius):
    """a^e for a = cache[1], kept in ``cache`` with every power it builds.
    The one ladder for every power of one base that a caller reads off, in
    any representation: ``substitute`` and ``Poly.__pow__`` pass the
    ``Poly`` product and ``_frobenius``, ``dense.congruence_defect`` the
    dense-row product and spread.

    Over F_p (p > 0), for e >= p, a^e = (a^(e // p))^p a^(e % p), and the
    p-th power ``frobenius(b)`` = b^p takes no product: it spreads the
    exponents by p and keeps the coefficients, since c^p = c (the Frobenius
    map; von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 14).
    Smaller powers, and every power over Q (p = 0), are built in one loop
    of products ``mul(b, a)`` from the largest power cached below e."""
    if e in cache:
        return cache[e]
    if p and e >= p:
        acc = frobenius(power_ladder(cache, e // p, p, mul, frobenius))
        if e % p:
            acc = mul(acc, power_ladder(cache, e % p, p, mul, frobenius))
        cache[e] = acc
        return acc
    a = cache[1]
    best = max(k for k in cache if k <= e)
    acc = cache[best]
    for k in range(best + 1, e + 1):
        acc = mul(acc, a)
        cache[k] = acc
    return acc


def _frobenius(a: Poly) -> Poly:
    """a^p over F_p as a term map: each key times p, the coefficients
    unchanged; raises ``OverflowError`` as ``Poly.__pow__`` does."""
    p = a.field.modulus
    if a.packed and (max(a.packed) >> (SLOT * len(a.vars))) * p >= MAX_EXPONENT:
        raise OverflowError("power exponent would exceed 2**31")
    return Poly._raw(a.field, a.vars, {k * p: c for k, c in a.packed.items()})


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
    n, pn = len(vars_out), len(p.vars)
    ds = SLOT * n
    field = p.field
    pow_cache: Dict[str, Dict[int, Poly]] = {v: {1: q} for v, q in embedded.items()}

    # each variable of p: its field offset, and either its binding or its
    # unit key over vars_out (None when it is absent from vars_out)
    bound, free = [], []
    for j, v in enumerate(p.vars):
        off = SLOT * (pn - 1 - j)
        if v in embedded:
            bound.append((off, v))
        else:
            i = pos.get(v)
            free.append((off, None if i is None else unit_key(n, i), v))
    packed, den = (p.packed, 1) if field.kind is FieldKind.PRIME else _cleared(p.packed)
    acc: Dict[int, object] = {}
    get = acc.get
    for k, c in packed.items():
        base = 0
        image = None  # the product of the bound variables' image powers
        for off, v in bound:
            e = (k >> off) & SLOT_MASK
            if e:
                f = power_ladder(pow_cache[v], e, field.modulus, operator.mul, _frobenius)
                image = f if image is None else image * f
        for off, unit, v in free:
            e = (k >> off) & SLOT_MASK
            if e:
                if unit is None:
                    raise UnknownVariableError(f"variable {v!r} absent from output variables")
                base += e * unit
        if image is None:
            prev = get(base)
            acc[base] = c if prev is None else prev + c
            continue
        if base and (base >> ds) + (max(image.packed, default=0) >> ds) >= MAX_EXPONENT:
            raise OverflowError("product exponent would exceed 2**31")
        for e, v in image.packed.items():
            e += base
            prev = get(e)
            acc[e] = c * v if prev is None else prev + c * v
    return Poly._from_sums(field, vars_out, acc, den)


def exact_div(a: Poly, b: Poly) -> Optional[Poly]:
    """Exact quotient a / b, or None when b does not divide a.

    Single-divisor multivariate division with graded-lex leading terms; for
    a = b*q the algorithm always recovers q, and any term that escapes to
    the remainder proves indivisibility.  The remainder's leading term comes
    from a max-heap of packed keys (Monagan & Pearce, CASC 2007): every term
    a step adds lies grlex-below the term it cancels, so the heap stays
    valid, and a popped key whose term has since cancelled is skipped.  A
    term escapes when the leading monomial of b does not divide it, which
    the guard bits of the key difference show.
    """
    a._check_compat(b)
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return Poly.zero(a.field, a.vars)
    n = len(a.vars)
    if max(a.packed) >> (SLOT * n) >= MAX_EXPONENT:
        raise OverflowError("dividend exponent reaches 2**31")
    field = a.field
    lead = max(b.packed)
    inv_lead = field.inv(b.packed[lead])
    guard = _guard(n)
    tail = [(be, bc) for be, bc in b.packed.items() if be != lead]
    rem = dict(a.packed)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quo: Dict[int, object] = {}
    prime = field.kind is FieldKind.PRIME
    p = field.modulus
    while heap:
        e = -heapq.heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue
        diff = e - lead
        if diff & guard:
            return None
        qc = (c * inv_lead) % p if prime else q_norm(c * inv_lead)
        quo[diff] = qc
        for be, bc in tail:
            te = diff + be
            prev = rem.get(te)
            if prev is None:
                v = -qc * bc
                heapq.heappush(heap, -te)
            else:
                v = prev - qc * bc
            v = v % p if prime else q_norm(v)
            if v:
                rem[te] = v
            elif prev is not None:
                del rem[te]
    return Poly._raw(field, a.vars, quo)


def divmod_in(p: Poly, divisor: Poly, var: str) -> Tuple[Poly, Poly]:
    """Division with remainder viewing both sides as polynomials in ``var``.

    The divisor's leading coefficient in ``var`` must be a nonzero constant
    (e.g. any monic polynomial), so the division is defined over the
    coefficient ring in the remaining variables.

    The terms of p at or above the divisor's degree dd in ``var`` are split
    into one bucket per degree, in one pass, and the buckets are cleared
    top-down.  The divisor's one term of degree dd is its leading term and
    every other term lowers the degree, so a step adds only to lower
    buckets or to the remainder.  A bucket collects raw sums, normalized
    once when it is cleared; the remainder is kept normalized throughout.
    """
    p._check_compat(divisor)
    dd = divisor.degree_in(var)
    if dd is NEG_INF:
        raise ZeroDivisionError("division by the zero polynomial")
    lc = divisor.coeff_in(var, dd)
    if not lc.is_constant:
        raise ValueError(f"divisor leading coefficient in {var!r} is not constant: {lc}")
    off, unit = p.slot(var)
    levels: Dict[int, Dict[int, object]] = {}
    rem: Dict[int, object] = {}
    for e, c in p.packed.items():
        k = (e >> off) & SLOT_MASK
        if k < dd:
            rem[e] = c
        elif k in levels:
            levels[k][e] = c
        else:
            levels[k] = {e: c}
    field = p.field
    if not levels:
        return Poly.zero(field, p.vars), p
    top = max(levels)
    # clearing one level raises a term's total degree by at most this much
    growth = max(0, divisor.total_degree() - dd)
    if p.total_degree() + (top - dd + 1) * growth >= MAX_EXPONENT:
        raise OverflowError("remainder exponent would exceed 2**31")
    inv = field.inv(lc.packed[0])
    prime = field.kind is FieldKind.PRIME
    m = field.modulus
    shift = dd * unit
    # the divisor's other terms, negated, with how far each lowers the degree
    tail = [(be, -bc, dd - ((be >> off) & SLOT_MASK))
            for be, bc in divisor.packed.items() if (be >> off) & SLOT_MASK < dd]
    quo: Dict[int, object] = {}
    for k in range(top, dd - 1, -1):
        level = levels.pop(k, None)
        if not level:
            continue
        pending = [(be, nbc, levels.setdefault(k - drop, {}))
                   for be, nbc, drop in tail if k - drop >= dd]
        to_rem = [(be, nbc) for be, nbc, drop in tail if k - drop < dd]
        for e, c in level.items():
            qc = (c * inv) % m if prime else q_norm(c * inv)
            if not qc:
                continue
            qe = e - shift
            quo[qe] = qc
            for be, nbc, bucket in pending:
                te = qe + be
                v = bucket.get(te)
                bucket[te] = qc * nbc if v is None else v + qc * nbc
            for be, nbc in to_rem:
                te = qe + be
                v = rem.get(te, 0) + qc * nbc
                v = v % m if prime else q_norm(v)
                if v:
                    rem[te] = v
                elif te in rem:
                    del rem[te]
    return Poly._raw(field, p.vars, quo), Poly._raw(field, p.vars, rem)
