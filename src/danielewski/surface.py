"""Coordinate rings A = K[X,Y,Z]/(f(X)Y - P(X,Z)) and their elements.

``SurfaceSpec`` validates the defining pair (f, P): f monic in X of degree
r, P monic in Z of degree d (the workbench works with r >= 2, d >= 2;
degree-1 f is representable internally because stable-isomorphism partner
surfaces can have one).

Elements are kept in the unique normal form

    g = g_0(x,z) + g_1(x,z) y + ... + g_m(x,z) y^m,   deg_Z(g_i) <= d-1,

the remainder on division by the relation P - f(X) Y, monic in Z of degree
d (``poly.divmod_in``); it rewrites Z^d -> f(X) Y - (P - Z^d) to
exhaustion.  Structural equality of normal forms decides equality in A.
Auxiliary polynomial variables (U, V, v, and no others) ride along inside
the coefficients; the division never touches them, which realizes A[U],
A[U,V], A[v] for free.

A ``SurfaceElement`` stores its normal form as one ``Poly`` over
("X", "Y", "Z") + aux, where aux lists exactly the auxiliary variables that
occur.  That polynomial is the element's ``raw_lift()``, so a product or a
ring map works on it directly and ``normal_form`` wraps its reduced result
without splitting it by powers of y.  The y-coefficients g_i of the public
``coeffs`` mapping are a read-only view, derived on first use.

Everything is immutable.  A surface holds no state beyond its defining
data; the coefficient view of an element is a deterministic memo and never
affects results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import FieldMismatchError, PreconditionError, SurfaceConstraintError
from .factor import Factorization, factor_univariate, gcd_univariate, squarefree_part
from .fields import FieldSpec, Scalar
from .poly import (MAX_EXPONENT, NEG_INF, SLOT_MASK, Poly, divmod_in, square_and_multiply,
                   substitute, unit_key)
from .resultant import resultant_in

AUX_ORDER = ("U", "V", "v")
_BASE_VARS = ("X", "Y", "Z")
_UNIT = {v: unit_key(3, i) for i, v in enumerate(_BASE_VARS)}


def _is_canonical_aux(names: Tuple[str, ...]) -> bool:
    """Whether ``names`` are distinct auxiliary variables in canonical order."""
    return (all(n in AUX_ORDER for n in names)
            and names == tuple(sorted(set(names), key=AUX_ORDER.index)))


def _sorted_aux(names: Iterable[str]) -> Tuple[str, ...]:
    names = tuple(names)
    for n in names:
        if n in _BASE_VARS:
            raise SurfaceConstraintError(f"{n!r} cannot be an auxiliary variable")
        if n not in AUX_ORDER:
            raise SurfaceConstraintError(
                f"auxiliary variable {n!r} not among {AUX_ORDER}")
    return tuple(sorted(set(names), key=AUX_ORDER.index))


@dataclass(frozen=True)
class SurfaceSpec:
    """Validated data of A = K[X,Y,Z]/(f(X)Y - P(X,Z))."""

    field: FieldSpec
    f: Poly                      # over ("X",), monic
    P: Poly                      # over ("X", "Z"), monic in Z
    r: int                       # deg f
    d: int                       # deg_Z P
    n: int                       # multiplicity of the root 0 in f

    # -- generators and constants ----------------------------------------

    def zero(self) -> "SurfaceElement":
        return SurfaceElement._of(self, Poly.zero(self.field, _BASE_VARS))

    def one(self) -> "SurfaceElement":
        return self.from_scalar(1)

    def from_scalar(self, c) -> "SurfaceElement":
        return SurfaceElement._of(self, Poly.const(self.field, _BASE_VARS, c))

    def from_xz_poly(self, p: Poly) -> "SurfaceElement":
        """Embed a polynomial in X, Z (already of Z-degree <= d-1)."""
        return normal_form(p, self)

    def x(self) -> "SurfaceElement":
        return SurfaceElement._of(self, Poly.variable(self.field, _BASE_VARS, "X"))

    def z(self) -> "SurfaceElement":
        return SurfaceElement._of(self, Poly.variable(self.field, _BASE_VARS, "Z"))

    def y(self) -> "SurfaceElement":
        return SurfaceElement._of(self, Poly.variable(self.field, _BASE_VARS, "Y"))

    def generator(self, name: str) -> "SurfaceElement":
        """x, y, z, or an auxiliary variable (U, V, v) as an element."""
        if name in AUX_ORDER:
            return SurfaceElement._of(
                self, Poly.variable(self.field, _BASE_VARS + (name,), name))
        return {"x": self.x, "y": self.y, "z": self.z}[name]()


def make_surface(field: FieldSpec, f: Poly, P: Poly, _min_r: int = 2) -> SurfaceSpec:
    """Validate and build a SurfaceSpec; rejects non-monic or low-degree data."""
    used_f = f.used_vars()
    if any(v != "X" for v in used_f):
        raise SurfaceConstraintError(f"f must be a polynomial in X alone, uses {used_f}")
    f = f.with_vars(("X",))
    if f.field != field or P.field != field:
        raise SurfaceConstraintError("f and P must live over the declared field")
    used_P = P.used_vars()
    if any(v not in ("X", "Z") for v in used_P):
        raise SurfaceConstraintError(f"P must be a polynomial in X, Z, uses {used_P}")
    P = P.with_vars(("X", "Z"))
    r = f.degree_in("X")
    if r is NEG_INF or r < _min_r:
        raise SurfaceConstraintError(f"deg f = {r}, need deg f >= {_min_r}")
    if f.coefficient((r,)) != 1:
        raise SurfaceConstraintError("f is not monic in X")
    d = P.degree_in("Z")
    if d is NEG_INF or d < 2:
        raise SurfaceConstraintError(f"deg_Z P = {d}, need deg_Z P >= 2")
    lead = P.coeff_in("Z", d)
    if not (lead.is_constant and lead.constant_value() == 1):
        raise SurfaceConstraintError("P is not monic in Z")
    n = min(f.packed) & SLOT_MASK            # one variable: the key's low field
    return SurfaceSpec(field, f, P, r, d, n)


def shift_surface(spec: SurfaceSpec, c) -> SurfaceSpec:
    """The explicit coordinate change x -> x + c (never applied silently)."""
    cc = Poly.const(spec.field, ("X",), c)
    x = Poly.variable(spec.field, ("X",), "X")
    f2 = substitute(spec.f, {"X": x + cc})
    P2 = substitute(spec.P, {"X": (x + cc).with_vars(("X", "Z"))}, vars_out=("X", "Z"))
    return make_surface(spec.field, f2, P2, _min_r=min(2, spec.r))


def graded_surface(spec: SurfaceSpec) -> SurfaceSpec:
    """The associated graded surface: same f, P replaced by Z**d."""
    zd = Poly.monomial(spec.field, ("X", "Z"), (0, spec.d))
    return make_surface(spec.field, spec.f, zd, _min_r=min(2, spec.r))


class SurfaceElement:
    """An element of A (or A[U], A[U,V], A[v]) in normal form.

    The element is stored as one polynomial sum(g_i * Y**i) over
    ("X", "Y", "Z") + aux with deg_Z <= d-1 (``raw_lift()``).  ``aux``
    lists exactly the auxiliary variables that occur, in canonical order,
    so structural equality is sound.  ``coeffs`` is the read-only view
    {i: g_i} with each g_i a nonzero polynomial over ("X", "Z") + aux.

    The constructor takes that mapping and validates it: every coefficient
    lives over the surface's field, uses only X, Z and declared auxiliary
    variables, and has Z-degree at most d-1; every y-power is below 2**31,
    the bound of every stored exponent.
    """

    __slots__ = ("spec", "aux", "_nf", "_coeffs")

    def __init__(self, spec: SurfaceSpec, aux: Iterable[str], coeffs: Mapping[int, Poly]):
        aux = _sorted_aux(aux)
        # canonical pruning: keep only aux variables that actually occur
        used = set()
        clean: Dict[int, Poly] = {}
        for i, g in coeffs.items():
            # from 2**31 on, the packed key would carry y's field into x's
            if not isinstance(i, int) or not 0 <= i < MAX_EXPONENT:
                raise SurfaceConstraintError(f"y-power {i!r} is not an integer in [0, 2**31)")
            if g.is_zero:
                continue
            if g.field != spec.field:
                raise FieldMismatchError(
                    f"coefficient of y^{i} lives over {g.field.tag()}, "
                    f"expected {spec.field.tag()}")
            used.update(v for v in g.used_vars() if v not in ("X", "Z"))
            clean[i] = g
        bad = used.difference(aux)
        if bad:
            raise SurfaceConstraintError(f"coefficients use undeclared variables {sorted(bad)}")
        aux = tuple(a for a in aux if a in used)
        vars_full = _BASE_VARS + aux
        unit_y = unit_key(len(vars_full), 1)
        terms: Dict[int, object] = {}
        for i, g in clean.items():
            g = g.with_vars(vars_full)
            dz = g.degree_in("Z")
            if dz is not NEG_INF and dz > spec.d - 1:
                raise SurfaceConstraintError(
                    f"coefficient of y^{i} has Z-degree {dz} > d-1 = {spec.d - 1}")
            shift = i * unit_y
            for k, c in g.packed.items():
                terms[k + shift] = c
        self._set(spec, aux, Poly._raw(spec.field, vars_full, terms))

    def _set(self, spec: SurfaceSpec, aux: Tuple[str, ...], nf: Poly) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "_nf", nf)
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _of(cls, spec: SurfaceSpec, nf: Poly) -> "SurfaceElement":
        """Wrap a polynomial already in normal form over ("X", "Y", "Z") +
        aux (aux in canonical order), dropping aux variables that do not
        occur."""
        aux = nf.vars[3:]
        if aux:
            used = nf.used_vars()
            kept = tuple(a for a in aux if a in used)
            if kept != aux:
                aux = kept
                nf = nf.with_vars(_BASE_VARS + kept)
        self = object.__new__(cls)
        self._set(spec, aux, nf)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceElement is immutable")

    @property
    def coeffs(self) -> Mapping[int, Poly]:
        """{i: g_i}, read-only, built from the normal form on first use."""
        view = self._coeffs
        if view is None:
            by_y = self._nf.coefficients_in("Y")
            vars_c = self.coeff_vars()
            view = MappingProxyType({i: by_y[i].with_vars(vars_c) for i in sorted(by_y)})
            object.__setattr__(self, "_coeffs", view)
        return view

    @property
    def is_zero(self) -> bool:
        return not self._nf.packed

    def coeff_vars(self) -> Tuple[str, ...]:
        return ("X", "Z") + self.aux

    def raw_lift(self) -> Poly:
        """The distinguished representative sum(g_i * Y**i) in K[X,Y,Z,aux]:
        the stored normal form itself."""
        return self._nf

    def _is_generator(self, var: str) -> bool:
        """Whether this element is the base generator named by ``var``."""
        return not self.aux and self._nf.packed == {_UNIT[var]: 1}

    def _join(self, other: "SurfaceElement") -> Tuple[str, ...]:
        """The raw variables of a result combining self and other."""
        if self.spec is not other.spec and self.spec != other.spec:
            raise SurfaceConstraintError("elements live on different surfaces")
        if self.aux == other.aux:
            return self._nf.vars
        return _BASE_VARS + _sorted_aux(self.aux + other.aux)

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.spec.from_scalar(other)
        if not isinstance(other, SurfaceElement):
            return NotImplemented
        vars_full = self._join(other)
        return SurfaceElement._of(
            self.spec, self._nf.with_vars(vars_full) + other._nf.with_vars(vars_full))

    __radd__ = __add__

    def __neg__(self):
        return SurfaceElement._of(self.spec, -self._nf)

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.spec.from_scalar(other)
        if not isinstance(other, SurfaceElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scaled(other)
        if not isinstance(other, SurfaceElement):
            return NotImplemented
        vars_full = self._join(other)
        raw = self._nf.with_vars(vars_full) * other._nf.with_vars(vars_full)
        return normal_form(raw, self.spec)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c) -> "SurfaceElement":
        return SurfaceElement._of(self.spec, self._nf.scaled(c))

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not e:
            return self.spec.one()
        return square_and_multiply(self, e, SurfaceElement.__mul__)

    def __eq__(self, other):
        if not isinstance(other, SurfaceElement):
            return NotImplemented
        return self.spec == other.spec and self._nf == other._nf

    __hash__ = None  # type: ignore[assignment]

    def __str__(self):
        from .parsing import coefficient_strs
        if self.is_zero:
            return "0"
        parts = []
        for i, g in coefficient_strs(self._nf, "Y").items():
            if i == 0:
                parts.append(g)
            else:
                ypow = "y" if i == 1 else f"y^{i}"
                parts.append(f"({g})*{ypow}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SurfaceElement({str(self)!r})"


def normal_form(raw: Poly, spec: SurfaceSpec) -> SurfaceElement:
    """The unique normal form of an arbitrary representative.

    ``raw`` may use X, Y, Z and auxiliary variables.  Its normal form is
    the remainder of ``raw`` on division by the defining relation
    P - f(X) Y, which is monic in Z of degree d: one ``divmod_in`` in Z,
    skipped when no Z-power reaches d.  A product or substitution result
    that already lives over ("X", "Y", "Z") + aux in canonical order is
    reduced as it is, and aux variables that cancelled are dropped at the
    end."""
    aux = raw.vars[3:]
    if raw.vars[:3] != _BASE_VARS or not _is_canonical_aux(aux):
        aux = _sorted_aux(v for v in raw.used_vars() if v not in _BASE_VARS)
        raw = raw.with_vars(_BASE_VARS + aux)
    if raw.degree_in("Z") < spec.d:
        return SurfaceElement._of(spec, raw)
    vs = raw.vars
    relation = spec.P.with_vars(vs) - spec.f.with_vars(vs).mul_var_power("Y", 1)
    return SurfaceElement._of(spec, divmod_in(raw, relation, "Z")[1])


def aux_coefficient(e: SurfaceElement, var: str, k: int) -> SurfaceElement:
    """The coefficient of var**k in e, for an auxiliary variable ``var``:
    an element over the remaining auxiliary variables (zero when var does
    not occur to that power)."""
    if var not in e.aux:
        return e if k == 0 else e.spec.zero()
    nf = e.raw_lift()
    rest = tuple(v for v in nf.vars if v != var)
    return SurfaceElement._of(e.spec, nf.coeff_in(var, k).with_vars(rest))


def eval_poly_on_elements(p: Poly, images: Mapping[str, SurfaceElement],
                          spec: SurfaceSpec) -> SurfaceElement:
    """Apply the ring map K[X,Y,Z,aux] -> A[aux] that sends each variable of
    ``p`` bound in ``images`` to its image and fixes every other variable.

    This is the one way the workbench applies a ring map that moves x, y or
    z (exponential maps, isomorphism certificates, evaluations at
    (x, theta)): one simultaneous substitution of the images' normal forms,
    then one ``normal_form``.  The normal form is unique, so the result does
    not depend on representatives.  A base generator whose image is that
    generator itself (phi(x) = x, the common case) is left unbound.  Maps
    that move only U (U -> 0, U -> V, U -> U + V in exponential-map
    verification) cannot change a normal form and are read off the
    U-expansion instead (``aux_coefficient``, ``Poly.hasse_derivative``).
    """
    used = p.used_vars()
    aux = [v for v in used if v not in images and v not in _BASE_VARS]
    lifts: Dict[str, Poly] = {}
    for v, el in images.items():
        if v in used:
            if el.spec != spec:
                raise SurfaceConstraintError(f"image of {v!r} lives on another surface")
            if v in _UNIT and el._is_generator(v):
                continue
            lifts[v] = el.raw_lift()
            aux.extend(el.aux)
    vars_out = _BASE_VARS + _sorted_aux(aux)
    return normal_form(substitute(p, lifts, vars_out=vars_out), spec)


# -- filtration and the associated graded surface ---------------------------


def filtration_deg(e: SurfaceElement):
    """Degree for the filtration weighting x: 0, z: 1, y: d; -inf at 0."""
    if e.aux:
        raise PreconditionError("filtration degree is defined for elements of A only")
    if e.is_zero:
        return NEG_INF
    return max(_filtration_degrees(e).values())


def _filtration_degrees(e: SurfaceElement) -> Dict[int, int]:
    """{key: filtration degree} over the terms of e's normal form."""
    nf = e.raw_lift()
    y_off, z_off = nf.slot("Y")[0], nf.slot("Z")[0]
    d = e.spec.d
    return {k: d * ((k >> y_off) & SLOT_MASK) + ((k >> z_off) & SLOT_MASK) for k in nf.packed}


def leading_form(e: SurfaceElement) -> SurfaceElement:
    """Sum of the monomials of maximal filtration degree, read in the
    associated graded surface (x -> u, y -> v, z -> w up to renaming)."""
    if e.is_zero:
        raise PreconditionError("the zero element has no leading form")
    if e.aux:
        raise PreconditionError("leading form is defined for elements of A only")
    degrees = _filtration_degrees(e)
    target = max(degrees.values())
    nf = e.raw_lift()
    kept = {k: c for k, c in nf.packed.items() if degrees[k] == target}
    return SurfaceElement._of(graded_surface(e.spec), Poly._raw(nf.field, nf.vars, kept))


# -- division by x ----------------------------------------------------------


def divide_by_x(e: SurfaceElement) -> Optional[SurfaceElement]:
    """Exact quotient e / x, or None when x does not divide e.

    Requires f(0) = 0; then divisibility in A (or A[v]) is equivalent to
    every normal-form coefficient being divisible by X as a plain
    polynomial, because P(0, Z) is monic of degree d while deg_Z g_i < d:
    every term of the normal form has a positive X-exponent.
    """
    if e.spec.n < 1:
        raise PreconditionError("divide_by_x requires f(0) = 0")
    nf = e.raw_lift()
    off, unit = nf.slot("X")
    if any(not (k >> off) & SLOT_MASK for k in nf.packed):
        return None
    out = {k - unit: c for k, c in nf.packed.items()}
    return SurfaceElement._of(e.spec, Poly._raw(nf.field, nf.vars, out))


# -- fibers and smoothness ----------------------------------------------------


class FiberKind(enum.Enum):
    GENERIC_LINE = "GenericLine"
    EXCEPTIONAL_FIBER = "ExceptionalFiber"
    NON_REDUCED_FIBER = "NonReducedFiber"


@dataclass(frozen=True)
class FiberReport:
    """Fiber of the projection to the x-line over a K-point.

    ``closure_lines`` counts lines over the algebraic closure; nothing here
    claims the lines are K-rational."""

    point: Scalar
    f_value: Scalar
    kind: FiberKind
    factors: Factorization
    closure_lines: Optional[int]


def fiber(spec: SurfaceSpec, point) -> FiberReport:
    lam = Scalar(spec.field, point)
    f_value = spec.f.evaluate({"X": lam})
    q = substitute(spec.P, {"X": Poly.const(spec.field, ("X", "Z"), lam)},
                   vars_out=("X", "Z"))
    factors = factor_univariate(q)
    if f_value != 0:
        return FiberReport(lam, f_value, FiberKind.GENERIC_LINE, factors, None)
    if factors.is_squarefree():
        return FiberReport(lam, f_value, FiberKind.EXCEPTIONAL_FIBER, factors, spec.d)
    return FiberReport(lam, f_value, FiberKind.NON_REDUCED_FIBER, factors, None)


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    witness: Optional[Poly]      # squarefree locus of bad roots of f, when not smooth
    resultant: Poly              # Res_Z(P, P_Z) as a polynomial in X


def smoothness_check(spec: SurfaceSpec) -> SmoothnessReport:
    """True iff P(lam, Z) has distinct roots (over the closure) for every
    root lam of f: decided by gcd(f, Res_Z(P, P_Z)) = 1 with P_Z != 0."""
    Pz = spec.P.derivative("Z")
    if Pz.is_zero:
        res = Poly.zero(spec.field, ("X",))
    else:
        res = resultant_in(spec.P, Pz, "Z").with_vars(("X",))
    g = gcd_univariate(spec.f, res)
    if g.total_degree() == 0:
        return SmoothnessReport(True, None, res)
    return SmoothnessReport(False, squarefree_part(g), res)
