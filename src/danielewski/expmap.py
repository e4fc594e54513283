"""Exponential maps A -> A[U] as verifiable objects.

A map is stored through its generator images (elements of A[U]); applying
it is substitution plus renormalization, and well-definedness is exactly
the check that the defining relation maps to zero.  Verification runs
three exact symbolic checks:

    (W)  f(phi x) * phi y - P(phi x, phi z) = 0 in A[U]
    (A1) setting U = 0 returns x, z, y
    (A2) phi_V(phi_U(g)) = phi_{U+V}(g) in A[U,V] for each generator g

(W) and the left sides of (A2) move x, y or z and are substitutions.  The
maps U -> 0, U -> V and U -> U + V fix x, y and z, so they cannot change a
normal form: they are read off each image's stored U-expansion (its U^0
slice, the rename U -> V, and sum_j V^j H_j(g) with H_j the j-th Hasse
derivative in U).  (A2) on a generator that its image fixes, phi(g) = g,
is read off that image, since both sides are g; the canonical map and
every conjugate of it fix x.  (A2) on y follows from the other checks,
since y = P(x, z) / f(x) in the domain A (see ``verify_expmap``); it is
computed only when one of them fails.  Verifying a map that fixes x and
passes its checks makes two substitutions, one that fails three; the
identity map makes one.

The canonical map fixes x and sends z to z + f(x) U and y to y + Q_f(U),
with Q_g(T) = (P(x, z + g T) - P(x, z)) / g the Taylor quotient
(``taylor_quotient``), which the stable-isomorphism construction takes at
g = f / X.

A map keeps its last application (element, image, U-split) in one
private slot, so the higher derivation D_0(e), D_1(e), ... is read off a
single phi(e), as in the paper, split by powers of U once.  It is a
deterministic memo: the image and its split are never modified, the slot is
replaced in one assignment, and copies made by ``replace`` start empty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionError, SurfaceConstraintError, VerificationInternalError
from .poly import NEG_INF, Poly
from .reports import Check, VerificationReport
from .surface import SurfaceElement, SurfaceSpec, aux_coefficient, eval_poly_on_elements


# a map's last application: (element, image, {i: U**i slice} or None)
_Applied = Tuple[SurfaceElement, SurfaceElement, Optional[Dict[int, SurfaceElement]]]


class VerifyStatus(enum.Enum):
    UNVERIFIED = "Unverified"
    VERIFIED = "Verified"
    REFUTED = "Refuted"


@dataclass(frozen=True)
class ExpMap:
    spec: SurfaceSpec
    image_x: SurfaceElement
    image_z: SurfaceElement
    image_y: SurfaceElement
    status: VerifyStatus = VerifyStatus.UNVERIFIED
    reason: str = ""
    # [(element, image, U-split or None)] of the last application, or [None]
    _last: List[Optional[_Applied]] = dc_field(
        default_factory=lambda: [None], init=False, compare=False, repr=False)

    def __post_init__(self):
        for img in (self.image_x, self.image_z, self.image_y):
            if img.spec != self.spec:
                raise SurfaceConstraintError("image lives on the wrong surface")
            if any(a != "U" for a in img.aux):
                raise SurfaceConstraintError("generator images may only use U")

    def images(self) -> Dict[str, SurfaceElement]:
        """The generator images, keyed by the variable they replace."""
        return {"X": self.image_x, "Z": self.image_z, "Y": self.image_y}

    @property
    def is_nontrivial(self) -> bool:
        """Some generator image actually involves U (A != A^phi)."""
        return any("U" in img.aux for img in self.images().values())

    def verified(self) -> "ExpMap":
        """Re-verify and return a copy carrying the outcome.

        A verified nontrivial map must fix x (its invariant ring is K[x]);
        that consequence is asserted after verification as a bug detector.
        """
        report = verify_expmap(self)
        if not report.ok:
            why = "; ".join(c.line() for c in report.failures())
            return replace(self, status=VerifyStatus.REFUTED, reason=why)
        marked = replace(self, status=VerifyStatus.VERIFIED, reason="")
        if marked.is_nontrivial and marked.image_x != marked.spec.x():
            raise VerificationInternalError(
                "verified nontrivial exponential map does not fix x")
        return marked

    def __str__(self):
        return (f"x -> {self.image_x}, z -> {self.image_z}, y -> {self.image_y}"
                f" [{self.status.value}]")


def taylor_quotient(P: Poly, g: Poly, var: str) -> Poly:
    """The Taylor quotient Q_g(T) = (P(X, Z + g T) - P(X, Z)) / g over
    ("X", "Z", T), T named ``var``, for g in X.  With e_k the k-th Hasse
    derivative of P in Z it is sum_(k >= 1) e_k g^(k-1) T^k, read off P's
    Z-coefficients with no substitution or division (von zur Gathen &
    Gerhard, ISSAC 1997); its Z-degree is below P's."""
    vars3 = ("X", "Z", var)
    g3 = g.with_vars(vars3)
    quotient = Poly.zero(P.field, vars3)
    g_power = Poly.one(P.field, vars3)           # g^(k-1)
    for k in range(1, P.degree_in("Z") + 1):
        if k > 1:
            g_power = g_power * g3
        e_k = P.hasse_derivative("Z", k).with_vars(vars3)
        quotient = quotient + (e_k * g_power).mul_var_power(var, k)
    return quotient


def canonical_expmap(spec: SurfaceSpec) -> ExpMap:
    """The exponential map x -> x, z -> z + f(x) U, y -> y + Q_f(U);
    verified before returning."""
    field = spec.field
    vars3 = ("X", "Z", "U")
    image_y = spec.y() + spec.from_xz_poly(taylor_quotient(spec.P, spec.f, "U"))
    z_shift = (Poly.variable(field, vars3, "Z")
               + spec.f.with_vars(vars3) * Poly.variable(field, vars3, "U"))
    m = ExpMap(spec, spec.x(), spec.from_xz_poly(z_shift), image_y).verified()
    if m.status is not VerifyStatus.VERIFIED:
        raise VerificationInternalError(f"canonical map failed verification: {m.reason}")
    return m


def verify_expmap(m: ExpMap) -> VerificationReport:
    """Run the three defining checks, symbolically and exactly.

    (W) and the left sides phi_V(phi_U(g)) move x, y or z and are
    substitutions.  The maps U -> 0, U -> V and U -> U + V move only U and
    cannot change a normal form, so they are read off each image's stored
    normal form: its U^0 slice, the rename U -> V, and the Taylor expansion
    sum_j V^j H_j(g) in the Hasse derivatives H_j in U.

    When an image is its own generator, phi(g) = g, both sides of (A2) on g
    are g: phi_V(phi_U(g)) = phi_V(g) = g = phi_(U+V)(g).  That law is read
    off the image and not computed.

    When (W), the three (A1) checks and (A2) on x and z pass, (A2) on y
    passes too and is not computed:

    - psi_1 = phi_V o phi_U and psi_2 = phi_(U+V) are ring maps
      A -> A[U, V], since (W) makes phi well defined;
    - applying both to f(x) y = P(x, z) and using (A2) on x and z gives
      f(psi_2 x) (psi_1 y - psi_2 y) = 0;
    - A[U, V] is a domain: f Y - P is primitive of degree 1 in Y, since P is
      monic in Z;
    - f(psi_2 x) is not zero: at U = V = 0 it is f(x), by (A1) on x.

    So psi_1 y = psi_2 y.  When an earlier check fails, the y law is
    computed and reports its own witness."""
    spec = m.spec
    checks = []

    # (W) the defining relation maps to zero
    vars3 = ("X", "Y", "Z")
    relation = (spec.f.with_vars(vars3) * Poly.variable(spec.field, vars3, "Y")
                - spec.P.with_vars(vars3))
    defect = eval_poly_on_elements(relation, m.images(), spec)
    checks.append(Check(
        "well-defined: f(phi x) phi y - P(phi x, phi z) = 0", "Def 2.1",
        defect.is_zero, "" if defect.is_zero else f"nonzero witness: {defect}"))

    # (A1) evaluation at U = 0 is the identity
    for var, img in m.images().items():
        name = var.lower()
        at0 = aux_coefficient(img, "U", 0)
        want = spec.generator(name)
        checks.append(Check(
            f"evaluation at U=0 returns {name}", "Def 2.1(i)",
            at0 == want, "" if at0 == want else f"got {at0}"))

    # (A2) the cocycle law in A[U,V]
    images_v = {var: _rename_u_to_v(img) for var, img in m.images().items()}
    for var, img in m.images().items():
        name = var.lower()
        if img._is_generator(var) or (var == "Y" and all(c.passed for c in checks)):
            ok, detail = True, ""       # phi(g) = g, or implied by the checks above
        else:
            lhs = eval_poly_on_elements(img.raw_lift(), images_v, spec)
            rhs = _shift_u_by_v(img)
            ok = lhs == rhs
            detail = "" if ok else f"difference {lhs - rhs}"
        checks.append(Check(
            f"cocycle law on {name}: phi_V(phi_U({name})) = phi_(U+V)({name})",
            "Def 2.1(ii)", ok, detail))

    return VerificationReport("exponential map", tuple(checks))


def _rename_u_to_v(img: SurfaceElement) -> SurfaceElement:
    """phi_V(g): the image g over (X, Y, Z, U) read over (X, Y, Z, V); the
    packed keys stay the same."""
    if not img.aux:
        return img
    nf = img.raw_lift()
    return SurfaceElement._of(img.spec, Poly._raw(nf.field, ("X", "Y", "Z", "V"), nf.packed))


def _shift_u_by_v(img: SurfaceElement) -> SurfaceElement:
    """phi_(U+V)(g) = g(U + V) = sum_j V^j H_j(g), with H_j the j-th Hasse
    derivative in U; the V-powers keep the pieces' keys apart, so they are
    gathered in one dict."""
    if not img.aux:
        return img
    nf = img.raw_lift().with_vars(("X", "Y", "Z", "U", "V"))
    terms = {}
    for j in range(nf.degree_in("U") + 1):
        terms.update(nf.hasse_derivative("U", j).mul_var_power("V", j).packed)
    return SurfaceElement._of(img.spec, Poly._raw(nf.field, nf.vars, terms))


def apply_map(m: ExpMap, e: SurfaceElement) -> SurfaceElement:
    """phi(e) in A[U], for an element e of A."""
    return _application(m, e)[1]


def _application(m: ExpMap, e: SurfaceElement) -> _Applied:
    """The slot entry (e, phi(e), U-split or None) for e, applying phi when
    the slot holds another element."""
    if m.status is not VerifyStatus.VERIFIED:
        raise PreconditionError("refusing to apply an unverified exponential map")
    if e.aux:
        raise PreconditionError(f"element has auxiliary variables {e.aux}; none allowed")
    last = m._last[0]
    if last is not None and last[0] == e:
        return last
    last = (e, eval_poly_on_elements(e.raw_lift(), m.images(), m.spec), None)
    m._last[0] = last
    return last


def phi_degree(m: ExpMap, e: SurfaceElement):
    """U-degree of phi(e); -inf for e = 0."""
    a = apply_map(m, e)
    if a.is_zero:
        return NEG_INF
    if "U" not in a.aux:
        return 0
    return int(a.raw_lift().degree_in("U"))


def derivation_coeff(m: ExpMap, e: SurfaceElement, i: int) -> SurfaceElement:
    """The coefficient of U**i in phi(e): the i-th member of the associated
    higher derivation, an element of A (zero beyond the U-degree).  Calls
    for D_0(e), D_1(e), ... share one application of phi, split by powers
    of U once and kept in the slot beside the image."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise PreconditionError(f"derivation index must be a nonnegative integer, got {i!r}")
    last = _application(m, e)
    split = last[2]
    if split is None:
        split = _split_by_u(last[1])
        m._last[0] = last[:2] + (split,)
    return split[i] if i in split else m.spec.zero()


def _split_by_u(a: SurfaceElement) -> Dict[int, SurfaceElement]:
    """{i: coefficient of U**i} of an element of A[U], in one pass."""
    if "U" not in a.aux:
        return {} if a.is_zero else {0: a}
    nf = a.raw_lift()
    rest = tuple(v for v in nf.vars if v != "U")
    return {i: SurfaceElement._of(a.spec, c.with_vars(rest))
            for i, c in nf.coefficients_in("U").items()}


def is_invariant(m: ExpMap, e: SurfaceElement) -> bool:
    return apply_map(m, e) == e


def conjugate(m: ExpMap, cert) -> ExpMap:
    """The exponential map T^{-1} o phi o T for an automorphism certificate
    T of the same surface; re-verified before returning."""
    from .isomorph import certificate_images, invert_certificate, verify_iso

    if cert.source != m.spec or cert.target != m.spec:
        raise PreconditionError("conjugation needs an automorphism certificate of this surface")
    if not verify_iso(cert).ok:
        raise PreconditionError("certificate does not verify as an isomorphism")
    fwd = certificate_images(cert)
    bwd = certificate_images(invert_certificate(cert))

    def conj(var: str) -> SurfaceElement:
        # T^{-1}(phi(T(var))): U is not bound, so it passes through
        return eval_poly_on_elements(apply_map(m, fwd[var]).raw_lift(), bwd, m.spec)

    result = ExpMap(m.spec, conj("X"), conj("Z"), conj("Y")).verified()
    if result.status is not VerifyStatus.VERIFIED:
        raise VerificationInternalError(
            f"conjugate of a verified map failed verification: {result.reason}")
    return result
