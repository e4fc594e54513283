"""Exponential maps A -> A[U] as verifiable objects.

A map is stored through its generator images (elements of A[U]); applying
it is substitution plus renormalization, and well-definedness is exactly
the check that the defining relation maps to zero.  Verification runs
three exact symbolic checks:

    (W)  f(phi x) * phi y - P(phi x, phi z) = 0 in A[U]
    (A1) setting U = 0 returns x, z, y
    (A2) phi_V(phi_U(g)) = phi_{U+V}(g) in A[U,V] for each generator g

The canonical map fixes x, sends z to z + f(x) U, and sends y to the exact
quotient that the relation forces.

A map keeps its last application (element, mode, image) in one private
slot, so the higher derivation D_0(e), D_1(e), ... is read off a single
phi(e), as in the paper.  Like the surface's reduction cache it is a
deterministic memo: the image is immutable, the slot is replaced in one
assignment, and copies made by ``replace`` start empty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field, replace
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionError, SurfaceConstraintError, VerificationInternalError
from .poly import NEG_INF, Poly, exact_div, substitute
from .reports import Check, VerificationReport
from .surface import SurfaceElement, SurfaceSpec, aux_coefficient, eval_poly_on_elements


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
    # [(element, extended, image)] of the last apply_map call, or [None]
    _last: List[Optional[Tuple[SurfaceElement, bool, SurfaceElement]]] = dc_field(
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
        if marked.is_nontrivial and not is_invariant(marked, marked.spec.x()):
            raise VerificationInternalError(
                "verified nontrivial exponential map does not fix x")
        return marked

    def __str__(self):
        return (f"x -> {self.image_x}, z -> {self.image_z}, y -> {self.image_y}"
                f" [{self.status.value}]")


def canonical_expmap(spec: SurfaceSpec) -> ExpMap:
    """The exponential map x -> x, z -> z + f(x) U, y -> y + (P(x, z + f U)
    - P(x, z)) / f; verified before returning."""
    field = spec.field
    vars3 = ("X", "Z", "U")
    f3 = spec.f.with_vars(vars3)
    P3 = spec.P.with_vars(vars3)
    z3 = Poly.variable(field, vars3, "Z")
    u3 = Poly.variable(field, vars3, "U")
    z_shift = z3 + f3 * u3
    quotient = exact_div(substitute(P3, {"Z": z_shift}, vars_out=vars3) - P3, f3)
    if quotient is None:
        raise VerificationInternalError("P(x, z + fU) - P(x, z) not divisible by f")
    image_y = spec.y() + spec.from_xz_poly(quotient)
    m = ExpMap(spec, spec.x(), spec.from_xz_poly(z_shift), image_y).verified()
    if m.status is not VerifyStatus.VERIFIED:
        raise VerificationInternalError(f"canonical map failed verification: {m.reason}")
    return m


def verify_expmap(m: ExpMap) -> VerificationReport:
    """Run the three defining checks, symbolically and exactly."""
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
        at0 = eval_poly_on_elements(img.raw_lift(), {"U": spec.zero()}, spec)
        want = spec.generator(name)
        checks.append(Check(
            f"evaluation at U=0 returns {name}", "Def 2.1(i)",
            at0 == want, "" if at0 == want else f"got {at0}"))

    # (A2) the cocycle law in A[U,V]
    v_el = spec.generator("V")
    images_v = {var: eval_poly_on_elements(img.raw_lift(), {"U": v_el}, spec)
                for var, img in m.images().items()}
    u_plus_v = {"U": spec.generator("U") + v_el}
    for var, img in m.images().items():
        name = var.lower()
        lhs = eval_poly_on_elements(img.raw_lift(), images_v, spec)
        rhs = eval_poly_on_elements(img.raw_lift(), u_plus_v, spec)
        ok = lhs == rhs
        checks.append(Check(
            f"cocycle law on {name}: phi_V(phi_U({name})) = phi_(U+V)({name})",
            "Def 2.1(ii)", ok, "" if ok else f"difference {lhs - rhs}"))

    return VerificationReport("exponential map", tuple(checks))


def apply_map(m: ExpMap, e: SurfaceElement, extended: bool = False) -> SurfaceElement:
    """phi(e) in A[U]; with ``extended`` the map also sends the adjoined
    variable v to v - x U (the A[v] extension used by the stable-isomorphism
    construction)."""
    if m.status is not VerifyStatus.VERIFIED:
        raise PreconditionError("refusing to apply an unverified exponential map")
    allowed = ("v",) if extended else ()
    if any(a not in allowed for a in e.aux):
        raise PreconditionError(
            f"element has auxiliary variables {e.aux}; "
            + ("only v is allowed in extended mode" if extended else "none allowed"))
    last = m._last[0]
    if last is not None and last[1] == extended and last[0] == e:
        return last[2]
    images = m.images()
    if extended:
        spec = m.spec
        images["v"] = spec.generator("v") - spec.x() * spec.generator("U")
    image = eval_poly_on_elements(e.raw_lift(), images, m.spec)
    m._last[0] = (e, extended, image)
    return image


def phi_degree(m: ExpMap, e: SurfaceElement, extended: bool = False):
    """U-degree of phi(e); -inf for e = 0."""
    a = apply_map(m, e, extended=extended)
    if a.is_zero:
        return NEG_INF
    if "U" not in a.aux:
        return 0
    return int(a.raw_lift().degree_in("U"))


def derivation_coeff(m: ExpMap, e: SurfaceElement, i: int) -> SurfaceElement:
    """The coefficient of U**i in phi(e): the i-th member of the associated
    higher derivation, an element of A (zero beyond the U-degree).  Calls
    for D_0(e), D_1(e), ... share one application of phi."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise PreconditionError(f"derivation index must be a nonnegative integer, got {i!r}")
    return aux_coefficient(apply_map(m, e), "U", i)


def is_invariant(m: ExpMap, e: SurfaceElement, extended: bool = False) -> bool:
    return apply_map(m, e, extended=extended) == e


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
