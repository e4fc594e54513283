"""Stable-isomorphism certificates and the counterexample family generator.

For A = K[X,Y,Z]/(f Y - P) with f = X^n g, n >= 2, and (P, P_Z) = (1), the
partner surface B replaces f by h = X^{n-1} g, and A[v] is a polynomial
ring over a copy of B.  The construction is fully explicit:

    theta = h v + z
    s = x y + Q_h(v)                                         (*)
    a P_Z + b P = 1                                          (Bezout)
    w = (v - s a(x, theta)) / x

where Q_h(v) = (P(x, z + h v) - P(x, z)) / h = sum_{k>=1} e_k h^(k-1) v^k is
the Taylor quotient of the canonical map, taken at (h, v) (``taylor_quotient``;
the e_k are the Hasse derivatives of P in Z, read off its Z-coefficients).

The Bezout solve, one per build or per family (whose links share P), is the
test of (P, P_Z) = (1), and the Res_Z(P, P_Z) it finds explains a refusal.
Over Q every comaximal P is a translate Q(Z + h(X)), solved by one
univariate extended gcd; a non-translate over F_p, or p | deg_Z P, runs one
elimination (``resultant``).  A build asserts Eq (8), h s = P(x, theta),
once; (*) says the same in A, as h x = f and f y = P(x, z).  A certificate
stores h, theta, (a, b) and w.  The verifier derives s from h and P by (*),
with the builder's routine, and re-checks on it every identity the proof
below uses; V1 reads comaximality off the exact identity of V3.  A family
link is checked on its build's s and evaluations.

Those identities prove A[v] = B[w]; nothing is cited.  A[v] and B[w] are
domains, because P is monic in Z.  Write x, y_B, z_B, w for the generators
of B[w], B's relation being h y_B = P(x, z_B); V1b gives x h = f, h != 0.
Psi: B[w] -> A[v] sends x -> x, z_B -> theta, y_B -> s and w -> w; it is
well defined by V2, h s = P(x, theta).  Its inverse sends

    x -> x
    v -> v' = x w + y_B a(x, z_B)
    z -> z' = z_B - h v'
    y -> y' = (y_B + Q_h(-v')(x, z_B)) / x

- y' exists (V3): modulo x, h = 0 as n >= 2, so Q_h(T) = P_Z T and
  v' = y_B a; the numerator is then y_B (1 - a P_Z) = y_B b P(x, z_B)
  = y_B b h y_B = 0.
- Psi^-1 is well defined: f y' = h y_B + P(x, z_B - h v') - P(x, z_B)
  = P(x, z'), by B's relation and the Taylor identity
  h Q_h(T) = P(Z + h T) - P(Z).
- Psi Psi^-1 = id: Psi(v') = x w + s a(x, theta) = v by V4, and
  Psi(z') = theta - h v = z by the theta check.  For y,
  h x Psi(y') = h s + P(x, theta - h v) - P(x, theta) = P(x, z) = h x y
  by V2, and h x != 0.
- Psi^-1 Psi = id: Psi^-1(theta) = h v' + z' = z_B.  Next,
  h Psi^-1(s) = Psi^-1(P(x, theta)) = P(x, z_B) = h y_B by V2, and
  x Psi^-1(w) = Psi^-1(v - s a(x, theta)) = v' - y_B a(x, z_B) = x w by V4.

The canonical map's invariance of theta is x h = f, which V1b states, and
the invertibility of P_Z(0, Z) modulo P(0, Z) is V3 at X = 0, so neither is
checked apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import (ComaximalityError, HypothesisError, PreconditionError,
                     SurfaceConstraintError, VerificationInternalError)
from .expmap import taylor_quotient
from .factor import Factorization, factor_univariate
from .fields import FieldSpec, Scalar
from .isomorph import Fingerprint, fingerprint, set_str
from .poly import NEG_INF, Poly, exact_div
from .reports import Check, VerificationReport
from .resultant import bezout_cofactors, resultant_in
from .surface import (SurfaceElement, SurfaceSpec, divide_by_x, eval_poly_on_elements,
                      make_surface, normal_form)

@dataclass(frozen=True)
class HypothesisReport:
    double_root: Check
    comaximal: Check

    @property
    def ok(self) -> bool:
        return self.double_root.passed and self.comaximal.passed

    def checks(self) -> Tuple[Check, ...]:
        return (self.double_root, self.comaximal)


def check_hypotheses(spec: SurfaceSpec) -> HypothesisReport:
    """n >= 2 (the root 0 of f is at least double; shift first if the double
    root sits elsewhere) and Res_Z(P, P_Z) a nonzero constant."""
    Pz = spec.P.derivative("Z")
    return _hypothesis_report(spec, None if Pz.is_zero else resultant_in(spec.P, Pz, "Z"))


def _hypothesis_report(spec: SurfaceSpec, res) -> HypothesisReport:
    """The hypothesis report, given Res_Z(P, P_Z) (None when P_Z = 0)."""
    double_root = Check(
        "f has a double root at 0", "Thm 5.1 hypothesis", spec.n >= 2,
        f"multiplicity of 0 in f is {spec.n}")
    if res is None:
        comaximal = Check("(P, P_Z) = (1)", "Eq (10)", False, "P_Z = 0")
    else:
        comaximal = Check("(P, P_Z) = (1)", "Eq (10)", not res.is_zero and res.is_constant,
                          f"Res_Z(P, P_Z) = {res}")
    return HypothesisReport(double_root, comaximal)


@dataclass(frozen=True)
class StableIsoCertificate:
    """Everything needed to re-check A[v] = (copy of B)[w]; s = x y + Q_h(v)
    is not stored, as it follows from h and P (``_derived_s``)."""

    spec_a: SurfaceSpec          # f = X^n g, n >= 2
    spec_b: SurfaceSpec          # same P, h = X^{n-1} g
    h: Poly                      # over ("X",)
    theta: SurfaceElement        # h(x) v + z in A[v]
    a: Poly                      # Bezout pair over ("X", "Z")
    b: Poly
    w: SurfaceElement            # (v - s a(x, theta)) / x


def build_stable_iso(spec_a: SurfaceSpec) -> StableIsoCertificate:
    """Run the construction and assert Eq (8) on its own P(x, theta); the
    certificate passes ``verify_stable_iso`` by construction.  The Bezout
    solve is the comaximality test, and a refusal reports the resultant it
    computed.  Raises HypothesisError, carrying the HypothesisReport, when
    n < 2 or (P, P_Z) is proper."""
    if spec_a.n < 2:
        hyp = check_hypotheses(spec_a)
    else:
        try:
            a, b = bezout_cofactors(spec_a.P, spec_a.P.derivative("Z"), "Z")
        except ComaximalityError as exc:
            hyp = _hypothesis_report(spec_a, exc.resultant)
        else:
            cert, s, p_at_theta, _ = _construct(spec_a, a, b)
            if spec_a.from_xz_poly(cert.h.with_vars(("X", "Z"))) * s != p_at_theta:
                raise VerificationInternalError("h s = P(x, theta) (Eq 8) failed")
            return cert
    raise HypothesisError(
        "hypotheses fail: " + "; ".join(c.line() for c in hyp.checks() if not c.passed), hyp)


def _derived_s(spec: SurfaceSpec, h: Poly) -> SurfaceElement:
    """s = x y + Q_h(v) in A[v], from h and P alone (``taylor_quotient``),
    summed as one polynomial: neither term reaches Z-degree d."""
    xyzv = ("X", "Y", "Z", "v")
    q = taylor_quotient(spec.P, h, "v").with_vars(xyzv)
    return normal_form(q + Poly.monomial(spec.field, xyzv, (1, 1, 0, 0)), spec)


def _construct(spec_a: SurfaceSpec, a: Poly, b: Poly) -> Tuple[
        StableIsoCertificate, SurfaceElement, SurfaceElement, SurfaceElement]:
    """The construction of Thm 5.1 for n >= 2, given a P_Z + b P = 1, with s,
    P(x, theta) and s a(x, theta); only w's division by x (Eq 11) is checked."""
    field = spec_a.field
    h = exact_div(spec_a.f, Poly.monomial(field, ("X",), (1,)))
    spec_b = make_surface(field, h, spec_a.P, _min_r=1)

    v_el = spec_a.generator("v")
    h_el = spec_a.from_xz_poly(h.with_vars(("X", "Z")))
    theta = h_el * v_el + spec_a.z()

    s = _derived_s(spec_a, h)
    p_at_theta = eval_poly_on_elements(spec_a.P, {"Z": theta}, spec_a)
    sa = s * eval_poly_on_elements(a, {"Z": theta}, spec_a)
    w = divide_by_x(v_el - sa)
    if w is None:
        raise VerificationInternalError("v - s a(x, theta) not divisible by x (Eq 11)")

    return StableIsoCertificate(spec_a, spec_b, h, theta, a, b, w), s, p_at_theta, sa


def verify_stable_iso(cert: StableIsoCertificate) -> VerificationReport:
    """Re-check V1, V1b, theta and V2..V4 from the stored data alone, with s
    derived from h and P (nothing is read from the builder's state)."""
    spec = cert.spec_a
    s = _derived_s(spec, cert.h)
    return _stable_report(cert, s, eval_poly_on_elements(spec.P, {"Z": cert.theta}, spec),
                          s * eval_poly_on_elements(cert.a, {"Z": cert.theta}, spec))


def _stable_report(cert: StableIsoCertificate, s: SurfaceElement, p_at_theta: SurfaceElement,
                   sa: SurfaceElement) -> VerificationReport:
    """The checks of ``verify_stable_iso``, with V2 and V4 read off s,
    P(x, theta) and s a(x, theta)."""
    spec = cert.spec_a
    field = spec.field
    checks: List[Check] = []

    # V1: the exact identity of V3 proves (P, P_Z) = (1); nothing is eliminated
    v3 = cert.a * spec.P.derivative("Z") + cert.b * spec.P == Poly.one(field, ("X", "Z"))
    checks.append(Check("V1 hypotheses (double root, comaximality)",
                        "Thm 5.1 hypothesis", spec.n >= 2 and v3,
                        f"multiplicity of 0 in f is {spec.n}; "
                        f"(P, P_Z) = (1): {'True' if v3 else 'not deduced (V3 failed)'}"))

    h_ok = (cert.h == exact_div(spec.f, Poly.monomial(field, ("X",), (1,)))
            and cert.spec_b.P == spec.P and cert.spec_b.f == cert.h)
    checks.append(Check("V1b partner surface uses h = f/X and the same P",
                        "Thm 5.1 setup", h_ok))

    v_el = spec.generator("v")
    h_el = spec.from_xz_poly(cert.h.with_vars(("X", "Z")))
    theta_ok = cert.theta == h_el * v_el + spec.z()
    checks.append(Check("theta = h(x) v + z", "Thm 5.1 setup", theta_ok))

    v2 = h_el * s == p_at_theta
    checks.append(Check("V2 h(x) s = P(x, theta)", "Eq (8)", v2,
                        "" if v2 else f"difference {h_el * s - p_at_theta}"))

    checks.append(Check("V3 a P_Z + b P = 1", "Eq (10)", v3))

    v4 = spec.x() * cert.w == v_el - sa
    checks.append(Check("V4 x w = v - s a(x, theta)", "Eq (11)", v4))

    return VerificationReport(
        "stable-isomorphism certificate", tuple(checks),
        notes=("A[v] = E[w] with E a copy of B: Psi and its explicit inverse are well "
               "defined and mutually inverse by V1, V1b, theta, V2, V3 and V4 "
               "(proof in the cancel module docstring)",))


# ---------------------------------------------------------------------------
# the counterexample family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    upper: SurfaceSpec           # A_n
    lower: SurfaceSpec           # A_{n-1} -- the partner surface of the certificate
    certificate: StableIsoCertificate
    report: VerificationReport


@dataclass(frozen=True)
class FamilyReport:
    surfaces: Tuple[SurfaceSpec, ...]
    fingerprints: Tuple[Fingerprint, ...]
    nonisomorphic: Tuple[Tuple[int, int, str], ...]   # (i, j, verdict detail)
    chain: Tuple[ChainLink, ...]

    @property
    def ok(self) -> bool:
        return all(link.report.ok for link in self.chain) and all(
            "differ" in d for _, _, d in self.nonisomorphic)


def sigma_family(field: FieldSpec, g: Poly, P: Poly, n_from: int, n_to: int) -> FamilyReport:
    """Surfaces A_n = K[X,Y,Z]/(X^n g Y - P) for n in [n_from, n_to]:
    pairwise non-isomorphic by fingerprint, stably isomorphic along the
    chain A_n ~ A_{n-1}, every link built from one Bezout pair of P."""
    if n_from < 2 or n_to < n_from:
        raise PreconditionError("need 2 <= n_from <= n_to")
    g = g.with_vars(("X",))
    dg = g.degree_in("X")
    if dg is NEG_INF:
        raise SurfaceConstraintError("g must be nonzero")
    if g.coefficient((int(dg),)) != 1:
        raise SurfaceConstraintError("g must be monic so that X^n g is monic")
    if g.evaluate({"X": Scalar(field, 0)}) == 0:
        raise SurfaceConstraintError("g(0) = 0: the multiplicity of 0 would exceed n")
    fac = factor_univariate(g) if dg > 0 else Factorization(Scalar(field, 1), ())
    if not fac.is_squarefree():
        raise SurfaceConstraintError(f"g has a repeated factor: {fac}")
    surfaces = [make_surface(field, Poly.monomial(field, ("X",), (n,)) * g, P)
                for n in range(n_from, n_to + 1)]
    a, b = bezout_cofactors(surfaces[0].P, surfaces[0].P.derivative("Z"), "Z")
    # g is squarefree with g(0) != 0, so X does not divide it: X^n g factors
    # as X^n times g's factors, and g is factored once for every member
    x = Poly.variable(field, ("X",), "X")
    prints = [fingerprint(s, Factorization(fac.lead, ((x, s.n),) + fac.factors))
              for s in surfaces]
    verdicts = []
    for i in range(len(surfaces)):
        for j in range(i + 1, len(surfaces)):
            mi, mj = prints[i].multiplicities, prints[j].multiplicities
            if mi != mj:
                verdict = (f"multiplicity multisets {set_str(mi)} vs {set_str(mj)} "
                           f"differ [Thm 4.1(ii)]")
            else:
                verdict = "fingerprints agree; no refutation"
            verdicts.append((i, j, verdict))

    chain = []
    for idx in range(len(surfaces) - 1, 0, -1):
        upper = surfaces[idx]
        cert, s, p_at_theta, sa = _construct(upper, a, b)
        if cert.spec_b != surfaces[idx - 1]:
            raise VerificationInternalError(
                "chain partner surface is not the next family member")
        report = _stable_report(cert, s, p_at_theta, sa)
        if not report.ok:
            raise VerificationInternalError(
                "chain certificate failed verification: "
                + "; ".join(c.line() for c in report.failures()))
        chain.append(ChainLink(upper, surfaces[idx - 1], cert, report))
    return FamilyReport(tuple(surfaces), tuple(prints), tuple(verdicts), tuple(chain))
