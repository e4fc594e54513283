"""Complete K-isomorphism decision between two surfaces, with certificates.

Any isomorphism T: A_1 -> A_2 acts on generators as

    T(x_1) = lam x_2 + mu,   T(z_1) = gam z_2 + delta(x_2),
    T(y_1) = u^{-1} gam^d y_2 + u^{-1} theta(x_2, z_2),      u = lam^r,

and the data is admissible exactly when the two polynomial identities

    (III)  f_1(lam X + mu) = u f_2(X)
    (vi)   P_1(lam x + mu, gam z + delta) = gam^d P_2 + f_2 theta

hold.  The solver finds all (lam, mu) from (III) -- linearly eliminating mu
when the characteristic does not divide r, exhaustively otherwise -- then
all (gam, delta) from (vi) -- eliminating delta through the z^(d-1)
coefficient when the characteristic p does not divide d, otherwise by
lifting delta modulo each prime-power factor of f_2 one power at a time and
combining the residues by CRT (``_DeltaLifting``).  One search cap bounds
the candidates a decision examines: the (lam, mu) pairs of the first
exhaustive branch plus the delta residues of the lifting.  When an
elimination leaves lam or gam free over F_p, its p - 1 values are refused
before they are listed if they pass the cap.  Every
certificate it emits is re-verified first.  delta is stored as the
canonical representative of degree < r; any lift delta + f_2 * e also
yields an isomorphism and is not enumerated.

Obstructions carry the structural invariant they violate, so refutations
are citable.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import (FieldMismatchError, InfiniteFamilyError, PreconditionError,
                     SearchCapExceededError, VerificationInternalError)
from .factor import (Factorization, _add, _divmod, _mul, _norm, _xgcd, dense_to_poly,
                     factor_univariate, gcd_univariate, poly_to_dense, roots_in_field)
from .fields import FieldKind, Scalar
from .poly import NEG_INF, Poly, divmod_in, substitute
from .reports import Check, VerificationReport
from .surface import SurfaceElement, SurfaceSpec, eval_poly_on_elements

DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class IsoCertificate:
    """The data of an isomorphism source -> target; independently
    re-verifiable through ``verify_iso``."""

    source: SurfaceSpec
    target: SurfaceSpec
    lam: Scalar
    mu: Scalar
    gamma: Scalar
    delta: Poly            # over ("X",), canonical representative, deg < r
    u: Scalar              # = lam ** r, stored redundantly
    theta_rem: Poly        # over ("X", "Z"), deg_Z <= d-1

    def __post_init__(self):
        if self.source.field != self.target.field:
            raise FieldMismatchError("certificate endpoints over different fields")
        if not self.lam or not self.gamma or not self.u:
            raise ValueError("lambda, gamma, u must be nonzero")
        object.__setattr__(self, "delta", self.delta.with_vars(("X",)))
        object.__setattr__(self, "theta_rem", self.theta_rem.with_vars(("X", "Z")))
        dd = self.delta.degree_in("X")
        if dd is not NEG_INF and dd >= self.target.r:
            raise ValueError(f"delta has degree {dd}, expected < r = {self.target.r}")
        dz = self.theta_rem.degree_in("Z")
        if dz is not NEG_INF and dz > self.target.d - 1:
            raise ValueError(f"theta has Z-degree {dz} > d-1")

    def sort_key(self):
        return (self.lam.sort_key(), self.mu.sort_key(), self.gamma.sort_key(),
                self.delta.sort_key(), self.theta_rem.sort_key())

    def tuple_key(self):
        """Hashable identity (lam, mu, gamma, delta) -- theta and u are
        determined by these."""
        return (self.lam.sort_key(), self.mu.sort_key(), self.gamma.sort_key(),
                self.delta.sort_key())

    def is_identity(self) -> bool:
        return (self.source == self.target and self.lam == 1 and self.mu == 0
                and self.gamma == 1 and self.delta.is_zero)

    def __str__(self):
        return (f"T(x) = {self.lam}*x + {self.mu}, "
                f"T(z) = {self.gamma}*z + {self.delta}, "
                f"u = {self.u}, theta = {self.theta_rem}")


class ObstructionKind(enum.Enum):
    Z_DEGREE_MISMATCH = ("ZDegreeMismatch", "Thm 4.1(iv)")
    F_DEGREE_MISMATCH = ("FDegreeMismatch", "Thm 4.1(iii)/(i)")
    MULTIPLICITY_MULTISET_MISMATCH = ("MultiplicityMultisetMismatch", "Thm 4.1(ii)")
    NO_AFFINE_MATCH = ("NoAffineMatch", "Thm 4.1(i)+(iii)")
    NO_GAMMA_DELTA = ("NoGammaDelta", "Thm 4.1(vi)")

    @property
    def label(self) -> str:
        return self.value[0]

    @property
    def tag(self) -> str:
        return self.value[1]


@dataclass(frozen=True)
class Obstruction:
    kind: ObstructionKind
    detail: str

    def __str__(self):
        return f"{self.kind.label} [{self.kind.tag}]: {self.detail}"


DecisionResult = Union[List[IsoCertificate], Obstruction]


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants: unequal fingerprints certify non-isomorphism."""

    d: int
    r: int
    multiplicities: Tuple[int, ...]
    degrees: Tuple[int, ...]


def fingerprint(spec: SurfaceSpec, factors: Optional[Factorization] = None) -> Fingerprint:
    """The invariants, read off ``factors`` (the factorization of f) when
    the caller already has it."""
    fac = factor_univariate(spec.f) if factors is None else factors
    return Fingerprint(spec.d, spec.r,
                       fac.multiplicity_multiset(), fac.degree_multiset())


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _affine_x(p: Poly, lam: Scalar, mu: Scalar) -> Poly:
    """p(lam X + mu) for p in K[X]."""
    x = Poly.variable(p.field, ("X",), "X")
    return substitute(p, {"X": x.scaled(lam) + Poly.const(p.field, ("X",), mu)},
                      vars_out=("X",))


def _f_transport_holds(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar) -> bool:
    return _affine_x(s1.f, lam, mu) == s2.f.scaled(lam ** s1.r)


def _roots_or_all(g: Optional[Poly], field, cap: int) -> Tuple[List[Scalar], bool]:
    """Nonzero roots of g; g identically zero means every field element is a
    root (finite only over F_p, and refused past the cap before listing --
    the bool flags the char-0 free case)."""
    if g is None or g.is_zero:
        if field.kind is FieldKind.PRIME:
            if field.modulus - 1 > cap:
                raise SearchCapExceededError(field.modulus - 1, cap)
            return [Scalar(field, c) for c in range(1, field.modulus)], False
        return [], True
    return [s for s in dict.fromkeys(roots_in_field(g)) if s], False


def _affine_candidates(s1: SurfaceSpec, s2: SurfaceSpec, cap: int):
    """All (lam, mu) with f_1(lam X + mu) = lam^r f_2(X).

    Returns (pairs, lambda_free, examined); lambda_free marks the char-0
    case where every lam works (positive-dimensional family), and examined
    counts the (lam, mu) pairs tried when the characteristic divides r."""
    field = s1.field
    r = s1.r
    p = field.characteristic()
    if p and r % p == 0:
        count = (p - 1) * p
        if count > cap:
            raise SearchCapExceededError(count, cap)
        pairs = []
        for lam_raw in range(1, p):
            for mu_raw in range(p):
                lam, mu = Scalar(field, lam_raw), Scalar(field, mu_raw)
                if _f_transport_holds(s1, s2, lam, mu):
                    pairs.append((lam, mu))
        return pairs, False, count
    # characteristic does not divide r: mu = (lam b_{r-1} - a_{r-1}) / r
    vars2 = ("X", "LAM")
    lam_var = Poly.variable(field, vars2, "LAM")
    a_top = s1.f.coefficient((r - 1,))
    b_top = s2.f.coefficient((r - 1,))
    r_inv = Scalar(field, field.inv(field.coerce(r)))
    mu_of_lam = (lam_var.scaled(b_top) - Poly.const(field, vars2, a_top)).scaled(r_inv)
    x_var = Poly.variable(field, vars2, "X")
    composed = substitute(s1.f.with_vars(("X",)),
                          {"X": x_var * lam_var + mu_of_lam}, vars_out=vars2)
    defect = composed - s2.f.with_vars(vars2) * lam_var ** r
    equations = [c.with_vars(("LAM",)) for c in defect.coefficients_in("X").values()]
    g: Optional[Poly] = None
    for eq in equations:
        g = eq if g is None else gcd_univariate(g, eq)
    lams, lambda_free = _roots_or_all(g, field, cap)
    if lambda_free:
        lams = [Scalar(field, 1)]
    pairs = []
    for lam in lams:
        mu = mu_of_lam.evaluate({"X": Scalar(field, 0), "LAM": lam})
        if _f_transport_holds(s1, s2, lam, mu):
            pairs.append((lam, mu))
    return pairs, lambda_free, 0


def _congruence_split(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
                      gamma: Scalar, delta: Poly) -> Tuple[Poly, Poly]:
    """theta, remainder with P_1(lam x + mu, gam z + delta) - gam^d P_2
    = theta * f_2 + remainder (remainder reduced mod f_2 in X)."""
    field = s1.field
    vars2 = ("X", "Z")
    x = Poly.variable(field, vars2, "X")
    z = Poly.variable(field, vars2, "Z")
    xb = x.scaled(lam) + Poly.const(field, vars2, mu)
    zb = z.scaled(gamma) + delta.with_vars(vars2)
    lhs = substitute(s1.P, {"X": xb, "Z": zb}, vars_out=vars2)
    defect = lhs - s2.P.scaled(gamma ** s1.d)
    return divmod_in(defect, s2.f.with_vars(vars2), "X")


class _DeltaLifting:
    """The (gamma, delta) search of one decision when char K = p divides d.

    Congruence (vi) reads D(X, Z, delta) = 0 mod f_2, where
    D(X, Z, T) = P_1(lam X + mu, gam Z + T) - gam^d P_2.  It holds exactly
    when it holds modulo every prime-power factor q^m of f_2, and
    D(X, Z, delta) mod q^j depends only on delta mod q^j.  So each factor is
    solved by lifting: a survivor s mod q^(j-1) gives the p^(deg q)
    candidates s + t q^(j-1), deg t < deg q, and a candidate survives when
    every Z-coefficient of D(X, Z, delta) vanishes mod q^j.  The survivors
    mod the q_i^(m_i) combine by CRT into every delta mod f_2 of degree < r.

    Plain enumeration examines p^(m deg q) candidates for a factor q^m;
    lifting examines sum_{j=1..m} |S_(j-1)| p^(deg q), where S_(j-1) is the
    set of survivors mod q^(j-1).  That is usually far fewer, and under
    2 p^(m deg q) even when every candidate survives.

    One count of candidates examined covers the decision: it starts at
    ``examined`` (the (lam, mu) pairs already tried) and grows over every
    (lam, mu, gam) and every level.  A level that would take it past the cap
    raises SearchCapExceededError before any of its candidates is examined.
    Each of the ``runs`` (lam, mu, gam) examines at least the first level of
    the first factor, so when those alone pass the cap the search is refused
    at once.
    """

    def __init__(self, f2: Poly, factors: Tuple[Tuple[Poly, int], ...], cap: int,
                 examined: int, runs: int):
        p = f2.field.modulus
        self.p = p
        self.cap = cap
        self.examined = examined
        f = self.f = poly_to_dense(f2, "X")
        self.factors = []       # (q, m, CRT idempotent: 1 mod q^m, 0 mod f_2 / q^m)
        for q_poly, m in factors:
            q = poly_to_dense(q_poly, "X")
            block = [1]
            for _ in range(m):
                block = _mul(block, q, p)
            cofactor = _divmod(f, block, p)[0]
            inverse = _xgcd(cofactor, block, p)[1]
            self.factors.append((q, m, _divmod(_mul(cofactor, inverse, p), f, p)[1]))
        least = examined + runs * p ** (len(self.factors[0][0]) - 1)
        if least > cap:
            raise SearchCapExceededError(least, cap)

    def deltas(self, table: Dict[int, List[list]]) -> List[list]:
        """Every delta mod f_2 (dense, degree < r) with D(X, Z, delta) = 0
        mod f_2; ``table[j][k]`` is the X-coefficient list of Z^j T^k in D."""
        p = self.p
        parts = []
        for q, m, idempotent in self.factors:
            residues = self._lift(table, q, m)
            if not residues:
                return []
            parts.append([_mul(s, idempotent, p) for s in residues])
        out = []
        for combo in itertools.product(*parts):
            delta = []
            for piece in combo:
                delta = _add(delta, piece, p)
            out.append(_divmod(delta, self.f, p)[1])
        return out

    def _lift(self, table, q, m) -> List[list]:
        """Every residue of delta mod q^m that solves D = 0 mod q^m."""
        p = self.p
        survivors: List[list] = [[]]
        below = [1]                       # q^(j-1)
        for _ in range(m):
            needed = self.examined + len(survivors) * p ** (len(q) - 1)
            if needed > self.cap:
                raise SearchCapExceededError(needed, self.cap)
            self.examined = needed
            modulus = _mul(below, q, p)   # q^j
            rows = [[_divmod(c, modulus, p)[1] for c in row] for row in table.values()]
            survivors = [cand for s in survivors
                         for cand in (_add(s, t, p) for t in _shifts(below, len(q) - 1, p))
                         if _vanishes(rows, cand, modulus, p)]
            if not survivors:
                break
            below = modulus
        return survivors


def _shifts(below, k, p):
    """Every t * ``below`` with deg t < k, one at a time."""
    for t in itertools.product(range(p), repeat=k):
        yield _mul(_norm(list(t), p), below, p)


def _vanishes(rows, delta, modulus, p) -> bool:
    """Whether sum_k row[k] delta^k = 0 mod ``modulus`` for every row, by
    Horner's rule; stops at the first row that does not vanish."""
    for row in rows:
        acc = []
        for c in reversed(row):
            acc = _divmod(_add(_mul(acc, delta, p), c, p), modulus, p)[1]
        if acc:
            return False
    return True


def _defect_table(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
                  gamma: Scalar) -> Dict[int, List[list]]:
    """D(X, Z, T) = P_1(lam X + mu, gam Z + T) - gam^d P_2 from one
    substitution, as {j: [X-coefficient list of Z^j T^k for k = 0, 1, ...]}."""
    field = s1.field
    vars3 = ("X", "Z", "T")
    x = Poly.variable(field, vars3, "X")
    z = Poly.variable(field, vars3, "Z")
    t = Poly.variable(field, vars3, "T")
    lhs = substitute(s1.P, {"X": x.scaled(lam) + Poly.const(field, vars3, mu),
                            "Z": z.scaled(gamma) + t}, vars_out=vars3)
    defect = lhs - s2.P.with_vars(vars3).scaled(gamma ** s1.d)
    dense: Dict[int, Dict[int, list]] = {}
    for (i, j, k), c in defect.terms.items():
        row = dense.setdefault(j, {})
        coeffs = row.setdefault(k, [])
        coeffs.extend([0] * (i + 1 - len(coeffs)))
        coeffs[i] = c
    return {j: [row.get(k, []) for k in range(max(row) + 1)]
            for j, row in sorted(dense.items())}


def _gamma_delta_solutions(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
                           lifting: Optional[_DeltaLifting], cap: int):
    """All (gamma, delta, theta) with the congruence (vi); returns
    (solutions, gamma_free) where gamma_free marks the char-0 infinite case.
    theta is the quotient of the congruence when the check that admitted the
    solution computed it, else None.  ``lifting`` carries the search when the
    characteristic divides d, else it is None."""
    field = s1.field
    d = s1.d
    if lifting is not None:
        sols = []
        for gam_raw in range(1, field.modulus):
            gamma = Scalar(field, gam_raw)
            for delta in lifting.deltas(_defect_table(s1, s2, lam, mu, gamma)):
                sols.append((gamma, dense_to_poly(delta, field, ("X",), "X"), None))
        return sols, False
    # characteristic does not divide d: compare z^(d-1) coefficients,
    # delta = d^{-1} (gamma c2_{d-1}(X) - c1_{d-1}(lam X + mu)) mod f_2
    d_inv = Scalar(field, field.inv(field.coerce(d)))
    c1 = s1.P.coeff_in("Z", d - 1).with_vars(("X",))
    c2 = s2.P.coeff_in("Z", d - 1).with_vars(("X",))
    c1_shift = _affine_x(c1, lam, mu)
    delta0 = divmod_in((-c1_shift).scaled(d_inv), s2.f, "X")[1]
    delta1 = divmod_in(c2.scaled(d_inv), s2.f, "X")[1]
    vars3 = ("X", "Z", "GAM")
    gam_var = Poly.variable(field, vars3, "GAM")
    x3 = Poly.variable(field, vars3, "X")
    z3 = Poly.variable(field, vars3, "Z")
    xb = x3.scaled(lam) + Poly.const(field, vars3, mu)
    zb = z3 * gam_var + delta0.with_vars(vars3) + delta1.with_vars(vars3) * gam_var
    lhs = substitute(s1.P.with_vars(("X", "Z")), {"X": xb, "Z": zb}, vars_out=vars3)
    defect = lhs - s2.P.with_vars(vars3) * gam_var ** d
    _, rem = divmod_in(defect, s2.f.with_vars(vars3), "X")
    equations: List[Poly] = []
    for zc in rem.coefficients_in("Z").values():
        for xc in zc.coefficients_in("X").values():
            equations.append(xc.with_vars(("GAM",)))
    g: Optional[Poly] = None
    for eq in equations:
        g = eq if g is None else gcd_univariate(g, eq)
    gammas, gamma_free = _roots_or_all(g, field, cap)
    if gamma_free:
        gammas = [Scalar(field, 1)]
    sols = []
    for gamma in gammas:
        delta = delta0 + delta1.scaled(gamma)
        theta, check_rem = _congruence_split(s1, s2, lam, mu, gamma, delta)
        if check_rem.is_zero:
            sols.append((gamma, delta, theta))
    return sols, gamma_free


def _assemble(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
              gamma: Scalar, delta: Poly, theta: Optional[Poly] = None) -> IsoCertificate:
    """The certificate of a solution, re-verified by ``verify_iso``; theta
    is computed from the congruence unless the solver already has it."""
    if theta is None:
        theta, rem = _congruence_split(s1, s2, lam, mu, gamma, delta)
        if not rem.is_zero:
            raise VerificationInternalError("assembling a certificate from a non-solution")
    cert = IsoCertificate(s1, s2, lam, mu, gamma, delta, lam ** s1.r, theta)
    report = verify_iso(cert)
    if not report.ok:
        raise VerificationInternalError(
            "solver emitted a certificate that fails verification: "
            + "; ".join(c.line() for c in report.failures()))
    return cert


def decide_isomorphism(s1: SurfaceSpec, s2: SurfaceSpec,
                       cap: int = DEFAULT_CAP) -> DecisionResult:
    """Every isomorphism certificate (up to the canonical delta
    representative), or a citable obstruction.

    Raises InfiniteFamilyError when, over Q, the certificate set is a
    positive-dimensional family (then ``representative`` carries the
    certificates found along the slice lambda = 1 or gamma = 1)."""
    if s1.field != s2.field:
        raise FieldMismatchError(
            f"surfaces over different fields: {s1.field.tag()} vs {s2.field.tag()}")
    if s1.r < 2 or s2.r < 2 or s1.d < 2 or s2.d < 2:
        raise PreconditionError("the decision procedure needs r >= 2 and d >= 2")
    if s1.d != s2.d:
        return Obstruction(ObstructionKind.Z_DEGREE_MISMATCH,
                           f"deg_Z P: {s1.d} vs {s2.d}")
    if s1.r != s2.r:
        return Obstruction(ObstructionKind.F_DEGREE_MISMATCH,
                           f"deg f: {s1.r} vs {s2.r}")
    fac2 = factor_univariate(s2.f)
    fp1, fp2 = fingerprint(s1), fingerprint(s2, fac2)
    if fp1.multiplicities != fp2.multiplicities:
        return Obstruction(
            ObstructionKind.MULTIPLICITY_MULTISET_MISMATCH,
            f"multiplicity multisets {set_str(fp1.multiplicities)} vs "
            f"{set_str(fp2.multiplicities)}")
    pairs, lambda_free, examined = _affine_candidates(s1, s2, cap)
    if not pairs and not lambda_free:
        extra = ""
        if fp1.degrees != fp2.degrees:
            extra = (f"; irreducible-factor degree multisets differ: "
                     f"{set_str(fp1.degrees)} vs {set_str(fp2.degrees)}")
        return Obstruction(ObstructionKind.NO_AFFINE_MATCH,
                           "no (lambda, mu) transports f_1 onto f_2" + extra)
    p = s1.field.characteristic()
    lifting = None
    if p and s1.d % p == 0:
        lifting = _DeltaLifting(s2.f, fac2.factors, cap, examined, len(pairs) * (p - 1))
    certs: List[IsoCertificate] = []
    gamma_free = False
    for lam, mu in pairs:
        sols, free = _gamma_delta_solutions(s1, s2, lam, mu, lifting, cap)
        gamma_free = gamma_free or free
        for gamma, delta, theta in sols:
            certs.append(_assemble(s1, s2, lam, mu, gamma, delta, theta))
    certs.sort(key=IsoCertificate.sort_key)
    if lambda_free or gamma_free:
        free_params = "+".join(name for name, flag in
                               (("lambda", lambda_free), ("gamma", gamma_free)) if flag)
        raise InfiniteFamilyError(free_params, representative=certs)
    if not certs:
        return Obstruction(ObstructionKind.NO_GAMMA_DELTA,
                           "affine matches exist but none extends to (gamma, delta)")
    return certs


def set_str(values: Tuple[int, ...]) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


# ---------------------------------------------------------------------------
# verification and certificate algebra
# ---------------------------------------------------------------------------


def verify_iso(cert: IsoCertificate) -> VerificationReport:
    """Independent re-check of a certificate; passing implies the encoded
    map is an isomorphism."""
    s1, s2 = cert.source, cert.target
    checks = []
    ok_d = s1.d == s2.d
    checks.append(Check("z-degrees agree", "Thm 4.1(iv)", ok_d,
                        "" if ok_d else f"{s1.d} vs {s2.d}"))
    ok_units = bool(cert.lam) and bool(cert.gamma) and bool(cert.u)
    checks.append(Check("units lambda, gamma, u nonzero", "Thm 4.1(i)", ok_units))
    composed = _affine_x(s1.f, cert.lam, cert.mu)
    rhs = s2.f.scaled(cert.u)
    ok_f = composed == rhs and cert.u == cert.lam ** s1.r
    checks.append(Check("f-transport: f1(lam X + mu) = u f2(X), u = lam^r",
                        "Thm 4.2(III)", ok_f,
                        "" if ok_f else f"lhs {composed} vs rhs {rhs}"))
    vars2 = ("X", "Z")
    xb = Poly.variable(s1.field, vars2, "X").scaled(cert.lam) + Poly.const(
        s1.field, vars2, cert.mu)
    zb = Poly.variable(s1.field, vars2, "Z").scaled(cert.gamma) + cert.delta.with_vars(vars2)
    lhs = substitute(s1.P, {"X": xb, "Z": zb}, vars_out=vars2)
    rhs = (s2.P.scaled(cert.gamma ** s2.d)
           + s2.f.with_vars(vars2) * cert.theta_rem.with_vars(vars2))
    ok_p = lhs == rhs
    checks.append(Check(
        "P-transport: P1(lam x + mu, gam z + delta) = gam^d P2 + f2 theta",
        "Thm 4.1(vi)", ok_p, "" if ok_p else f"difference {lhs - rhs}"))
    return VerificationReport("isomorphism certificate", tuple(checks),
                              notes=("passing checks imply T is an isomorphism "
                                     "by Thm 4.2 (III) => (I)",))


def certificate_images(cert: IsoCertificate) -> Dict[str, SurfaceElement]:
    """The generator images of the encoded map, as elements of the target,
    keyed by the variable they replace."""
    t = cert.target
    u_inv = cert.u.inverse()
    gd = cert.gamma ** t.d
    theta_el = t.from_xz_poly(cert.theta_rem)
    return {
        "X": t.x().scaled(cert.lam) + t.from_scalar(cert.mu),
        "Z": t.z().scaled(cert.gamma) + t.from_xz_poly(cert.delta.with_vars(("X", "Z"))),
        "Y": t.y().scaled(u_inv * gd) + theta_el.scaled(u_inv),
    }


def apply_certificate(cert: IsoCertificate, e: SurfaceElement) -> SurfaceElement:
    """Push an element of the source through the encoded map."""
    if e.spec != cert.source:
        raise PreconditionError("element does not live on the certificate source")
    if e.aux:
        raise PreconditionError("apply_certificate takes elements of A only")
    return eval_poly_on_elements(e.raw_lift(), certificate_images(cert), cert.target)


def invert_certificate(cert: IsoCertificate) -> IsoCertificate:
    """Certificate of T^{-1}; rebuilt from the inverse data and re-verified."""
    lam_i = cert.lam.inverse()
    mu_i = -(lam_i * cert.mu)
    gam_i = cert.gamma.inverse()
    shifted = _affine_x(cert.delta, lam_i, mu_i)
    delta_i = divmod_in(shifted.scaled(-gam_i), cert.source.f, "X")[1]
    return _assemble(cert.target, cert.source, lam_i, mu_i, gam_i, delta_i)


def compose_certificates(second: IsoCertificate, first: IsoCertificate) -> IsoCertificate:
    """Certificate of second o first (apply ``first``, then ``second``)."""
    if first.target != second.source:
        raise PreconditionError("certificates do not compose: endpoint mismatch")
    lam = first.lam * second.lam
    mu = first.lam * second.mu + first.mu
    gamma = first.gamma * second.gamma
    d1_shift = _affine_x(first.delta, second.lam, second.mu)
    delta = divmod_in(second.delta.scaled(first.gamma) + d1_shift,
                      second.target.f, "X")[1]
    return _assemble(first.source, second.target, lam, mu, gamma, delta)


def identity_certificate(spec: SurfaceSpec) -> IsoCertificate:
    one = Scalar(spec.field, 1)
    zero = Scalar(spec.field, 0)
    return _assemble(spec, spec, one, zero, one, Poly.zero(spec.field, ("X",)))


def automorphisms(spec: SurfaceSpec, cap: int = DEFAULT_CAP) -> List[IsoCertificate]:
    """All automorphism certificates; when f = X^n g with n >= 2 and g has
    no root of multiplicity n, additionally asserts that every certificate
    fixes the x-coordinate up to scaling (mu = 0)."""
    result = decide_isomorphism(spec, spec, cap=cap)
    if isinstance(result, Obstruction):
        raise VerificationInternalError(f"self-comparison produced an obstruction: {result}")
    if _x_scaling_hypothesis(spec):
        offenders = [c for c in result if c.mu != 0]
        if offenders:
            raise VerificationInternalError(
                f"automorphism with mu != 0 despite the Cor 4.3 hypothesis: {offenders[0]}")
    return result


def _x_scaling_hypothesis(spec: SurfaceSpec) -> bool:
    """f = X^n g(X), n >= 2, and g has no root of multiplicity n."""
    if spec.n < 2:
        return False
    from .poly import exact_div
    g = exact_div(spec.f, Poly.monomial(spec.field, ("X",), (spec.n,)))
    if g.total_degree() == 0:
        return True
    fac = factor_univariate(g)
    return all(m != spec.n for _, m in fac.factors)
