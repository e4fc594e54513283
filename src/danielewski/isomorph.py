"""Complete K-isomorphism decision between two surfaces, with certificates.

Any isomorphism T: A_1 -> A_2 acts on generators as

    T(x_1) = lam x_2 + mu,   T(z_1) = gam z_2 + delta(x_2),
    T(y_1) = u^{-1} gam^d y_2 + u^{-1} theta(x_2, z_2),      u = lam^r,

and the data is admissible exactly when the two polynomial identities

    (III)  f_1(lam X + mu) = u f_2(X)
    (vi)   P_1(lam x + mu, gam z + delta) = gam^d P_2 + f_2 theta

hold.  After the degree obstructions, the solver finds all (lam, mu) from
(III), read row by row off the Taylor rows T_k of f_1: with b_k the
coefficients of f_2, row k asks T_k(mu) = lam^(r-k) b_k.  When the
characteristic does not divide r, row r - 1 eliminates mu linearly, and a
gcd of the other rows, as polynomials in lam, holds every admissible lam;
otherwise, for each lam in F_p^*, mu ranges over the roots in F_p of a gcd
of the rows.  f is factored only when the verdict needs it: when no pair is
found, or the search for one is refused, the multiplicity multisets
(Thm 4.1(ii)) decide between the two obstructions, since a pair makes them
equal; and when the lifting below needs the prime-power factors of f_2.

Then the solver finds all (gam, delta) from (vi).  gam comes off the Taylor
rows of (vi): with c1_k, c2_k the z^k coefficients of P_1(lam X + mu, z)
and P_2 reduced mod f_2, the binomial theorem turns the z-rows of (vi) into
conditions a = gam^e b mod f_2, and a gcd of the binomials T^e - c they
give, taken by the loop that takes the gcd of (III)'s rows, holds every
admissible gam.  When the characteristic p does not divide d, the z^(d-1)
row gives delta = delta_0 + gam delta_1, the rows are those of both sides
rewritten in z + delta_1, and each gam the gcd leaves is confirmed by
dividing the defect of (vi) by f_2.  Otherwise the rows of
P_1(lam X + mu, z + T) free of T constrain gam, and delta is solved for
only those gam, modulo each prime-power factor q^m of f_2: roots over
F_p[X]/(q) first, then one affine step per higher power of q, the residues
combined by CRT (``_DeltaLifting``).

One search cap bounds the candidates a decision counts: the (p - 1) p pairs
(lam, mu) the search covers when p divides r, plus the delta residues
produced at every power and their CRT combinations; a gam that a T-free row
rules out is never lifted and counts nothing.  When an elimination leaves
lam or gam free over F_p, its p - 1 values count too.  A step that would
pass the cap is refused before it lists anything, but a refused (lam, mu)
search still returns the multiplicity obstruction when the multisets
differ.  Every certificate it emits passes the checks of ``verify_iso``,
run on the one defect D = P_1(lam X + mu, gam Z + delta) - gam^d P_2 of
(vi) whose quotient by f_2 is theta (a function of (lam, mu, gam, delta);
the products f_2 theta_i = D_i check the division) and on the one (III)
line of its (lam, mu), evaluated once per pair when the pair's rows are
shifted (``_Pair``).

The solver computes D on dense rows and substitutes nothing
(``dense.congruence_defect``).  With c_j the Z^j rows of
P_1(lam X + mu, Z), shifted once per (lam, mu) and not reduced, and b_i
the Z^i rows of P_2, the binomial theorem gives row i of D as
gam^i sum_(j >= i) C(j, i) c_j delta^(j-i) - gam^d b_i.  This is an
identity of polynomials over any commutative ring, so D is exact, not a
residue mod f_2, and theta is the exact quotient of its rows.  In
characteristic p two facts only skip work: a binomial that vanishes mod p
adds nothing (by Lucas' theorem C(j, i) = 0 mod p exactly when some base-p
digit of i exceeds that of j), and delta^(p k) is delta^k with X replaced
by X^p, by the Frobenius map and c^p = c in F_p, so such powers take no
product.  A nonzero remainder mod f_2 refutes the candidate.
``verify_iso`` stays the independent re-check: it evaluates D by sparse
substitution.

delta is stored as the canonical representative of degree < r; any lift
delta + f_2 * e also yields an isomorphism and is not enumerated.

Obstructions carry the structural invariant they violate, so refutations
are citable.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .errors import (FieldMismatchError, InfiniteFamilyError, PreconditionError,
                     SearchCapExceededError, VerificationInternalError)
from .dense import (Fp, Fq, add, affine_shift, congruence_defect, dense_to_poly, divrem,
                    from_z_rows, gcd, hasse, horner, inv, mul, norm, poly_to_dense, sub, xgcd,
                    z_rows)
from .factor import Factorization, factor_univariate, roots_in_field
from .fields import FieldKind, Scalar
from .poly import NEG_INF, Poly, exact_div, square_and_multiply, substitute
from .reports import Check, VerificationReport
from .surface import SurfaceElement, SurfaceSpec

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
        """Orders the certificates of one decision; theta, fixed by the rest, breaks no tie."""
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
    the caller already has it.  ``decide_isomorphism`` computes them only
    when no (lam, mu) transports f_1 onto f_2: a pair makes them equal."""
    fac = factor_univariate(spec.f) if factors is None else factors
    return Fingerprint(spec.d, spec.r,
                       fac.multiplicity_multiset(), fac.degree_multiset())


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _roots_or_all(g: list, field, cap: int) -> Tuple[List[Scalar], bool]:
    """Nonzero roots of the dense monic g.  g = [], when no row of
    ``_row_gcd`` constrains, frees every value: over F_p its p - 1 values,
    refused past the cap before listing; over Q the slice [1], with the bool
    set to mark the family.  Only over Q is a g of degree >= 2 factored."""
    if not g:
        if field.kind is FieldKind.PRIME:
            if field.modulus - 1 > cap:
                raise SearchCapExceededError(field.modulus - 1, cap)
            return [Scalar(field, c) for c in range(1, field.modulus)], False
        return [Scalar(field, 1)], True
    if len(g) == 2:               # read off
        roots = [Scalar(field, -g[0])]
    elif field.kind is FieldKind.PRIME:
        roots = [Scalar(field, c) for c in Fp(field.modulus).roots(g)]
    else:
        roots = roots_in_field(dense_to_poly(g, field, ("T",), "T"))
    return [s for s in dict.fromkeys(roots) if s], False


def _transports(a: list, b: list, lam, mu, m: int) -> bool:
    """(III) at (lam, mu) for dense f_1 = a and f_2 = b: one Horner shift."""
    return affine_shift(a, mu, lam, m) == norm([lam ** (len(b) - 1) * c for c in b], m)


def _transport_check(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
                     u: Scalar) -> Check:
    """The f-transport line of ``verify_iso``, (III) read by ``_transports``:
    it depends on (lam, mu, u) alone, so every certificate of a pair shares it."""
    m, a = s1.field.modulus, poly_to_dense(s1.f, "X")
    ok = u == lam ** s1.r and _transports(a, poly_to_dense(s2.f, "X"), lam.value, mu.value, m)
    detail = "" if ok else "lhs {} vs rhs {}".format(
        dense_to_poly(affine_shift(a, mu.value, lam.value, m), s1.field, ("X",), "X"),
        s2.f.scaled(u))
    return Check("f-transport: f1(lam X + mu) = u f2(X), u = lam^r", "Thm 4.2(III)", ok, detail)


def _row_gcd(rows, m: int) -> list:
    """The monic gcd of the dense rows, pulled one at a time; [] when every
    row read is zero.  Stops once the gcd has degree <= 1 (a row [1] stops
    it at once): the rows left unread, and never computed when ``rows`` is
    lazy, are the caller's to check."""
    g: list = []
    for row in rows:
        g = gcd(g, row, m)
        if 0 < len(g) <= 2:
            break
    return g


def _affine_candidates(s1: SurfaceSpec, s2: SurfaceSpec, cap: int):
    """All (lam, mu) with f_1(lam X + mu) = lam^r f_2(X).

    With T_k the Taylor rows of f_1 and f_2 = sum b_k X^k, row k of (III)
    reads T_k(mu) = lam^(r-k) b_k.  When the characteristic does not divide
    r, row r - 1 gives mu = (lam b_(r-1) - a_(r-1)) / r, and the other rows
    become polynomials in lam, T_k(mu(lam)) - b_k lam^(r-k), whose gcd holds
    every admissible lam.  Otherwise, for each lam in F_p^*, mu ranges over
    the roots in F_p of the gcd of the rows T_k(M) - lam^(r-k) b_k (every
    mu when they all vanish).  Either gcd stops early, and every pair is
    confirmed by shifting f_1.

    Returns (pairs, lambda_free, examined); lambda_free marks the char-0
    case where every lam works (positive-dimensional family), and examined
    counts the (lam, mu) pairs the search covers when the characteristic
    divides r, (p - 1) p, refused up front past the cap."""
    field = s1.field
    r, m = s1.r, field.modulus
    a, b = poly_to_dense(s1.f, "X"), poly_to_dense(s2.f, "X")
    rows = [hasse(a, k, m) for k in range(len(a))]
    if m and r % m == 0:
        count = (m - 1) * m
        if count > cap:
            raise SearchCapExceededError(count, cap)
        pairs, fp = [], Fp(m)
        for lam in range(1, m):
            g = _row_gcd((sub(rows[k], [pow(lam, r - k, m) * b[k]], m)
                          for k in range(r - 1, -1, -1)), m)
            mus = fp.roots(g) if g else range(m)
            pairs.extend((Scalar(field, lam), Scalar(field, mu)) for mu in mus
                         if _transports(a, b, lam, mu, m))
        return pairs, False, count
    # the characteristic does not divide r: mu = u0 + u1 lam, and row k reads
    # T_k(u0 + u1 lam) = b_k lam^(r-k)
    r_inv = inv(r, m)
    u0, u1 = -a[r - 1] * r_inv, b[r - 1] * r_inv
    if m:
        u0, u1 = u0 % m, u1 % m

    def lam_row(k):
        row = affine_shift(rows[k], u0, u1, m)
        row.extend([0] * (r - k + 1 - len(row)))
        row[r - k] -= b[k]
        return norm(row, m)

    g = _row_gcd((lam_row(k) for k in range(r - 2, -1, -1)), m)
    lams, lambda_free = _roots_or_all(g, field, cap)
    pairs = []
    for lam in lams:
        mu = u0 + u1 * lam.value
        if _transports(a, b, lam.value, mu, m):
            pairs.append((lam, Scalar(field, mu)))
    return pairs, lambda_free, 0


class _TaylorRows:
    """sum_k c_k(X) Z^k, with the c_k dense mod f, rewritten in W = Z - s:
    row i is the W^i coefficient, the i-th Hasse derivative in Z evaluated
    at Z = s mod f (Horner).  Rows are computed when first read."""

    def __init__(self, c: List[list], s: list, f: list, m: int):
        self.c, self.s, self.f, self.m = c, s, f, m
        self.rows: Dict[int, list] = {}

    def __getitem__(self, i: int) -> list:
        row = self.rows.get(i)
        if row is None:
            row = self.rows[i] = horner(hasse(self.c, i, self.m), self.s, self.f, self.m)
        return row


def _binomials(rows, m: int):
    """The condition each row (a, b, e) puts on a nonzero gam, a = gam^e b
    mod f_2 with a, b dense mod f_2, as a dense row for ``_row_gcd``:
    T^e - c when a = c b for a scalar c, [1] when the row cannot be solved,
    nothing when a = b = 0.  Over F_p, gam^(p-1) = 1 reduces e mod p - 1,
    so a row with e = 0 asks c = 1 and no binomial reaches degree p - 1."""
    for a, b, e in rows:
        if not a or not b:
            if a or b:
                yield [1]
            continue
        c = a[-1] * inv(b[-1], m) % m if m else a[-1] * inv(b[-1], m)
        if m:
            e %= m - 1
        if len(a) != len(b) or norm([c * v for v in b], m) != a or not e and c != 1:
            yield [1]
        elif e:
            yield [-c] + [0] * (e - 1) + [1]


class _DeltaLifting:
    """The delta search of one decision when char K = p divides d, for the
    gam that the T-free rows of the defect allow.

    Congruence (vi) reads D(X, Z, delta) = 0 mod f_2, where
    D(X, Z, T) = P_1(lam X + mu, gam Z + T) - gam^d P_2.  It holds exactly
    when it holds modulo every prime-power factor q^m of f_2, and
    D(X, Z, delta) mod q^j depends only on delta mod q^j.  So each factor is
    solved one power of q at a time, and the residues mod the q_i^(m_i)
    combine by CRT into every delta mod f_2 of degree < r.

    Mod q each Z-coefficient g_j(T) of D is a polynomial over the field
    F_q = F_p[X]/(q), and the residues of delta mod q are the roots in F_q
    of G = gcd_j g_j.  G is never zero: the Z^0 coefficient holds T^d.
    Past the first power, a residue s mod q^(j-1) lifts to s + t q^(j-1)
    exactly when a + t b = 0 in F_q for every Z-coefficient, where
    a = (D(s) mod q^j) / q^(j-1) and b = D'(s) mod q (Hensel: the terms in
    t^2 vanish mod q^j).  So s lifts to one residue, to none, or -- when
    every a and every b vanish -- to all of F_q.

    One count against the cap covers the decision: it starts at
    ``examined`` (the (lam, mu) pairs the search covered) and adds, over
    every (lam, mu) and every gam lifted, each residue produced at each
    power and the number of CRT combinations before they are listed.  A gam that a
    T-free row rules out is never lifted and adds nothing.  A step that
    would take the count past the cap raises SearchCapExceededError before
    it lists anything.
    """

    def __init__(self, f: list, p: int, factors: Tuple[Tuple[Poly, int], ...], cap: int,
                 examined: int):
        self.p = p
        self.cap = cap
        self.examined = examined
        self.f = f
        self.fp = Fp(p)
        self.factors = []       # (F_q, m, CRT idempotent: 1 mod q^m, 0 mod f_2 / q^m)
        for q_poly, m in factors:
            q = poly_to_dense(q_poly, "X")
            block = square_and_multiply(q, m, lambda a, b: mul(a, b, p))
            cofactor = divrem(f, block, p)[0]
            inverse = xgcd(cofactor, block, p)[1]
            self.factors.append((Fq(q, p), m, divrem(mul(cofactor, inverse, p), f, p)[1]))

    def _count(self, produced: int):
        needed = self.examined + produced
        if needed > self.cap:
            raise SearchCapExceededError(needed, self.cap)
        self.examined = needed

    def deltas(self, rows: List[List[list]]) -> List[list]:
        """Every delta mod f_2 (dense, degree < r) with D(X, Z, delta) = 0
        mod f_2; each row lists the X-coefficients of Z^j T^k in D over k,
        one row per Z^j that is nonzero mod f_2."""
        p = self.p
        parts = []
        for fq, m, idempotent in self.factors:
            residues = self._lift(rows, fq, m)
            if not residues:
                return []
            parts.append([mul(s, idempotent, p) for s in residues])
        self._count(math.prod(len(part) for part in parts))
        out = []
        for combo in itertools.product(*parts):
            delta = []
            for piece in combo:
                delta = add(delta, piece, p)
            out.append(divrem(delta, self.f, p)[1])
        return out

    def _lift(self, rows, fq: Fq, m: int) -> List[list]:
        """Every residue of delta mod q^m that solves D = 0 mod q^m."""
        p, q = self.p, fq.q
        # when deg q = 1, F_q is F_p: the roots are found over ints, each
        # element [a] of F_q read as a (and [] as 0)
        field = self.fp if fq.degree == 1 else fq
        g = None
        for row in sorted(rows, key=len):
            row = fq.poly(row)
            if field is not fq:
                row = [c[0] if c else 0 for c in row]
            if row:
                g = row if g is None else field.gcd(g, row)
                if len(g) == 1:
                    return []
        survivors = field.roots(g)
        if field is not fq:
            survivors = [[a] if a else [] for a in survivors]
        self._count(len(survivors))
        if m == 1 or not survivors:
            return survivors
        # D'(T) mod q, one list per Z-coefficient
        slopes = [fq.poly(hasse(row, 1, p)) for row in rows]
        below = q                         # q^(j-1)
        for _ in range(m - 1):
            modulus = mul(below, q, p)   # q^j
            reduced = [[divrem(c, modulus, p)[1] for c in row] for row in rows]
            lifted = []
            for s in survivors:
                shifts = self._affine_step(reduced, slopes, s, below, modulus, fq)
                self._count(fq.size if shifts is None else len(shifts))
                for t in (fq.elements() if shifts is None else shifts):
                    lifted.append(add(s, mul(t, below, p), p))
            survivors = lifted
            if not survivors:
                break
            below = modulus
        return survivors

    def _affine_step(self, reduced, slopes, s, below, modulus, fq: Fq) -> Optional[List[list]]:
        """The t in F_q with D(s + t q^(j-1)) = 0 mod q^j, for a residue s
        mod q^(j-1) that solves D = 0 mod q^(j-1): [t], [], or None for
        every t.  ``below`` is q^(j-1), ``modulus`` q^j."""
        p = self.p
        s_low = fq.reduce(s)
        t = None
        for row, slope in zip(reduced, slopes):
            a = divrem(horner(row, s, modulus, p), below, p)[0]
            b = horner(slope, s_low, fq.q, p)
            if t is not None:
                if add(a, fq.mul(t, b), p):
                    return []
            elif b:
                t = fq.neg(fq.mul(a, fq.inv(b)))
            elif a:
                return []
        return None if t is None else [t]


class _Pair:
    """(vi) at one (lam, mu) of a decision, on dense rows: the z-rows of
    P_1(lam X + mu, Z) before reduction (``shifted``), the z-rows ``b`` of
    P_2 and f_2 dense (``f``), the last two read once per decision, and the
    (III) line that every certificate of the pair shares."""

    def __init__(self, s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
                 rows1: List[list], b: List[list], f: list):
        self.s1, self.s2, self.lam, self.mu, self.b, self.f = s1, s2, lam, mu, b, f
        self.m = m = s1.field.modulus
        self.u = lam ** s1.r
        self.shifted = [affine_shift(row, mu.value, lam.value, m) for row in rows1]
        self.transport = _transport_check(s1, s2, lam, mu, self.u)

    def certificate(self, gamma: Scalar, delta: list) -> Optional[IsoCertificate]:
        """The certificate of (lam, mu, gamma, delta), None when (vi) leaves a
        remainder mod f_2.  theta is the quotient of the defect's rows by f_2,
        and the checks of ``verify_iso`` read (vi) off f_2 theta_i = D_i."""
        s1, s2, m, f = self.s1, self.s2, self.m, self.f
        defect = congruence_defect(self.shifted, gamma.value, delta, self.b, m)
        theta = []
        for row in defect:
            quotient, rem = divrem(row, f, m) if row else ([], [])
            if rem:
                return None
            theta.append(quotient)
        field, vars2 = s1.field, ("X", "Z")
        cert = IsoCertificate(s1, s2, self.lam, self.mu, gamma,
                              dense_to_poly(delta, field, ("X",), "X"), self.u,
                              from_z_rows(theta, field, vars2))
        ok = all(mul(f, q, m) == row for q, row in zip(theta, defect) if q or row)
        report = _iso_report(cert, ok, lambda: from_z_rows(
            [sub(row, mul(f, q, m), m) for q, row in zip(theta, defect)], field, vars2),
            self.transport)
        if not report.ok:
            raise VerificationInternalError(
                "solver emitted a certificate that fails verification: "
                + "; ".join(c.line() for c in report.failures()))
        return cert

    def assemble(self, gamma: Scalar, delta: list) -> IsoCertificate:
        """The certificate of a solution; raises on a non-solution."""
        cert = self.certificate(gamma, delta)
        if cert is None:
            raise VerificationInternalError("assembling a certificate from a non-solution")
        return cert


def _gamma_delta_solutions(pair: _Pair, target: Union[List[list], _TaylorRows],
                           lifting: Optional[_DeltaLifting], cap: int):
    """The certificates of every (gamma, delta) with the congruence (vi) at
    the pair's (lam, mu); returns (certificates, gamma_free) where
    gamma_free marks the char-0 infinite case.

    Both branches read gamma off rows of (vi) of the form
    a_j = gam^(d-j) b_j mod f_2, as the gcd (``_row_gcd``) of the binomials
    they give (``_binomials``).  The a_j come from the Z^j coefficients
    c1_j of P_1(lam X + mu, Z): the pair's shifted rows reduced mod f_2.
    The b_j are the rows of P_2 in ``target``, built once per decision: the
    list of the Z^j coefficients c2_j of P_2 mod f_2 when the characteristic
    divides d, and the W^j coefficients in W = Z + delta_1
    (``_TaylorRows``) when it does not.  ``lifting`` carries the delta
    search in the first case, else it is None."""
    field = pair.s1.field
    m, d, f = field.modulus, pair.s1.d, pair.f
    c1 = [divrem(row, f, m)[1] for row in pair.shifted]
    if lifting is not None:
        # row j of the table, the T^k coefficients of Z^j in P_1(lam X + mu, Z + T),
        # is the j-th Hasse derivative of sum_k c1_k T^k.  A T-free row j
        # (j = d - 1 always, as p | d) requires c1_j = gam^(d-j) c2_j outright
        table = [hasse(c1, j, m) for j in range(d + 1)]
        g = _row_gcd(_binomials(((c1[j], target[j], d - j) for j in range(d - 1, -1, -1)
                                 if not any(table[j][1:])), m), m)
        # every gamma is lifted when no T-free row constrains it
        gammas = [gam.value for gam in _roots_or_all(g, field, cap)[0]] if g else range(1, m)
        certs = []
        for gam in gammas:
            gam_d = pow(gam, d, m)
            rows = []
            for j, entries in enumerate(table):
                gam_j = pow(gam, j, m)
                row = [[gam_j * a % m for a in e] for e in entries]
                row[0] = sub(row[0], [gam_d * a for a in target[j]], m)
                while row and not row[-1]:
                    row.pop()
                if row:
                    rows.append(row)
            gamma = Scalar(field, gam)
            certs.extend(pair.assemble(gamma, delta) for delta in lifting.deltas(rows))
        return certs, False
    # characteristic does not divide d: comparing Z^(d-1) coefficients gives
    # delta = delta_0 + gam delta_1 with delta_0 = -c1_(d-1)/d and
    # delta_1 = c2_(d-1)/d mod f_2.  In W = Z + delta_1, (vi) reads
    # sum_i (gam^i A_i - gam^d B_i) W^i = 0 mod f_2, where A_i and B_i are the
    # Taylor rows of P_1(lam X + mu, Z) at delta_0 and of P_2 at -delta_1; the
    # rows i = d, d - 1 hold for every gam
    delta0 = norm([-inv(d, m) * a for a in c1[d - 1]], m)
    shifted = _TaylorRows(c1, delta0, f, m)
    g = _row_gcd(_binomials(((shifted[i], target[i], d - i) for i in range(d - 2, -1, -1)),
                            m), m)
    gammas, gamma_free = _roots_or_all(g, field, cap)
    certs = []
    for gamma in gammas:
        # target.s is -delta_1; the division of the defect by f_2 is the
        # exact check of the rows the gcd left unread
        cert = pair.certificate(gamma, sub(delta0, [gamma.value * a for a in target.s], m))
        if cert is not None:
            certs.append(cert)
    return certs, gamma_free


def _assemble(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
              gamma: Scalar, delta: list) -> IsoCertificate:
    """The certificate of a solution, its rows read off the surfaces; raises
    on a non-solution."""
    return _Pair(s1, s2, lam, mu, z_rows(s1.P), z_rows(s2.P),
                 poly_to_dense(s2.f, "X")).assemble(gamma, delta)


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
    refusal = None
    try:
        pairs, lambda_free, examined = _affine_candidates(s1, s2, cap)
    except SearchCapExceededError as exc:
        refusal, pairs, lambda_free = exc, [], False
    if not pairs and not lambda_free:
        # a pair would make the multiplicity multisets equal (Thm 4.1(ii)
        # follows from (III)), so f is factored only here; f_2 first, so a
        # factorization refused on both sides reports f_2's count
        fp2 = fingerprint(s2)
        fp1 = fingerprint(s1)
        if fp1.multiplicities != fp2.multiplicities:
            return Obstruction(
                ObstructionKind.MULTIPLICITY_MULTISET_MISMATCH,
                f"multiplicity multisets {set_str(fp1.multiplicities)} vs "
                f"{set_str(fp2.multiplicities)}")
        if refusal is not None:
            raise refusal
        extra = ""
        if fp1.degrees != fp2.degrees:
            extra = (f"; irreducible-factor degree multisets differ: "
                     f"{set_str(fp1.degrees)} vs {set_str(fp2.degrees)}")
        return Obstruction(ObstructionKind.NO_AFFINE_MATCH,
                           "no (lambda, mu) transports f_1 onto f_2" + extra)
    m = s1.field.modulus
    f2 = poly_to_dense(s2.f, "X")
    rows1, rows2 = z_rows(s1.P), z_rows(s2.P)
    c2 = [divrem(row, f2, m)[1] for row in rows2]
    lifting, target = None, c2
    if m and s1.d % m == 0:
        lifting = _DeltaLifting(f2, m, factor_univariate(s2.f).factors, cap, examined)
    else:
        # W = Z + delta_1, delta_1 = c2_(d-1)/d mod f_2
        target = _TaylorRows(c2, norm([-inv(s1.d, m) * a for a in c2[-2]], m), f2, m)
    certs: List[IsoCertificate] = []
    gamma_free = False
    for lam, mu in pairs:
        found, free = _gamma_delta_solutions(_Pair(s1, s2, lam, mu, rows1, rows2, f2),
                                             target, lifting, cap)
        gamma_free = gamma_free or free
        certs.extend(found)
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


def _defect(s1: SurfaceSpec, s2: SurfaceSpec, lam: Scalar, mu: Scalar,
            gamma: Scalar, delta: Poly) -> Poly:
    """P_1(lam x + mu, gam z + delta) - gam^d P_2, d of the target; (vi): f_2 theta."""
    vars2 = ("X", "Z")
    xb = Poly.variable(s1.field, vars2, "X").scaled(lam) + Poly.const(s1.field, vars2, mu)
    zb = Poly.variable(s1.field, vars2, "Z").scaled(gamma) + delta.with_vars(vars2)
    return substitute(s1.P, {"X": xb, "Z": zb}, vars_out=vars2) - s2.P.scaled(gamma ** s2.d)


def verify_iso(cert: IsoCertificate) -> VerificationReport:
    """Re-check of a certificate from its own fields, independent of the
    solver: the defect of (vi) by sparse substitution, less f_2 theta;
    passing implies the map is an isomorphism."""
    s1, s2 = cert.source, cert.target
    difference = (_defect(s1, s2, cert.lam, cert.mu, cert.gamma, cert.delta)
                  - s2.f.with_vars(("X", "Z")) * cert.theta_rem)
    return _iso_report(cert, difference.is_zero, lambda: difference,
                       _transport_check(s1, s2, cert.lam, cert.mu, cert.u))


def _iso_report(cert: IsoCertificate, ok_p: bool, difference: Callable[[], Poly],
                transport: Check) -> VerificationReport:
    """The four checks of ``verify_iso``: (III) is ``transport``, and (vi)
    holds when ``ok_p``; otherwise ``difference()``, the defect less f_2 theta,
    is the failure's detail."""
    s1, s2 = cert.source, cert.target
    checks = []
    ok_d = s1.d == s2.d
    checks.append(Check("z-degrees agree", "Thm 4.1(iv)", ok_d,
                        "" if ok_d else f"{s1.d} vs {s2.d}"))
    ok_units = bool(cert.lam) and bool(cert.gamma) and bool(cert.u)
    checks.append(Check("units lambda, gamma, u nonzero", "Thm 4.1(i)", ok_units))
    checks.append(transport)
    checks.append(Check(
        "P-transport: P1(lam x + mu, gam z + delta) = gam^d P2 + f2 theta",
        "Thm 4.1(vi)", ok_p, "" if ok_p else f"difference {difference()}"))
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


def invert_certificate(cert: IsoCertificate) -> IsoCertificate:
    """Certificate of T^{-1}; rebuilt from the inverse data and re-verified."""
    s1, s2, m = cert.target, cert.source, cert.source.field.modulus
    lam_i = cert.lam.inverse()
    mu_i = -(lam_i * cert.mu)
    gam_i = cert.gamma.inverse()
    shifted = affine_shift(poly_to_dense(cert.delta, "X"), mu_i.value, lam_i.value, m)
    delta_i = divrem([-gam_i.value * c for c in shifted], poly_to_dense(s2.f, "X"), m)[1]
    return _assemble(s1, s2, lam_i, mu_i, gam_i, delta_i)


def compose_certificates(second: IsoCertificate, first: IsoCertificate) -> IsoCertificate:
    """Certificate of second o first (apply ``first``, then ``second``)."""
    if first.target != second.source:
        raise PreconditionError("certificates do not compose: endpoint mismatch")
    s1, s2, m = first.source, second.target, first.source.field.modulus
    lam = first.lam * second.lam
    mu = first.lam * second.mu + first.mu
    gamma = first.gamma * second.gamma
    d1_shift = affine_shift(poly_to_dense(first.delta, "X"), second.mu.value, second.lam.value, m)
    delta = divrem(add([first.gamma.value * c for c in poly_to_dense(second.delta, "X")],
                       d1_shift, m), poly_to_dense(s2.f, "X"), m)[1]
    return _assemble(s1, s2, lam, mu, gamma, delta)


def identity_certificate(spec: SurfaceSpec) -> IsoCertificate:
    one = Scalar(spec.field, 1)
    zero = Scalar(spec.field, 0)
    return _assemble(spec, spec, one, zero, one, [])


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
    g = exact_div(spec.f, Poly.monomial(spec.field, ("X",), (spec.n,)))
    if g.total_degree() == 0:
        return True
    fac = factor_univariate(g)
    return all(m != spec.n for _, m in fac.factors)
