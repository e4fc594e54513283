"""Independent oracles the tests check the implementation against.

These deliberately avoid the production code paths they judge: the
determinant oracle is plain cofactor expansion; over a small prime field
the isomorphism oracles try every (lambda, mu) pair by substitution, with
no Taylor rows or gcd, every (gamma, delta) pair for one (lambda, mu), with
no lifting or CRT, and every (lambda, mu, gamma, delta) tuple filtered
through verify_iso alone, and verify_iso against a verifier that
substitutes f_1 for (III) and compares both sides of congruence (vi), where
the library's reads (III) off a Horner shift of f_1's dense row and (vi) off
one defect by sparse substitution, less f_2 theta (the solver computes that
defect on dense rows instead); the stepwise normal form rewrites one
term at a time instead of dividing by the relation level by level, the Horner
evaluator applies a ring map with A's own + and * instead of one
substitution followed by one normalization, and the extended canonical
map is applied to a stable-isomorphism certificate's theta, s and w through
that evaluator; that certificate's s = x y + Q_h(v) is summed term by term
from the e_k below, where the library reads Q_h off P's Hasse derivatives,
its report is rebuilt with every identity evaluated where it is stated,
where the library shares s, P(x, theta) and s a(x, theta) between its
builder and its checks, and the inverse of its
isomorphism B[w] -> A[v] is built element by element, where the library
proves from its checks that the inverse exists;
the Taylor coefficients e_k of P(X, Z + T), which the library reads off
P's Z-coefficients as Hasse derivatives, are found by substituting Z + T
for Z, and the canonical map's y-image by that substitution followed by
an exact division by f; the exponential-map verifier evaluates U -> 0,
U -> V and U -> U + V by substitution, where the library reads them off
each image's U-expansion;
the roots of a polynomial over a prime field, or over F_p[X]/(q), are
found by evaluating it at every element, not read off its factorization or
split by equal degree; the equal-degree split over F_p is checked against
two separate splitters on the dense kernel, randomized for odd p and by
trace maps for p = 2, not the library's one split shared with F_q; and
the product parser builds every factor of an expression as a ``Poly``
and every product and power with ``Poly`` arithmetic, where the
library's parser reads a literal monomial in one
regular-expression match and keeps a product of literal factors as one
monomial; and an element document or string is printed through the
``coeffs`` view, one ``poly_str`` per y-coefficient, where the library
prints the y-coefficients straight off the stored normal form.

The tuple-keyed kernel at the end is the reference for the packed one in
``poly.py``: it keys terms by exponent tuples, orders them with
``grlex_key``, multiplies by adding tuples, substitutes by repeated
multiplication, divides by scanning for the grlex-largest term, and
re-embeds by placing each exponent by name.  Over Q, ``fraction_mul``
multiplies term by term in ``Fraction``, where the packed kernel takes
each operand's common denominator out and multiplies integers.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import List

from danielewski import (IsoCertificate, Poly, Scalar, canonical_expmap,
                         divide_by_x, exact_div, verify_iso)
from danielewski.dense import add, deg, divrem, gcd, mul, norm, sub
from danielewski.errors import ComaximalityError, PolyParseError, UnknownVariableError
from danielewski.fields import FieldKind, q_norm
from danielewski.isomorph import certificate_images
from danielewski.parsing import MAX_CONSTANT_BITS, MAX_DEGREE, MAX_NESTING, poly_str
from danielewski.poly import divmod_in, substitute
from danielewski.reports import Check, VerificationReport
from danielewski.resultant import det_bareiss, resultant_in, sylvester_matrix
from danielewski.surface import SurfaceElement, eval_poly_on_elements

BASE_VARS = ("X", "Y", "Z")
_OPS = set("+-*^()/")


def naive_det(matrix, field, vars):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = Poly.zero(field, vars)
    for j in range(n):
        if matrix[0][j].is_zero:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * naive_det(minor, field, vars)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def bezout_by_cramer(P, Pz, var="Z"):
    """(a, b) with a*Pz + b*P = 1 for P monic of degree >= 2 in ``var``, by
    Cramer's rule on the Sylvester system: each unknown is a signed minor
    over Res_var(P, Pz).  Raises ComaximalityError with the library's
    messages when the resultant is not a nonzero constant."""
    m = P.degree_in(var)
    field, vars = P.field, P.vars
    if Pz.is_zero:
        raise ComaximalityError("P_Z = 0, so (P, P_Z) is a proper ideal")
    n = Pz.degree_in(var)
    if n == 0:
        if not Pz.is_constant:
            raise ComaximalityError(
                f"resultant {Pz}**{m} is non-constant, (P, P_Z) is a proper ideal")
        return Poly.const(field, vars, Pz.constant_value().inverse()), Poly.zero(field, vars)
    res = resultant_in(P, Pz, var)
    if res.is_zero or not res.is_constant:
        raise ComaximalityError(f"Res_{var}(P, P_Z) = {res} is not a nonzero constant")
    inv_res = res.constant_value().inverse()
    matrix = sylvester_matrix(P, Pz, var)
    size = m + n
    # w_j = det(S with row j replaced by e_const) / det(S); expanding along
    # the replaced row leaves a signed minor against the last column
    w = []
    for j in range(size):
        minor = [row[:size - 1] for i, row in enumerate(matrix) if i != j]
        d = det_bareiss(minor, field, vars)
        w.append((-d if (j + size - 1) % 2 else d) * inv_res)
    b = Poly.zero(field, vars)
    for i in range(n):  # rows 0..n-1 are the part multiplying P
        b = b + w[i].mul_var_power(var, n - 1 - i)
    a = Poly.zero(field, vars)
    for j in range(m):
        a = a + w[n + j].mul_var_power(var, m - 1 - j)
    return a, b


def roots_by_evaluation(p, var="X"):
    """Roots of a nonzero univariate p over a prime field, repeated by
    multiplicity and ascending: every residue is tried, and each root is
    divided out as often as it divides."""
    field = p.field
    roots = []
    for c in range(field.modulus):
        root = Scalar(field, c)
        if p.evaluate({var: root}) != 0:
            continue
        linear = Poly.variable(field, p.vars, var) - Poly.const(field, p.vars, root)
        rest = p
        while True:
            quo, rem = divmod_in(rest, linear, var)
            if not rem.is_zero:
                break
            roots.append(root)
            rest = quo
    return roots


def fq_roots_by_evaluation(f, q):
    """Distinct roots of f in F_q = F_p[X]/(q), ascending as coefficient
    lists.  f is a Poly over ("X", "T") and q a monic irreducible Poly over
    ("X",); every a of degree < deg q is substituted for T and the value is
    reduced mod q."""
    field = f.field
    roots = []
    for digits in itertools.product(range(field.modulus), repeat=q.degree_in("X")):
        a = Poly(field, ("X",), {(i,): c for i, c in enumerate(digits)})
        if divmod_in(substitute(f, {"T": a}, vars_out=("X",)), q, "X")[1].is_zero:
            root = list(digits)
            while root and root[-1] == 0:
                root.pop()
            roots.append(root)
    return sorted(roots)


def _fp_edf_odd(f, k, p, rng: random.Random) -> List[List[int]]:
    n = deg(f)
    if n == k:
        return [f]
    half = (p ** k - 1) // 2
    while True:
        r = norm([rng.randrange(p) for _ in range(n)], p)
        if deg(r) < 1:
            continue
        g = gcd(r, f, p)
        if 0 < deg(g) < n:
            break
        s, base, e = [1], r, half          # s = r^half mod f
        while e:
            if e & 1:
                s = divrem(mul(s, base, p), f, p)[1]
            base = divrem(mul(base, base, p), f, p)[1]
            e >>= 1
        g = gcd(sub(s, [1], p), f, p)
        if 0 < deg(g) < n:
            break
    rest = divrem(f, g, p)[0]
    return _fp_edf_odd(g, k, p, rng) + _fp_edf_odd(rest, k, p, rng)


def _fp_edf_two(f, k) -> List[List[int]]:
    """Deterministic equal-degree splitting over F_2 via trace maps."""
    p = 2
    n = deg(f)
    if n == k:
        return [f]
    j = 1
    while True:
        r = divrem([0] * j + [1], f, p)[1]  # X^j mod f
        t = []
        cur = r
        for _ in range(k):
            t = add(t, cur, p)
            cur = divrem(mul(cur, cur, p), f, p)[1]
        g = gcd(t, f, p)
        if 0 < deg(g) < n:
            rest = divrem(f, g, p)[0]
            return _fp_edf_two(g, k) + _fp_edf_two(rest, k)
        j += 1


def fp_split_reference(f, k, p):
    """The monic irreducible factors, sorted, of a monic dense f over F_p
    that is a product of distinct irreducibles of degree k."""
    if p == 2:
        return sorted(_fp_edf_two(f, k))
    return sorted(_fp_edf_odd(f, k, p, random.Random(f"factor|{p}|{f}")))


def exhaustive_gamma_delta(s1, s2, lam, mu):
    """Every (gamma, delta, theta) with
    P_1(lam X + mu, gamma Z + delta) - gamma^d P_2 = theta f_2 and
    deg delta < r, over a prime field, by trying all (p-1) p^r pairs
    (gamma, delta): one substitution and one exact division each."""
    field = s1.field
    p = field.modulus
    vars2 = ("X", "Z")
    xb = Poly.variable(field, vars2, "X").scaled(lam) + Poly.const(field, vars2, mu)
    z = Poly.variable(field, vars2, "Z")
    f2 = s2.f.with_vars(vars2)
    found = []
    for gam_raw in range(1, p):
        gamma = Scalar(field, gam_raw)
        for coeffs in itertools.product(range(p), repeat=s2.r):
            delta = Poly(field, ("X",), {(i,): c for i, c in enumerate(coeffs)})
            lhs = substitute(s1.P, {"X": xb, "Z": z.scaled(gamma) + delta.with_vars(vars2)},
                             vars_out=vars2)
            theta = exact_div(lhs - s2.P.scaled(gamma ** s1.d), f2)
            if theta is not None:
                found.append((gamma, delta, theta))
    return found


def affine_pairs_by_enumeration(s1, s2):
    """Every (lambda, mu) with f_1(lambda X + mu) = lambda^r f_2 over a prime
    field, by trying all (p-1) p pairs: one substitution each."""
    field = s1.field
    p = field.modulus
    x = Poly.variable(field, ("X",), "X")
    pairs = []
    for lam_raw in range(1, p):
        for mu_raw in range(p):
            lam, mu = Scalar(field, lam_raw), Scalar(field, mu_raw)
            moved = substitute(s1.f, {"X": x.scaled(lam) + Poly.const(field, ("X",), mu)})
            if moved == s2.f.scaled(lam ** s1.r):
                pairs.append((lam, mu))
    return pairs


def brute_force_certificates(s1, s2):
    """Every certificate over a prime field, by exhaustive enumeration of
    (lambda, mu, gamma, delta) filtered through verify_iso.  A (lambda, mu)
    with f_1(lambda X + mu) != lambda^r f_2 fails verify_iso whatever
    (gamma, delta) is, so only the pairs of ``affine_pairs_by_enumeration``
    have their (gamma, delta) tried."""
    found = {}
    for lam, mu in affine_pairs_by_enumeration(s1, s2):
        for gamma, delta, theta in exhaustive_gamma_delta(s1, s2, lam, mu):
            try:
                cert = IsoCertificate(s1, s2, lam, mu, gamma, delta, lam ** s1.r, theta)
            except ValueError:
                continue
            if verify_iso(cert).ok:
                found[cert_key(cert)] = cert
    return found


def cert_key(cert):
    """Hashable identity (lam, mu, gamma, delta) of a certificate -- theta
    and u are determined by these."""
    return (cert.lam.sort_key(), cert.mu.sort_key(), cert.gamma.sort_key(),
            cert.delta.sort_key())


def _affine_x(p: Poly, lam: Scalar, mu: Scalar) -> Poly:
    """p(lam X + mu) for p in K[X], by sparse substitution."""
    x = Poly.variable(p.field, ("X",), "X")
    return substitute(p, {"X": x.scaled(lam) + Poly.const(p.field, ("X",), mu)},
                      vars_out=("X",))


def verify_iso_by_substitution(cert: IsoCertificate) -> VerificationReport:
    """The four checks of ``verify_iso``, (III) and (vi) evaluated on their
    own: f_1 and P_1 substituted sparsely, and P_1 compared with
    gam^d P_2 + f_2 theta, built separately, where the library reads (III)
    off the search's Horner shift and (vi) off the defect less f_2 theta
    (the solver computes that defect on dense rows)."""
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


def apply_certificate(cert, e: SurfaceElement) -> SurfaceElement:
    """Push an element of the source (A, no auxiliary variable) through the
    encoded map."""
    assert e.spec == cert.source and not e.aux
    return eval_poly_on_elements(e.raw_lift(), certificate_images(cert), cert.target)


def _split_by_y(p, spec):
    """The element sum g_i y^i of a polynomial over ("X", "Y", "Z") + aux
    whose Z-degree is already below d."""
    coeff_vars = ("X", "Z") + p.vars[3:]
    buckets = {}
    for exps, c in p.terms.items():
        buckets.setdefault(exps[1], {})[exps[:1] + exps[2:]] = c
    return SurfaceElement(spec, p.vars[3:],
                          {i: Poly(p.field, coeff_vars, t) for i, t in buckets.items()})


def normal_form_stepwise(raw, spec, order="high"):
    """One-rewrite-at-a-time normalization; ``order`` picks which reducible
    term to rewrite next ("high": largest Z-degree first, "low": smallest).
    The reference that shows the normal form is reduction-order independent."""
    vars_full = BASE_VARS + tuple(v for v in raw.used_vars() if v not in BASE_VARS)
    cur = raw.with_vars(vars_full)
    zi = 2
    f3 = spec.f.with_vars(vars_full)
    P3 = spec.P.with_vars(vars_full)
    zd = Poly.monomial(spec.field, vars_full, tuple(spec.d if i == zi else 0
                                                    for i in range(len(vars_full))))
    y = Poly.variable(spec.field, vars_full, "Y")
    relation = f3 * y - (P3 - zd)  # = Z^d in A
    choose = max if order == "high" else min
    while True:
        reducible = [e for e in cur.terms if e[zi] >= spec.d]
        if not reducible:
            break
        target = choose(reducible, key=lambda e: (e[zi], grlex_key(e)))
        c = cur.terms[target]
        stripped = target[:zi] + (target[zi] - spec.d,) + target[zi + 1:]
        cur = (cur - Poly(cur.field, vars_full, {target: c})
               + Poly(cur.field, vars_full, {stripped: c}) * relation)
    return _split_by_y(cur, spec)


def eval_by_horner(p, images, spec):
    """p evaluated at ring elements by nested Horner steps in its variables,
    using only SurfaceElement + and *; a variable without an image stands for
    itself (x, y, z, or an auxiliary variable of A[aux])."""
    def value(var):
        if var in images:
            return images[var]
        return spec.generator(var.lower() if var in BASE_VARS else var)

    def horner(q, rest):
        if not rest:
            return spec.from_scalar(q.constant_value())
        parts = q.coefficients_in(rest[0])
        val = value(rest[0])
        acc = spec.zero()
        for k in range(max(parts), -1, -1):
            acc = acc * val
            if k in parts:
                acc = acc + horner(parts[k], rest[1:])
        return acc

    return spec.zero() if p.is_zero else horner(p, p.vars)


def s_by_substitution(cert):
    """s = x y + Q_h(v) in A[v], the y-image of Psi, with
    Q_h(v) = sum_k e_k h^(k-1) v^k summed term by term from the e_k of
    ``taylor_by_substitution``."""
    spec = cert.spec_a
    h_el = spec.from_xz_poly(cert.h.with_vars(("X", "Z")))
    v_el = spec.generator("v")
    s = spec.x() * spec.y()
    for k, e_k in taylor_by_substitution(spec.P).items():
        if k:
            s = s + spec.from_xz_poly(e_k) * h_el ** (k - 1) * v_el ** k
    return s


def _extended_images(spec):
    """The canonical map's generator images with v -> v - x U."""
    m = canonical_expmap(spec)
    return {"X": m.image_x, "Y": m.image_y, "Z": m.image_z,
            "v": spec.generator("v") - spec.x() * spec.generator("U")}


def v5_by_application(cert):
    """(phi(theta) = theta, phi(s) = s, phi(w) = w - U) for the extended
    canonical map (phi(v) = v - x U), each computed by applying phi; s is
    ``s_by_substitution``."""
    spec = cert.spec_a
    images = _extended_images(spec)

    def phi(e):
        return eval_by_horner(e.raw_lift(), images, spec)

    s = s_by_substitution(cert)
    return (phi(cert.theta) == cert.theta, phi(s) == s,
            phi(cert.w) == cert.w - spec.generator("U"))


def stable_inverse(cert):
    """(v', z', y') in B[w], the images of v, z and y under the inverse of
    Psi: B[w] -> A[v] (x -> x, z -> theta, y -> s, w -> w), built from the
    formulas of the ``cancel`` docstring: v' = x w + y a(x, z),
    z' = z - h v' and y' = (y + Q_h(-v')(x, z)) / x, with
    Q_h(T) = sum_k e_k h^(k-1) T^k summed term by term from the e_k of
    ``taylor_by_substitution``.  B's auxiliary ``v`` stands for w.  None
    when x does not divide the numerator of y'."""
    spec_b = cert.spec_b
    x, y, z = spec_b.x(), spec_b.y(), spec_b.z()
    h_el = spec_b.from_xz_poly(cert.h.with_vars(("X", "Z")))
    v_prime = x * spec_b.generator("v") + y * spec_b.from_xz_poly(cert.a)
    z_prime = z - h_el * v_prime
    numerator = y
    for k, e_k in taylor_by_substitution(spec_b.P).items():
        if k:
            numerator = numerator + spec_b.from_xz_poly(e_k) * h_el ** (k - 1) * (-v_prime) ** k
    y_prime = divide_by_x(numerator)
    return None if y_prime is None else (v_prime, z_prime, y_prime)


def verify_stable_iso_by_evaluation(cert) -> VerificationReport:
    """The checks of ``verify_stable_iso``, each identity evaluated where it
    is stated: s is ``s_by_substitution``, and V2 and V4 evaluate
    P(x, theta) and a(x, theta) themselves, where the library shares s and
    its two evaluations with the builder."""
    spec = cert.spec_a
    field = spec.field
    checks: List[Check] = []

    # V1: the exact identity of V3 proves (P, P_Z) = (1); nothing is eliminated
    Pz = spec.P.derivative("Z")
    v3 = cert.a * Pz + cert.b * spec.P == Poly.one(field, ("X", "Z"))
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

    s = s_by_substitution(cert)
    p_at_theta = eval_poly_on_elements(spec.P, {"Z": cert.theta}, spec)
    v2 = h_el * s == p_at_theta
    checks.append(Check("V2 h(x) s = P(x, theta)", "Eq (8)", v2,
                        "" if v2 else f"difference {h_el * s - p_at_theta}"))

    checks.append(Check("V3 a P_Z + b P = 1", "Eq (10)", v3))

    a_at_theta = eval_poly_on_elements(cert.a, {"Z": cert.theta}, spec)
    v4 = spec.x() * cert.w == v_el - s * a_at_theta
    checks.append(Check("V4 x w = v - s a(x, theta)", "Eq (11)", v4))

    return VerificationReport(
        "stable-isomorphism certificate", tuple(checks),
        notes=("A[v] = E[w] with E a copy of B: Psi and its explicit inverse are well "
               "defined and mutually inverse by V1, V1b, theta, V2, V3 and V4 "
               "(proof in the cancel module docstring)",))


def taylor_by_substitution(P, var="Z"):
    """{k: e_k} with P(..., var + T) = sum_k e_k T**k, the nonzero e_k only:
    var + T is substituted for var over P's variables and T, and the
    T-coefficients are read off (valid in any characteristic; e_1 is the
    derivative in var)."""
    vars_t = P.vars + ("T",)
    shifted = substitute(P, {var: Poly.variable(P.field, vars_t, var)
                             + Poly.variable(P.field, vars_t, "T")}, vars_out=vars_t)
    return {k: c.with_vars(P.vars) for k, c in shifted.coefficients_in("T").items()}


def canonical_quotient_by_division(spec):
    """(P(X, Z + f U) - P(X, Z)) / f over ("X", "Z", "U"): the y-image of the
    canonical map minus y, by one substitution and one exact division."""
    vars3 = ("X", "Z", "U")
    f3, P3 = spec.f.with_vars(vars3), spec.P.with_vars(vars3)
    z_shift = Poly.variable(spec.field, vars3, "Z") + f3 * Poly.variable(spec.field, vars3, "U")
    return exact_div(substitute(P3, {"Z": z_shift}, vars_out=vars3) - P3, f3)


def verify_expmap_by_substitution(m):
    """The three defining checks of an exponential map, each identity by
    substitution and renormalization: 13 ``eval_poly_on_elements`` calls."""
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


def _by_products_tokenize(text):
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


_BP_LITERAL_DIGITS = len(str(2 ** (MAX_CONSTANT_BITS + 1)))


def _bp_literal(val, at):
    if len(val) > _BP_LITERAL_DIGITS:
        raise PolyParseError(f"a literal of {len(val)} digits exceeds the input budget "
                             f"of {_BP_LITERAL_DIGITS} digits", at)
    return int(val)


def _bp_check_degree(degree, at):
    if degree > MAX_DEGREE:
        raise PolyParseError(
            f"total degree {degree} exceeds the input budget of {MAX_DEGREE}", at)


def _bp_check_power(p, e, at):
    if not e or p.is_zero:
        return
    _bp_check_degree(p.total_degree() * e, at)
    if len(p) == 1 and p.field.kind is FieldKind.RATIONALS:
        (c,) = p.terms.values()
        bits = e * math.log2(max(abs(c.numerator), c.denominator))
        if bits > MAX_CONSTANT_BITS:
            raise PolyParseError(f"a constant power of about {bits:.0f} bits exceeds "
                                 f"the input budget of {MAX_CONSTANT_BITS}", at)


class _ProductParser:
    def __init__(self, text, field, vars):
        self.tokens = _by_products_tokenize(text)
        self.pos = 0
        self.field = field
        self.vars = vars
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", at)
        return self.advance()

    def parse(self):
        p = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {val!r}", at)
        return p

    def expr(self):
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
        return Poly(self.field, self.vars, sums)

    def term(self):
        p = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                q = self.factor()
                if not (p.is_zero or q.is_zero):
                    _bp_check_degree(p.total_degree() + q.total_degree(), at)
                p = p * q
            else:
                return p

    def factor(self):
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
            e = _bp_literal(val, at)
            if e >= 2**31:
                raise PolyParseError("exponent beyond 2**31", at)
            _bp_check_power(p, e, at)
            p = p ** e
        return p

    def base(self):
        kind, val, at = self.advance()
        if kind == "int":
            num = _bp_literal(val, at)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.advance()
                k3, v3, at3 = self.peek()
                if k3 != "int":
                    raise PolyParseError("denominator must be an integer literal", at3)
                self.advance()
                den = _bp_literal(v3, at3)
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
            if self.depth == MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than the input budget "
                                     f"of {MAX_NESTING} levels", at)
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise PolyParseError(f"unexpected {val!r}" if val else "unexpected end of input", at)


def parse_by_products(text, field, vars):
    """The recursive-descent parser that builds every factor as a ``Poly``
    and every product with ``Poly.__mul__``; same grammar, errors, positions,
    degree budget, literal budget and constant-power budget as
    ``parsing.parse_poly``, the same nesting budget, no work budget and no
    budget on constant products."""
    return _ProductParser(text, field, tuple(vars)).parse()


def element_doc_by_coeffs(e):
    """The element document printed through the ``coeffs`` view."""
    return {"coeffs": {str(i): poly_str(g) for i, g in sorted(e.coeffs.items())},
            "aux": list(e.aux)}


def element_str_by_coeffs(e):
    """``str(e)`` printed through the ``coeffs`` view."""
    if e.is_zero:
        return "0"
    parts = []
    for i, g in e.coeffs.items():
        g = poly_str(g)
        if i == 0:
            parts.append(g)
        else:
            ypow = "y" if i == 1 else f"y^{i}"
            parts.append(f"({g})*{ypow}")
    return " + ".join(parts)


# -- the tuple-keyed polynomial kernel -------------------------------------------


def grlex_key(exps):
    """Graded-lexicographic sort key: total degree first, then lexicographic
    with earlier variables more significant."""
    return (sum(exps), exps)


def _normalized(field, sums):
    """Accumulated sums as stored coefficients: reduced mod p over F_p,
    ``q_norm`` over Q, zeros dropped."""
    if field.kind is FieldKind.PRIME:
        p = field.modulus
        return {e: v % p for e, v in sums.items() if v % p}
    return {e: q_norm(v) for e, v in sums.items() if v}


def tuple_mul(field, a, b):
    """The product of two tuple-keyed term maps."""
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return _normalized(field, acc)


def fraction_mul(field, a, b):
    """The product of two tuple-keyed Q term maps with every coefficient made
    a ``Fraction`` first: one ``Fraction`` product and one ``Fraction`` sum
    per pair of terms, no common denominator taken out."""
    return tuple_mul(field, {e: Fraction(c) for e, c in a.items()},
                     {e: Fraction(c) for e, c in b.items()})


def tuple_with_vars(vars, terms, new_vars):
    """Each exponent placed by its variable's name in ``new_vars``."""
    pos = {v: i for i, v in enumerate(new_vars)}
    out = {}
    for exps, c in terms.items():
        new = [0] * len(new_vars)
        for v, e in zip(vars, exps):
            if e:
                if v not in pos:
                    raise UnknownVariableError(f"variable {v!r} is used but absent")
                new[pos[v]] = e
        out[tuple(new)] = c
    return out


def tuple_substitute(p, bindings, vars_out, mul=tuple_mul):
    """p with each bound variable replaced by its binding, term by term and
    factor by factor, each factor applied by ``mul``; every polynomial is
    given as a ``Poly``."""
    field = p.field
    images = {v: tuple_with_vars(q.vars, dict(q.terms.items()), vars_out)
              for v, q in bindings.items()}
    acc = {}
    for exps, c in p.terms.items():
        kept = {v: e for v, e in zip(p.vars, exps) if v not in images}
        term = tuple_with_vars(tuple(kept), {tuple(kept.values()): c}, vars_out)
        for v, e in zip(p.vars, exps):
            for _ in range(e if v in images else 0):
                term = mul(field, term, images[v])
        for e, v in term.items():
            acc[e] = acc.get(e, 0) + v
    return _normalized(field, acc)


def _minus_product(field, rem, exps, c, b):
    """rem - c * x^exps * b."""
    acc = dict(rem)
    for be, bc in b.items():
        e = tuple(map(operator.add, exps, be))
        acc[e] = acc.get(e, 0) - c * bc
    return _normalized(field, acc)


def tuple_exact_div(field, a, b):
    """The quotient a / b of tuple-keyed term maps, or None when b does not
    divide a: the grlex-largest remainder term is divided by b's leading
    term until the remainder is zero or a term is not divisible."""
    lead = max(b, key=grlex_key)
    inv = field.inv(b[lead])
    rem, quo = dict(a), {}
    while rem:
        e = max(rem, key=grlex_key)
        diff = tuple(map(operator.sub, e, lead))
        if any(d < 0 for d in diff):
            return None
        qc = field.mul(rem[e], inv)
        quo[diff] = qc
        rem = _minus_product(field, rem, diff, qc, b)
    return quo


def tuple_divmod_in(field, vars, p, divisor, var):
    """(quotient, remainder) of tuple-keyed term maps as polynomials in
    ``var``, the divisor's leading coefficient in ``var`` being a constant:
    any term at or above the divisor's degree is cancelled, highest first."""
    i = vars.index(var)
    dd = max(e[i] for e in divisor)
    lead = [e for e in divisor if e[i] == dd]
    assert len(lead) == 1 and sum(lead[0]) == dd
    inv = field.inv(divisor[lead[0]])
    rem, quo = dict(p), {}
    while True:
        high = [e for e in rem if e[i] >= dd]
        if not high:
            return quo, rem
        e = max(high, key=lambda e: (e[i], grlex_key(e)))
        qe = e[:i] + (e[i] - dd,) + e[i + 1:]
        qc = field.mul(rem[e], inv)
        quo[qe] = qc
        rem = _minus_product(field, rem, qe, qc, divisor)


def tuple_sort_key(p):
    """``Poly.sort_key`` from the tuple-keyed terms."""
    key = []
    for exps, c in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        if p.field.kind is FieldKind.PRIME:
            key.append((exps, c))
        else:
            key.append((exps, c.numerator, c.denominator))
    return tuple(key)
