"""Independent oracles the tests check the implementation against.

These deliberately avoid the production code paths they judge: the
determinant oracle is plain cofactor expansion; over a small prime field
the isomorphism oracles try every (gamma, delta) pair for one (lambda, mu),
with no lifting or CRT, and every (lambda, mu, gamma, delta) tuple filtered
through verify_iso alone; the stepwise normal form rewrites one
term at a time instead of through the reduced Z-power table, the Horner
evaluator applies a ring map with A's own + and * instead of one
substitution followed by one normalization, and V5 of a stable-isomorphism
certificate is recomputed by applying the extended canonical map to theta,
s and w through that evaluator instead of being deduced from V2 and V4;
the roots of a polynomial over a prime field are found by evaluating it at
every residue, not read off its factorization.
"""

from __future__ import annotations

import itertools
from typing import Optional

from danielewski import (IsoCertificate, Poly, Scalar, canonical_expmap, divide_by_x,
                         exact_div, verify_iso)
from danielewski.errors import ComaximalityError
from danielewski.poly import divmod_in, grlex_key, substitute
from danielewski.resultant import det_bareiss, resultant_in, sylvester_matrix
from danielewski.surface import SurfaceElement, eval_poly_on_elements

BASE_VARS = ("X", "Y", "Z")


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


def brute_force_certificates(s1, s2):
    """Every certificate over a prime field, by exhaustive enumeration of
    (lambda, mu, gamma, delta) filtered through verify_iso."""
    field = s1.field
    p = field.modulus
    found = {}
    for lam_raw in range(1, p):
        for mu_raw in range(p):
            lam, mu = Scalar(field, lam_raw), Scalar(field, mu_raw)
            for gamma, delta, theta in exhaustive_gamma_delta(s1, s2, lam, mu):
                try:
                    cert = IsoCertificate(s1, s2, lam, mu, gamma, delta, lam ** s1.r, theta)
                except ValueError:
                    continue
                if verify_iso(cert).ok:
                    found[cert.tuple_key()] = cert
    return found


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


def _eq7_remainder(cert):
    """P(x, theta) - P(x, z) - h v P_Z in A[v]."""
    spec = cert.spec_a
    h_el = spec.from_xz_poly(cert.h.with_vars(("X", "Z")))
    pz_el = spec.from_xz_poly(spec.P.derivative("Z"))
    p_at_theta = eval_poly_on_elements(spec.P, {"Z": cert.theta}, spec)
    return p_at_theta - spec.from_xz_poly(spec.P) - h_el * spec.generator("v") * pz_el


def eq7_defect(cert):
    """P(x, theta) - P(x, z) - h v P_Z - h x corr; zero for valid data."""
    spec = cert.spec_a
    h_el = spec.from_xz_poly(cert.h.with_vars(("X", "Z")))
    return _eq7_remainder(cert) - h_el * spec.x() * cert.corr


def corr_by_division(cert) -> Optional[SurfaceElement]:
    """The correction term recomputed as (P(x,theta) - P(x,z) - h v P_Z)/(h x),
    dividing coefficient-wise by h and then by x; None when not exact."""
    num = _eq7_remainder(cert)
    out = {}
    for i, gpoly in num.coeffs.items():
        q = exact_div(gpoly, cert.h.with_vars(gpoly.vars))
        if q is None:
            return None
        out[i] = q
    return divide_by_x(SurfaceElement(cert.spec_a, num.aux, out))


def v5_by_application(cert):
    """(phi(theta) = theta, phi(s) = s, phi(w) = w - U) for the extended
    canonical map (phi(v) = v - x U), each computed by applying phi."""
    spec = cert.spec_a
    m = canonical_expmap(spec)
    images = {"X": m.image_x, "Y": m.image_y, "Z": m.image_z,
              "v": spec.generator("v") - spec.x() * spec.generator("U")}

    def phi(e):
        return eval_by_horner(e.raw_lift(), images, spec)

    return (phi(cert.theta) == cert.theta, phi(cert.s) == cert.s,
            phi(cert.w) == cert.w - spec.generator("U"))
