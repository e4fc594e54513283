"""Resultants and Bezout cofactors by fraction-free elimination.

Determinants are computed by fraction-free (Bareiss) elimination over the
polynomial ring in the variables that are not eliminated.

``resultant_in`` is the general resultant.  When the first argument p is
monic of degree m in the eliminated variable, K[..][var]/(p) is free with
basis 1, var, ..., var**(m-1); multiplication by q has an m x m matrix M
over the remaining variables, and Res(p, q) = det M.  Otherwise the
resultant is the determinant of the Sylvester matrix.  Degenerate degrees
follow the actual degrees of the inputs: a zero companion gives resultant 0,
a companion constant in the eliminated variable gives c**deg(other).

``bezout_cofactors`` solves a*P_Z + b*P = 1 for monic P with the same
matrix M of multiplication by P_Z: a = P_Z**-1 mod P solves M a = e_0, so
one fraction-free Gauss-Jordan elimination of [M | e_0] gives det M and
det(M) * a together, and b = (1 - a P_Z)/P follows by exact division.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import ComaximalityError, VerificationInternalError
from .poly import NEG_INF, Poly, divmod_in, exact_div


def sylvester_matrix(p: Poly, q: Poly, var: str) -> List[List[Poly]]:
    """The (m+n) x (m+n) Sylvester matrix of p (degree m) and q (degree n)
    in ``var``; entries are coefficient polynomials over the same variable
    tuple with ``var`` zeroed out.  First n rows shift p, last m shift q."""
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m < 1 or n < 1:
        raise ValueError("sylvester_matrix needs positive degrees in the eliminated variable")
    pc = p.coefficients_in(var)
    qc = q.coefficients_in(var)
    zero = Poly.zero(p.field, p.vars)
    size = m + n
    rows = []
    for i in range(n):  # row i: coefficients of var**(n-1-i) * p
        row = [zero] * size
        for k, c in pc.items():
            row[size - 1 - (k + n - 1 - i)] = c
        rows.append(row)
    for j in range(m):
        row = [zero] * size
        for k, c in qc.items():
            row[size - 1 - (k + m - 1 - j)] = c
        rows.append(row)
    return rows


def _bareiss(matrix: List[List[Poly]], field, vars,
             rhs: Optional[List[Poly]] = None) -> Tuple[Poly, Optional[List[Poly]]]:
    """det(matrix) by fraction-free elimination, and adj(matrix) * rhs when a
    right-hand side is given and the matrix is nonsingular (else None).

    With a right-hand side the sweep also clears the rows above each pivot
    (Gauss-Jordan), so every diagonal entry ends at the determinant and the
    appended column at det * solution.  Each division by the previous pivot
    is exact (Sylvester's identity); a failed one is an internal error."""
    n = len(matrix)
    zero = Poly.zero(field, vars)
    m = [row[:] for row in matrix] if rhs is None else [
        row[:] + [r] for row, r in zip(matrix, rhs)]
    width = len(m[0]) if n else 0
    sign = 1
    prev = Poly.one(field, vars)
    for k in range(n):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero, None
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(n) if rhs is not None else range(k + 1, n):
            if i == k:
                continue
            row = m[i]
            lead = row[k]
            for j in range(k + 1, width):
                quo = exact_div(pivot * row[j] - lead * pivot_row[j], prev)
                if quo is None:
                    raise VerificationInternalError(
                        "Bareiss division failed; matrix entries corrupted")
                row[j] = quo
            row[k] = zero
        prev = pivot
    det = -prev if sign < 0 else prev
    if rhs is None:
        return det, None
    column = [row[n] for row in m]
    return det, [-c for c in column] if sign < 0 else column


def det_bareiss(matrix: List[List[Poly]], field, vars) -> Poly:
    """Exact determinant of a square matrix of polynomials."""
    return _bareiss(matrix, field, vars)[0]


def _multiplication_matrix(p: Poly, q: Poly, var: str) -> List[List[Poly]]:
    """The m x m matrix of multiplication by q on K[..][var]/(p), for p monic
    of degree m in ``var``: column j holds the coefficients of var**j * q
    mod p, row i the coefficient of var**i."""
    m = p.degree_in(var)
    zero = Poly.zero(p.field, p.vars)
    columns = []
    r = divmod_in(q, p, var)[1]
    for j in range(m):
        if j:
            r = divmod_in(r.mul_var_power(var, 1), p, var)[1]
        columns.append(r.coefficients_in(var))
    return [[col.get(i, zero) for col in columns] for i in range(m)]


def _is_monic_in(p: Poly, var: str) -> bool:
    lead = p.coeff_in(var, p.degree_in(var))
    return lead.is_constant and lead.constant_value() == 1


def resultant_in(p: Poly, q: Poly, var: str) -> Poly:
    """Resultant of p and q eliminating ``var``; the result lives over the
    remaining variables (same tuple, ``var`` unused)."""
    p._check_compat(q)
    m = p.degree_in(var)
    n = q.degree_in(var)
    dm = 0 if m is NEG_INF else m
    dn = 0 if n is NEG_INF else n
    if dm < 1 and dn < 1:
        raise ValueError(f"both inputs are constant in {var!r}")
    if p.is_zero or q.is_zero:
        return Poly.zero(p.field, p.vars)
    if dn == 0:
        return q ** dm
    if dm == 0:
        return p ** dn
    if _is_monic_in(p, var):
        matrix = _multiplication_matrix(p, q, var)
    else:
        matrix = sylvester_matrix(p, q, var)
    return det_bareiss(matrix, p.field, p.vars)


def bezout_cofactors(P: Poly, Pz: Poly, var: str = "Z") -> Tuple[Poly, Poly]:
    """Polynomials (a, b) with a*Pz + b*P = 1 and deg a < deg P, for P monic
    of degree >= 2 in ``var`` with Res_var(P, Pz) a nonzero constant.  The
    identity is expanded and checked before returning; ComaximalityError,
    carrying Res_var(P, Pz), otherwise."""
    P._check_compat(Pz)
    m = P.degree_in(var)
    if m is NEG_INF or m < 2:
        raise ValueError(f"P must have degree >= 2 in {var!r}")
    if not _is_monic_in(P, var):
        raise ValueError(f"P must be monic in {var!r}")
    field = P.field
    vars = P.vars
    one = Poly.one(field, vars)
    zero = Poly.zero(field, vars)
    if Pz.is_zero:
        raise ComaximalityError("P_Z = 0, so (P, P_Z) is a proper ideal")
    if Pz.degree_in(var) == 0 and not Pz.is_constant:
        raise ComaximalityError(
            f"resultant {Pz}**{m} is non-constant, (P, P_Z) is a proper ideal", Pz ** m)
    matrix = _multiplication_matrix(P, Pz, var)
    res, adj_e0 = _bareiss(matrix, field, vars, [one] + [zero] * (m - 1))
    if res.is_zero or not res.is_constant:
        raise ComaximalityError(f"Res_{var}(P, P_Z) = {res} is not a nonzero constant", res)
    inv_res = res.constant_value().inverse()
    a = zero
    for i, c in enumerate(adj_e0):
        a = a + (c * inv_res).mul_var_power(var, i)
    b = divmod_in(one - a * Pz, P, var)[0]
    if a * Pz + b * P != one:
        raise VerificationInternalError("Bezout self-check failed; resultant machinery broken")
    return a, b
