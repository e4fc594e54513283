"""Resultants and Bezout cofactors: by translation to one variable when the
inputs allow it, else by fraction-free elimination.

Both routines first try a translation.  For p monic of degree m in the
eliminated variable Z, with m invertible in K and h = c_(m-1)/m (c_(m-1)
the coefficient of Z^(m-1)), p~(Z) = p(Z - h) has no Z^(m-1) term.  When
p~ and q~(Z) = q(Z - h) are both free of the other variable X, the
computation is univariate over K: a shift of Z changes no resultant, so
Res_Z(p, q) = Res(p~, q~) by Euclid's algorithm (``dense.resultant``), and
the Bezout pair is one extended gcd (``dense.xgcd``; von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 3) shifted back by Z -> Z + h.
Over Q this covers every comaximal P with q = P_Z: the affine line has no
connected etale cover of degree > 1 in characteristic 0, so P splits over
the algebraic closure into Z - r_i(X) whose differences are constant, and
P = Q(Z + h(X)) with Q in K[Z].

Otherwise (p | m in characteristic p, a non-translate, or more than two
variables) determinants are computed by fraction-free (Bareiss) elimination
over the polynomial ring in the variables that are not eliminated.

``resultant_in`` is the general resultant.  When the first argument p is
monic of degree m in the eliminated variable, K[..][var]/(p) is free with
basis 1, var, ..., var**(m-1); multiplication by q has an m x m matrix M
over the remaining variables, and Res(p, q) = det M.  Otherwise the
resultant is the determinant of the Sylvester matrix.  Degenerate degrees
follow the actual degrees of the inputs: a zero companion gives resultant 0,
a companion constant in the eliminated variable gives c**deg(other).

``bezout_cofactors`` solves a*q + b*P = 1 (q = P_Z for Thm 5.1) for monic
P.  A q free of Z is refused unless it is a nonzero constant c, which gives
(1/c, 0) at once (P_Z of Z^p + Z + X in characteristic p).  By
translation, s P~ + t q~ = 1 from the extended gcd gives
a~ = t mod P~ and b~ = s + (t div P~) q~, both shifted back, and a
translate with gcd(P~, q~) != 1 is refused with Res_Z(P, q) = 0.  By
elimination it uses the same matrix M of multiplication by q: a = q**-1
mod P solves M a = e_0, so one fraction-free Gauss-Jordan elimination of
[M | e_0] gives det M and det(M) * a together, and b = (1 - a q)/P by
exact division.  The pair with deg a < deg P is unique, so both routes
give the same pair, and the identity a*q + b*P = 1 is expanded and
checked on either.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .dense import (add, divrem, from_z_rows, mul, norm, resultant, shift, sub, xgcd,
                    z_rows)
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
                if lead.is_zero and row[j].is_zero:
                    continue            # (pivot 0 - 0 b) / prev stays 0
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


def _translated(p: Poly, q: Poly, var: str):
    """(p~, q~, h, x) with p~(Z) = p(Z - h) and q~(Z) = q(Z - h) dense over
    K and h = c_(m-1)/m dense in x, for p monic of degree m >= 1 in
    Z = ``var`` over two variables (x, Z) in either order; None when there
    are more variables, when m is not invertible in K, or when p~ or q~ is
    not free of x."""
    mod = p.field.modulus
    m = p.degree_in(var)
    if len(p.vars) != 2 or mod and m % mod == 0:
        return None
    x = p.vars[p.vars[0] == var]
    rows = z_rows(p, x, var)
    h = norm([p.field.div(c, m) for c in rows[m - 1]], mod)
    flat = []
    for f in (p, q):
        f_rows = rows if f is p else z_rows(q, x, var)
        if h:
            f_rows = shift(f_rows, sub([], h, mod), mod)
        if any(len(row) > 1 for row in f_rows):
            return None
        flat.append([row[0] if row else 0 for row in f_rows])
    return flat[0], flat[1], h, x


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
        translated = _translated(p, q, var)
        if translated is not None:
            return Poly.const(p.field, p.vars,
                              resultant(translated[0], translated[1], p.field.modulus))
        matrix = _multiplication_matrix(p, q, var)
    else:
        matrix = sylvester_matrix(p, q, var)
    return det_bareiss(matrix, p.field, p.vars)


def bezout_cofactors(P: Poly, Pz: Poly, var: str = "Z") -> Tuple[Poly, Poly]:
    """Polynomials (a, b) with a*Pz + b*P = 1 and deg a < deg P, for P monic
    of degree >= 2 in ``var`` with Res_var(P, Pz) a nonzero constant; Pz may
    be any polynomial over P's variables.  The identity is expanded and
    checked before returning; ComaximalityError, carrying Res_var(P, Pz),
    otherwise."""
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
    if Pz.degree_in(var) == 0:
        if not Pz.is_constant:
            raise ComaximalityError(
                f"resultant {Pz}**{m} is non-constant, (P, P_Z) is a proper ideal", Pz ** m)
        a, b = Poly.const(field, vars, field.inv(Pz.packed[0])), zero     # a unit c: (1/c, 0)
        aq = a * Pz
    elif (translated := _translated(P, Pz, var)) is not None:
        mod = field.modulus
        Pt, qt, h, x = translated
        gcd, s, t = xgcd(Pt, qt, mod)
        if len(gcd) > 1:
            raise ComaximalityError(
                f"Res_{var}(P, P_Z) = {zero} is not a nonzero constant", zero)
        k, at = divrem(t, Pt, mod)                  # s P~ + t q~ = 1, t = k P~ + a~
        bt = add(s, mul(k, qt, mod), mod)
        a, b = (from_z_rows(shift([[c] for c in f], h, mod), field, vars, x, var)
                for f in (at, bt))
        aq = a * Pz
    else:
        matrix = _multiplication_matrix(P, Pz, var)
        res, adj_e0 = _bareiss(matrix, field, vars, [one] + [zero] * (m - 1))
        if res.is_zero or not res.is_constant:
            raise ComaximalityError(f"Res_{var}(P, P_Z) = {res} is not a nonzero constant", res)
        a = zero
        for i, c in enumerate(adj_e0):
            a = a + c.mul_var_power(var, i)
        a = a * res.constant_value().inverse()
        aq = a * Pz
        b = divmod_in(one - aq, P, var)[0]
    if aq + b * P != one:
        raise VerificationInternalError("Bezout self-check failed; resultant machinery broken")
    return a, b
