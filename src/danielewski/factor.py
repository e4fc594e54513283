"""Univariate gcd, factorization, and root finding.

The work is done on dense coefficient lists by the kernel of ``dense``,
over F_p (modulus p), over Z/p**k inside the Hensel step, and over Q
(modulus 0).

One pipeline serves both fields.  A squarefree split (``squarefree_list``,
p-th-power aware over F_p) comes first.  Over F_p each squarefree part is
then split by distinct degree, and each product of irreducibles of one
degree by the equal-degree split of ``dense.Fp``, the Cantor-Zassenhaus
that also finds roots over F_p and F_q.  Over Q each squarefree part of
degree >= 2 is factored modulo a good odd prime, Hensel-lifted, and
recombined by subsets (Zassenhaus).  Roots are read off the linear factors.

Each factorization re-expands its output and compares with the input
before returning.  The equal-degree split sorts its output, so nothing
depends on its random choices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .dense import (Fp, add, deg, dense_to_poly, divrem, gcd, hasse, monic, mul, norm,
                    poly_to_dense, sub, xgcd)
from .errors import DanielewskiError, SearchCapExceededError
from .fields import FieldKind, Scalar, is_prime
from .poly import Poly

# ---------------------------------------------------------------------------
# squarefree split over F_p and Q
# ---------------------------------------------------------------------------


def squarefree_list(f, m) -> List[Tuple[List, int]]:
    """Monic input over F_m (m prime) or Q (m = 0); returns [(g_i, m_i)]
    with f = prod g_i^m_i, g_i monic squarefree and pairwise coprime."""
    factors: List[Tuple[List, int]] = []
    n = 1
    while deg(f) > 0:
        d = hasse(f, 1, m)
        if not d:
            # only in characteristic m: f = g(X^m), and over the prime
            # field coefficients are Frobenius-fixed, so f = g'^m with
            # g' = sum f[m*i] X^i
            f = f[::m]
            n *= m
            continue
        g = gcd(f, d, m)
        w = divrem(f, g, m)[0]
        i = 1
        while deg(w) > 0:
            y = gcd(w, g, m)
            z = divrem(w, y, m)[0]
            if deg(z) > 0:
                factors.append((z, i * n))
            w = y
            g = divrem(g, y, m)[0]
            i += 1
        f = g  # remaining p-th-power part (constant 1 over Q)
    return factors


# ---------------------------------------------------------------------------
# factorization over F_p
# ---------------------------------------------------------------------------


def fp_distinct_degree(f, p) -> List[Tuple[List[int], int]]:
    """Monic squarefree input; returns [(product of irreducibles of degree k, k)]."""
    out = []
    field = Fp(p)
    h = [0, 1]  # X
    k = 0
    while deg(f) >= 2 * (k + 1):
        k += 1
        h = field.pow_mod(h, p, f)
        g = gcd(sub(h, [0, 1], p), f, p)
        if deg(g) > 0:
            out.append((g, k))
            f = divrem(f, g, p)[0]
            h = divrem(h, f, p)[1] if f else h
    if deg(f) > 0:
        out.append((f, deg(f)))
    return out


def fp_factor(f, p) -> Tuple[int, List[Tuple[List[int], int]]]:
    """Any nonzero dense poly -> (leading coefficient, [(monic irred, mult)]):
    squarefree split, distinct-degree split, then equal-degree split."""
    field = Fp(p)
    factors = []
    for g, m in squarefree_list(monic(f, p), p):
        for h, k in fp_distinct_degree(g, p):
            factors.extend((q, m) for q in field.split(h, k))
    return f[-1] % p, factors


# ---------------------------------------------------------------------------
# factorization over Z (Hensel lifting and Zassenhaus recombination)
# ---------------------------------------------------------------------------


def zz_trunc_sym(f, m):
    """Reduce coefficients into the symmetric range (-m/2, m/2]."""
    out = []
    for c in f:
        c %= m
        if c > m // 2:
            c -= m
        out.append(c)
    return norm(out, 0)


def zz_primitive(f) -> Tuple[int, List[int]]:
    if not f:
        return 0, []
    g = 0
    for c in f:
        g = math.gcd(g, c)
    if f[-1] < 0:
        g = -g
    return g, [c // g for c in f]


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: from f = g*h and s*g + t*h = 1 (mod m), with h
    monic, to the same congruences mod m**2."""
    M = m * m
    e = sub(f, mul(g, h, M), M)
    q, r = divrem(mul(s, e, M), h, M)
    G = add(add(g, mul(t, e, M), M), mul(q, g, M), M)
    H = add(h, r, M)
    b = sub(add(mul(s, G, M), mul(t, H, M), M), [1], M)
    c, d = divrem(mul(s, b, M), H, M)
    S = sub(s, d, M)
    T = sub(sub(t, mul(t, b, M), M), mul(c, G, M), M)
    return G, H, S, T


def _hensel_lift(p, f, factors, l):
    """Lift monic factors of f mod p to factors mod p**l.

    f in Z[X] with lc(f) not divisible by p; factors monic mod p with
    f = lc(f) * prod(factors) (mod p).  Returns the lifted monic factors
    except that the first group absorbs the leading coefficient.
    """
    lc = f[-1]
    if len(factors) == 1:
        # monic version of f mod p**l
        return [zz_trunc_sym(monic(f, p ** l), p ** l)]
    k = len(factors) // 2
    d = max(1, math.ceil(math.log2(l)))
    g = [lc % p]
    for fac in factors[:k]:
        g = mul(g, fac, p)
    h = [1]
    for fac in factors[k:]:
        h = mul(h, fac, p)
    one, s, t = xgcd(g, h, p)
    if one != [1]:
        raise DanielewskiError("inputs not coprime in Hensel bootstrap")
    m = p
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
        if m >= p ** l:
            break
    return _hensel_lift(p, g, factors[:k], l) + _hensel_lift(p, h, factors[k:], l)


# the most subsets of modular factors that Zassenhaus recombination tries
MAX_RECOMBINATION_SUBSETS = 2**10


def zz_factor_squarefree(f: List[int]) -> List[List[int]]:
    """Primitive squarefree integer polynomial of degree >= 1 -> primitive
    irreducible factors with positive leading coefficients.

    Recombination tries subsets of the modular factors, whose number grows
    exponentially with the count of those factors (Swinnerton-Dyer
    polynomials split into linear and quadratic factors modulo every
    prime).  Before each enumeration of the subsets of one size it raises
    ``SearchCapExceededError`` when the subsets tried so far plus those of
    that size would pass ``MAX_RECOMBINATION_SUBSETS``."""
    n = deg(f)
    if n == 1:
        return [f]
    lc = f[-1]
    # good prime: lc survives and f stays squarefree mod p; only the primes
    # dividing lc * disc(f) != 0 are bad, so the walk ends
    p = 1
    while True:
        p += 2
        if not is_prime(p) or lc % p == 0:
            continue
        fp = norm(f, p)
        if deg(gcd(fp, hasse(fp, 1, p), p)) == 0:
            break
    _, modular = fp_factor(fp, p)
    modular_factors = [g for g, _ in modular]
    if len(modular_factors) == 1:
        return [f]
    # Mignotte-style bound on factor coefficients, then lift to p**l > 2*bound
    max_abs = max(abs(c) for c in f)
    bound = int(math.isqrt(n + 1) + 1) * (2 ** n) * max_abs * abs(lc)
    l = 1
    while p ** l <= 2 * bound:
        l += 1
    lifted = _hensel_lift(p, f, sorted(modular_factors), l)
    m = p ** l

    result = []
    rest = f
    available = list(range(len(lifted)))
    size = 1
    tried = 0
    while 2 * size <= len(available):
        needed = tried + math.comb(len(available), size)
        if needed > MAX_RECOMBINATION_SUBSETS:
            raise SearchCapExceededError(needed, MAX_RECOMBINATION_SUBSETS)
        found = False
        for combo in itertools.combinations(available, size):
            tried += 1
            cand = [rest[-1] % m]
            for i in combo:
                cand = zz_trunc_sym(mul(cand, lifted[i], 0), m)
            cand = zz_primitive(cand)[1]
            quo, r = divrem(rest, cand, 0)
            if not r:
                # cand is primitive, so by Gauss's lemma quo is integral
                result.append(cand)
                rest = [int(c) for c in quo]
                available = [i for i in available if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if deg(rest) > 0:
        result.append(zz_primitive(rest)[1])
    return result


# ---------------------------------------------------------------------------
# public API on Poly
# ---------------------------------------------------------------------------


def _require_univariate(p: Poly) -> str:
    used = p.used_vars()
    if len(used) > 1:
        raise ValueError(f"expected a univariate polynomial, got variables {used}")
    if used:
        return used[0]
    if len(p.vars) != 1:
        raise ValueError("constant polynomial with ambiguous variable; pass a 1-variable Poly")
    return p.vars[0]


def gcd_univariate(a: Poly, b: Poly) -> Poly:
    """Monic gcd of univariate polynomials in one shared variable.

    gcd(p, 0) is the monic scalar multiple of p and gcd(0, 0) = 0.
    """
    if a.field != b.field:
        raise DanielewskiError("gcd operands over different fields")
    va = a.used_vars()
    vb = b.used_vars()
    used = set(va) | set(vb)
    if len(used) > 1:
        raise ValueError(f"gcd needs univariate inputs in one variable, got {sorted(used)}")
    var = next(iter(used)) if used else (a.vars[0] if a.vars else "X")
    vars_out = a.vars if var in a.vars else b.vars
    field = a.field
    g = gcd(poly_to_dense(a.with_vars(vars_out), var),
             poly_to_dense(b.with_vars(vars_out), var), field.modulus)
    return dense_to_poly(g, field, vars_out, var)


@dataclass(frozen=True)
class Factorization:
    """Complete factorization: lead * prod(poly ** mult)."""

    lead: Scalar
    factors: Tuple[Tuple[Poly, int], ...]

    def expand(self) -> Poly:
        field = self.lead.field
        vars_out = self.factors[0][0].vars if self.factors else ("X",)
        acc = Poly.const(field, vars_out, self.lead)
        for q, m in self.factors:
            acc = acc * q ** m
        return acc

    def __str__(self):
        """The product as text, e.g. ``(X + 1)^2 * (X^2 + X + 1)``, the lead if not 1."""
        parts = [f"({q})^{m}" if m > 1 else f"({q})" for q, m in self.factors]
        if self.lead != 1 or not parts:
            parts.insert(0, str(self.lead))
        return " * ".join(parts)

    def multiplicity_multiset(self) -> Tuple[int, ...]:
        return tuple(sorted(m for _, m in self.factors))

    def degree_multiset(self) -> Tuple[int, ...]:
        return tuple(sorted(int(q.total_degree()) for q, _ in self.factors))

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def roots(self) -> List[Scalar]:
        """The roots in the coefficient field, repeated by multiplicity and
        sorted: minus the constant term of each monic linear factor."""
        roots = []
        for q, m in self.factors:
            if q.total_degree() == 1:
                constant = q.packed.get(0, 0)
                roots.extend([Scalar(self.lead.field, -constant)] * m)
        return sorted(roots, key=Scalar.sort_key)


def factor_univariate(p: Poly) -> Factorization:
    """Factor a nonzero univariate polynomial into monic irreducibles.

    Squarefree split, then distinct/equal-degree splitting over F_p or
    Zassenhaus over Q.  The result re-expands to the input (checked before
    returning).
    """
    if p.is_zero:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    var = _require_univariate(p)
    field = p.field
    dense = poly_to_dense(p, var)
    if len(dense) == 1:
        return Factorization(Scalar(field, dense[0]), ())
    if field.kind is FieldKind.PRIME:
        lead_raw, factors = fp_factor(dense, field.modulus)
    else:
        lead_raw = dense[-1]
        factors = [(irr, m) for g, m in squarefree_list(monic(dense, 0), 0)
                   for irr in _q_factor_squarefree(g)]
    result = Factorization(
        Scalar(field, lead_raw),
        tuple(sorted(
            ((dense_to_poly(q, field, p.vars, var), m) for q, m in factors),
            key=lambda fm: (fm[1], fm[0].sort_key()),
        )),
    )
    if result.expand() != p.with_vars(p.vars):
        raise DanielewskiError(f"factorization self-check failed for {p}")
    return result


def _q_factor_squarefree(g: List) -> List[List]:
    """Monic squarefree Q polynomial -> monic irreducible factors."""
    if deg(g) == 1:
        return [g]
    den = math.lcm(*[c.denominator for c in g])
    _, zf = zz_primitive([int(c * den) for c in g])
    return [[Fraction(c, q[-1]) for c in q] for q in zz_factor_squarefree(zf)]


def roots_in_field(p: Poly) -> List[Scalar]:
    """All roots in the coefficient field, repeated by multiplicity and
    sorted: the linear factors of ``factor_univariate(p)``."""
    if p.is_zero:
        raise ZeroDivisionError("the zero polynomial has every root")
    return factor_univariate(p).roots()


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    fac = factor_univariate(p)
    acc = Poly.one(p.field, p.vars)
    for q, _ in fac.factors:
        acc = acc * q
    return acc


def is_squarefree(p: Poly) -> bool:
    """Squarefree over the algebraic closure: gcd(p, p') = 1, where a
    vanishing derivative (char p) means a p-th power, hence not squarefree
    unless constant."""
    f, m = poly_to_dense(p, _require_univariate(p)), p.field.modulus
    d = hasse(f, 1, m)
    return len(f) <= 1 or (bool(d) and len(gcd(f, d, m)) == 1)
