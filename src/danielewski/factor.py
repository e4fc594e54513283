"""Univariate gcd, factorization, and root finding.

Internally polynomials are dense coefficient lists in ascending degree,
with ``[]`` as zero.  One kernel (``_norm``, ``_add``, ``_sub``, ``_mul``,
``_divmod``, ``_monic``, ``_gcd``, ``_xgcd``, ``_pow_mod``, ``_diff``) does
all dense arithmetic over Z/m, where the modulus ``m`` is

* a prime p: int residues in [0, p) over F_p;
* p**k: inside the Hensel step, dividing only by monic polynomials;
* 0: exact arithmetic on raw Q values (``int`` or ``Fraction``) or on Z.

``FieldSpec.modulus`` is 0 for Q, so callers pass ``field.modulus``.

One pipeline serves both fields.  A squarefree split (``squarefree_list``,
p-th-power aware over F_p) comes first.  Over F_p each squarefree part is
then split by distinct degree and by equal degree -- randomized for odd p,
a deterministic trace-map variant for p = 2.  Over Q each squarefree part
of degree >= 2 is factored modulo a good odd prime, Hensel-lifted, and
recombined by subsets (Zassenhaus).  Roots are read off the linear factors.

Each factorization re-expands its output and compares with the input
before returning.  The output is sorted, so it does not depend on the
random choices of the equal-degree splitting.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import DanielewskiError, SearchCapExceededError
from .fields import FieldKind, FieldSpec, Scalar, _is_prime, q_norm
from .poly import SLOT_MASK, Poly, unit_key

# ---------------------------------------------------------------------------
# dense kernel over Z/m (m = p, p**k, or 0 for exact Q/Z arithmetic)
# ---------------------------------------------------------------------------


def _deg(f: List) -> int:
    return len(f) - 1


def _norm(f, m) -> List:
    """A new list: entries reduced mod m (when m > 0), leading zeros dropped."""
    f = [c % m for c in f] if m else list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _inv(c, m):
    if m:
        return pow(c, -1, m)
    # an integral inverse (a monic divisor) keeps int entries int
    return q_norm(1 / Fraction(c))


def _add(f, g, m):
    n = max(len(f), len(g))
    return _norm([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                  for i in range(n)], m)


def _sub(f, g, m):
    return _add(f, [-c for c in g], m)


def _mul(f, g, m):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _norm(out, m)


def _divmod(f, g, m):
    """(q, r) with f = q*g + r and deg r < deg g.  The lead of g must be a
    unit mod m.  For m = 0, int entries stay int only when lead(g) is +-1."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    r = _norm(f, m)
    dg = _deg(g)
    inv = _inv(g[-1], m)
    q = [0] * max(0, len(r) - dg)
    while len(r) > dg:
        k = len(r) - 1 - dg
        c = r[-1] * inv % m if m else r[-1] * inv
        q[k] = c
        if m:
            for i, b in enumerate(g):
                r[k + i] = (r[k + i] - c * b) % m
        else:
            for i, b in enumerate(g):
                r[k + i] -= c * b
        while r and r[-1] == 0:
            r.pop()
    return q, r


def _monic(f, m):
    if not f:
        return []
    inv = _inv(f[-1], m)
    return [c * inv % m for c in f] if m else [c * inv for c in f]


def _gcd(f, g, m):
    """Monic gcd; gcd(0, 0) = []."""
    while g:
        f, g = g, _divmod(f, g, m)[1]
    return _monic(f, m)


def _xgcd(f, g, m):
    """(d, s, t) with d the monic gcd and s*f + t*g = d; f, g not both zero."""
    r0, r1 = _norm(f, m), _norm(g, m)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, m), m)
        t0, t1 = t1, _sub(t0, _mul(q, t1, m), m)
    inv = [_inv(r0[-1], m)]
    return _monic(r0, m), _mul(s0, inv, m), _mul(t0, inv, m)


def _pow_mod(f, e, g, m):
    """f**e mod g."""
    result = [1]
    base = _divmod(f, g, m)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, m), g, m)[1]
        base = _divmod(_mul(base, base, m), g, m)[1]
        e >>= 1
    return result


def _diff(f, m):
    return _norm([i * c for i, c in enumerate(f)][1:], m)


# ---------------------------------------------------------------------------
# squarefree split over F_p and Q
# ---------------------------------------------------------------------------


def squarefree_list(f, m) -> List[Tuple[List, int]]:
    """Monic input over F_m (m prime) or Q (m = 0); returns [(g_i, m_i)]
    with f = prod g_i^m_i, g_i monic squarefree and pairwise coprime."""
    factors: List[Tuple[List, int]] = []
    n = 1
    while _deg(f) > 0:
        d = _diff(f, m)
        if not d:
            # only in characteristic m: f = g(X^m), and over the prime
            # field coefficients are Frobenius-fixed, so f = g'^m with
            # g' = sum f[m*i] X^i
            f = f[::m]
            n *= m
            continue
        g = _gcd(f, d, m)
        w = _divmod(f, g, m)[0]
        i = 1
        while _deg(w) > 0:
            y = _gcd(w, g, m)
            z = _divmod(w, y, m)[0]
            if _deg(z) > 0:
                factors.append((z, i * n))
            w = y
            g = _divmod(g, y, m)[0]
            i += 1
        f = g  # remaining p-th-power part (constant 1 over Q)
    return factors


# ---------------------------------------------------------------------------
# factorization over F_p
# ---------------------------------------------------------------------------


def fp_distinct_degree(f, p) -> List[Tuple[List[int], int]]:
    """Monic squarefree input; returns [(product of irreducibles of degree k, k)]."""
    out = []
    h = [0, 1]  # X
    k = 0
    while _deg(f) >= 2 * (k + 1):
        k += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd(_sub(h, [0, 1], p), f, p)
        if _deg(g) > 0:
            out.append((g, k))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1] if f else h
    if _deg(f) > 0:
        out.append((f, _deg(f)))
    return out


def _fp_edf_odd(f, k, p, rng: random.Random) -> List[List[int]]:
    n = _deg(f)
    if n == k:
        return [f]
    half = (p ** k - 1) // 2
    while True:
        r = _norm([rng.randrange(p) for _ in range(n)], p)
        if _deg(r) < 1:
            continue
        g = _gcd(r, f, p)
        if 0 < _deg(g) < n:
            break
        s = _pow_mod(r, half, f, p)
        g = _gcd(_sub(s, [1], p), f, p)
        if 0 < _deg(g) < n:
            break
    rest = _divmod(f, g, p)[0]
    return _fp_edf_odd(g, k, p, rng) + _fp_edf_odd(rest, k, p, rng)


def _fp_edf_two(f, k) -> List[List[int]]:
    """Deterministic equal-degree splitting over F_2 via trace maps."""
    p = 2
    n = _deg(f)
    if n == k:
        return [f]
    j = 1
    while True:
        r = _divmod([0] * j + [1], f, p)[1]  # X^j mod f
        t = []
        cur = r
        for _ in range(k):
            t = _add(t, cur, p)
            cur = _divmod(_mul(cur, cur, p), f, p)[1]
        g = _gcd(t, f, p)
        if 0 < _deg(g) < n:
            rest = _divmod(f, g, p)[0]
            return _fp_edf_two(g, k) + _fp_edf_two(rest, k)
        j += 1


def fp_factor_squarefree(f, p, rng: random.Random) -> List[List[int]]:
    """Monic squarefree -> list of monic irreducibles."""
    out = []
    for g, k in fp_distinct_degree(f, p):
        if p == 2:
            out.extend(_fp_edf_two(g, k))
        else:
            out.extend(_fp_edf_odd(g, k, p, rng))
    return out


def fp_factor(f, p) -> Tuple[int, List[Tuple[List[int], int]]]:
    """Any nonzero dense poly -> (leading coefficient, [(monic irred, mult)])."""
    lc = f[-1] % p
    f = _monic(f, p)
    rng = random.Random(f"factor|{p}|{f}")
    factors = []
    for g, m in squarefree_list(f, p):
        for q in fp_factor_squarefree(g, p, rng):
            factors.append((q, m))
    return lc, factors


# ---------------------------------------------------------------------------
# polynomials over F_q = F_p[X]/(q) and their roots in F_q
# ---------------------------------------------------------------------------


class Fq:
    """The field F_q = F_p[X]/(q), q monic irreducible over F_p, and dense
    polynomials in one variable T over it.

    An element is its dense F_p remainder mod q (``[]`` is zero); a
    polynomial is an ascending list of elements without trailing zeros.
    Element arithmetic is the F_p kernel above followed by one reduction
    mod q.  Inverses are cached: a small field repeats them, and the cache
    lives as long as the object."""

    def __init__(self, q: List[int], p: int):
        self.q = q
        self.p = p
        self.degree = _deg(q)
        self.size = p ** self.degree
        self._inverses = {}

    # elements

    def reduce(self, a):
        return _divmod(a, self.q, self.p)[1] if len(a) > self.degree else a

    def mul(self, a, b):
        return self.reduce(_mul(a, b, self.p))

    def inv(self, a):
        key = tuple(a)
        inv = self._inverses.get(key)
        if inv is None:
            inv = self._inverses[key] = _xgcd(a, self.q, self.p)[1]
        return inv

    def neg(self, a):
        return _norm([-c for c in a], self.p)

    def elements(self):
        """Every element, in a fixed order."""
        for digits in itertools.product(range(self.p), repeat=self.degree):
            yield _norm(list(digits), self.p)

    # polynomials in T

    def poly(self, coeffs):
        """An F_p[X]-coefficient list read mod q, trailing zeros dropped."""
        out = [self.reduce(c) for c in coeffs]
        while out and not out[-1]:
            out.pop()
        return out

    def add(self, f, g):
        p = self.p
        n = max(len(f), len(g))
        out = [_add(f[i] if i < len(f) else [], g[i] if i < len(g) else [], p)
               for i in range(n)]
        while out and not out[-1]:
            out.pop()
        return out

    def sub(self, f, g):
        return self.add(f, [self.neg(c) for c in g])

    def pmul(self, f, g):
        if not f or not g:
            return []
        p = self.p
        out = [[] for _ in range(len(f) + len(g) - 1)]
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    if b:
                        out[i + j] = _add(out[i + j], _mul(a, b, p), p)
        return self.poly(out)

    def pdivmod(self, f, g):
        """(quotient, remainder) of f by a nonzero g."""
        p = self.p
        r = list(f)
        dg = len(g) - 1
        inv = self.inv(g[-1])
        quo = [[] for _ in range(max(0, len(r) - dg))]
        # entries of r below the lead stay unreduced mod q until they lead
        while len(r) > dg:
            lead = self.reduce(r.pop())
            if lead:
                k = len(r) - dg
                c = quo[k] = self.mul(lead, inv)
                for i, b in enumerate(g[:-1]):
                    r[k + i] = _sub(r[k + i], _mul(c, b, p), p)
        return quo, self.poly(r)

    def monic(self, f):
        if not f:
            return []
        inv = self.inv(f[-1])
        return [self.mul(c, inv) for c in f]

    def gcd(self, f, g):
        """Monic gcd; gcd(0, 0) = []."""
        while g:
            f, g = g, self.pdivmod(f, g)[1]
        return self.monic(f)

    def pow_mod(self, f, e, g):
        """f**e mod g."""
        result = [[1]]
        base = self.pdivmod(f, g)[1]
        while e:
            if e & 1:
                result = self.pdivmod(self.pmul(result, base), g)[1]
            base = self.pdivmod(self.pmul(base, base), g)[1]
            e >>= 1
        return result

    def roots(self, f) -> List[List[int]]:
        """The distinct roots in F_q of a nonzero f, sorted.

        A linear f gives its root at once.  Otherwise the roots are those of
        gcd(f, T^size - T), a product of distinct linear factors, which is
        split by equal degree: with (T + a)^((size - 1)/2) - 1 for random a
        when p is odd, seeded from the input as ``fp_factor`` does, and with
        the trace maps Tr(X^j T) for p = 2."""
        f = self.monic(f)
        if len(f) > 2:
            t = [[], [1]]
            f = self.gcd(f, self.sub(self.pow_mod(t, self.size, f), t))
        return sorted(self._split(f))

    def _split(self, f) -> List[List[int]]:
        if len(f) <= 2:
            return [self.neg(f[0])] if len(f) == 2 else []
        for g in self._splitters(f):
            g = self.gcd(f, g)
            if 1 < len(g) < len(f):
                return self._split(g) + self._split(self.pdivmod(f, g)[0])
        raise DanielewskiError(f"no equal-degree split of a product of linear factors {f}")

    def _splitters(self, f):
        """Polynomials whose gcd with f, a product of at least two distinct
        monic linear factors over F_q, is a proper factor, often (p odd)
        or for at least one of them (p = 2)."""
        if self.p == 2:
            # Tr(b r) for the roots r of f is not constant for some b in the
            # basis X^j: the trace form is nondegenerate
            for j in range(self.degree):
                cur = [[], [0] * j + [1]]
                trace = []
                for _ in range(self.degree):
                    trace = self.add(trace, cur)
                    cur = self.pdivmod(self.pmul(cur, cur), f)[1]
                yield trace
            return
        rng = random.Random(f"roots|{self.p}|{self.q}|{f}")
        half = (self.size - 1) // 2
        while True:
            a = _norm([rng.randrange(self.p) for _ in range(self.degree)], self.p)
            yield self.sub(self.pow_mod([a, [1]], half, f), [[1]])


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
    return _norm(out, 0)


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
    e = _sub(f, _mul(g, h, M), M)
    q, r = _divmod(_mul(s, e, M), h, M)
    G = _add(_add(g, _mul(t, e, M), M), _mul(q, g, M), M)
    H = _add(h, r, M)
    b = _sub(_add(_mul(s, G, M), _mul(t, H, M), M), [1], M)
    c, d = _divmod(_mul(s, b, M), H, M)
    S = _sub(s, d, M)
    T = _sub(_sub(t, _mul(t, b, M), M), _mul(c, G, M), M)
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
        return [zz_trunc_sym(_monic(f, p ** l), p ** l)]
    k = len(factors) // 2
    d = max(1, math.ceil(math.log2(l)))
    g = [lc % p]
    for fac in factors[:k]:
        g = _mul(g, fac, p)
    h = [1]
    for fac in factors[k:]:
        h = _mul(h, fac, p)
    one, s, t = _xgcd(g, h, p)
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
    n = _deg(f)
    if n == 1:
        return [f]
    lc = f[-1]
    # good prime: lc survives and f stays squarefree mod p; only the primes
    # dividing lc * disc(f) != 0 are bad, so the walk ends
    p = 1
    while True:
        p += 2
        if not _is_prime(p) or lc % p == 0:
            continue
        fp = _norm(f, p)
        if _deg(_gcd(fp, _diff(fp, p), p)) == 0:
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
                cand = zz_trunc_sym(_mul(cand, lifted[i], 0), m)
            cand = zz_primitive(cand)[1]
            quo, r = _divmod(rest, cand, 0)
            if not r:
                # cand is primitive, so by Gauss's lemma quo is integral
                result.append(cand)
                rest = [int(c) for c in quo]
                available = [i for i in available if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if _deg(rest) > 0:
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


def poly_to_dense(p: Poly, var: str) -> List:
    if p.is_zero:
        return []
    off = p.slot(var)[0]
    out = [p.field.zero()] * (p.degree_in(var) + 1)
    for k, c in p.packed.items():
        out[(k >> off) & SLOT_MASK] = c
    return out


def dense_to_poly(dense, field: FieldSpec, vars: Tuple[str, ...], var: str) -> Poly:
    vars = tuple(vars)
    unit = unit_key(len(vars), vars.index(var))
    terms = {}
    for e, c in enumerate(dense):
        raw = field.coerce(c)
        if raw != 0:
            terms[e * unit] = raw
    return Poly._raw(field, vars, terms)


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
    g = _gcd(poly_to_dense(a.with_vars(vars_out), var),
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
        factors = [(irr, m) for g, m in squarefree_list(_monic(dense, 0), 0)
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
    if _deg(g) == 1:
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
    var = _require_univariate(p)
    if p.total_degree() <= 0:
        return True
    d = p.derivative(var)
    if d.is_zero:
        return False
    g = gcd_univariate(p, d)
    return g.total_degree() == 0
