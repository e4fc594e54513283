"""Dense univariate polynomials: ascending coefficient lists, ``[]`` is zero.

One kernel does all dense arithmetic over Z/m, where the modulus ``m`` is a
prime p (int residues in [0, p) over F_p), p**k (inside the Hensel step,
dividing only by monic polynomials) or 0 (exact arithmetic on raw Q values,
``int`` or ``Fraction``, or on Z); callers pass ``field.modulus``, which is
0 for Q.  Its Taylor routines are ``hasse``, the Taylor coefficients, and
``shift``, the Taylor shift by a polynomial in another variable.

Over a finite field, root finding and the equal-degree split are written
once (``FiniteField``), for two fields: ``Fp``, whose elements are ints and
whose ring operations are the kernel with m = p, and ``Fq`` = F_p[X]/(q),
whose elements are F_p[X] remainders mod q.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import List, Tuple

from .errors import DanielewskiError
from .fields import FieldSpec, q_inv, q_norm
from .poly import SLOT_MASK, Poly, power_ladder, square_and_multiply, unit_key

# ---------------------------------------------------------------------------
# the kernel over Z/m (m = p, p**k, or 0 for exact Q/Z arithmetic)
# ---------------------------------------------------------------------------


def deg(f: List) -> int:
    return len(f) - 1


def norm(f, m) -> List:
    """A new list: entries reduced mod m (when m > 0), leading zeros dropped."""
    f = [c % m for c in f] if m else list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def inv(c, m):
    if m:
        return pow(c, -1, m)
    return q_inv(c)


def add(f, g, m):
    n = max(len(f), len(g))
    return norm([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                 for i in range(n)], m)


def sub(f, g, m):
    return add(f, [-c for c in g], m)


def mul(f, g, m):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return norm(out, m)


def divrem(f, g, m):
    """(q, r) with f = q*g + r and deg r < deg g.  The lead of g must be a
    unit mod m.  For m = 0, int entries stay int only when lead(g) is +-1.
    Only the nonzero terms of g are subtracted, and mod m an entry is
    reduced only when it leads and at the end: a sparse g such as X^p - X
    costs a step per term, not per degree."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    r = norm(f, m)
    dg = deg(g)
    if len(r) <= dg:
        return [], r
    lead_inv = inv(g[-1], m)
    q = [0] * (len(r) - dg)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg] * lead_inv % m if m else r[k + dg] * lead_inv
        if c:
            q[k] = c
            for i, b in enumerate(g, k):
                if b:
                    r[i] -= c * b
    return q, norm(r[:dg], m)


def monic(f, m):
    if not f:
        return []
    lead_inv = inv(f[-1], m)
    return [c * lead_inv % m for c in f] if m else [c * lead_inv for c in f]


def gcd(f, g, m):
    """Monic gcd; gcd(0, 0) = []."""
    while g:
        f, g = g, divrem(f, g, m)[1]
    return monic(f, m)


def xgcd(f, g, m):
    """(d, s, t) with d the monic gcd and s*f + t*g = d; f, g not both zero."""
    r0, r1 = norm(f, m), norm(g, m)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divrem(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, m), m)
        t0, t1 = t1, sub(t0, mul(q, t1, m), m)
    lead_inv = [inv(r0[-1], m)]
    return monic(r0, m), mul(s0, lead_inv, m), mul(t0, lead_inv, m)


def resultant(f: List, g: List, m):
    """Res(f, g) of nonzero f and g over a field (m = p, or 0 for Q) by
    Euclid's algorithm: Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r)
    Res(g, r) with r = f mod g, and Res(f, c) = c^(deg f) for a constant c
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6)."""
    res = 1
    while len(g) > 1:
        r = divrem(f, g, m)[1]
        if not r:
            return 0
        if deg(f) * deg(g) % 2:
            res = -res
        res *= g[-1] ** (deg(f) - deg(r))
        f, g = g, r
    res *= g[0] ** deg(f)
    return res % m if m else res


def hasse(c: List, k: int, m) -> List:
    """The k-th Hasse derivative sum_(i >= k) C(i, k) c_i T^(i-k) of
    c = sum_i c_i T^i, so that c(Z + T) = sum_k hasse(c, k)(Z) T^k in every
    characteristic (von zur Gathen & Gerhard, "Fast algorithms for Taylor
    shifts and certain difference equations", ISSAC 1997); hasse(c, 1) is
    the derivative.  The c_i are scalars, or dense polynomials in another
    variable: then each entry is scaled and normalized, zero entries kept."""
    if c and isinstance(c[0], list):
        return [norm([math.comb(i, k) * a for a in c[i]], m) for i in range(k, len(c))]
    return norm([math.comb(i, k) * c[i] for i in range(k, len(c))], m)


def affine_shift(row: List, mu, lam, m) -> List:
    """row(lam X + mu) for a dense row (Horner in the linear polynomial)."""
    acc: List = []
    for c in reversed(row):
        nxt = [c] + [0] * len(acc)
        for i, v in enumerate(acc):
            nxt[i] += v * mu
            nxt[i + 1] += v * lam
        acc = norm(nxt, m)
    return acc


def shift(rows: List[List], h: List, m) -> List[List]:
    """The rows of c(Z + h) for c = sum_k rows[k] Z^k, where the rows and h
    are dense polynomials in another variable: n - 1 passes of synthetic
    division by Z - h, rows[j] += h rows[j + 1] from the top down, in
    place (von zur Gathen & Gerhard, ISSAC 1997).  Over F_p each factor is
    reduced as it is read, so the sums stay small until the last ``norm``;
    over Q the rows are shifted times their common denominator, on ints
    when h is integral."""
    den = 1 if m else math.lcm(*(c.denominator for r in rows for c in r))
    a = [[c.numerator * (den // c.denominator) for c in r] if den > 1 else list(r)
         for r in rows]
    n = len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            src, dst = a[j + 1], a[j]
            if not src:
                continue
            dst.extend([0] * (len(src) + len(h) - 1 - len(dst)))
            for s, u in enumerate(src):
                if m:
                    u %= m
                if u:
                    for t, v in enumerate(h, s):
                        dst[t] += u * v
    if den > 1:
        a = [[q_norm(Fraction(c, den)) for c in r] for r in a]
    return [norm(r, m) for r in a]


def horner(row: List, x: List, modulus: List, m) -> List:
    """sum_k row[k] x^k mod ``modulus``, for dense polynomials row[k] and x."""
    acc: List = []
    for c in reversed(row):
        acc = divrem(add(mul(acc, x, m), c, m), modulus, m)[1]
    return acc


def spread(f: List, m: int) -> List:
    """f^m over F_m, m prime: each exponent times m, the coefficients
    unchanged, since c^m = c (the Frobenius map)."""
    out = [0] * ((len(f) - 1) * m + 1) if f else []
    out[::m] = f
    return out


@functools.lru_cache(maxsize=1024)
def _binomials(j: int, m) -> Tuple[Tuple[int, int], ...]:
    """The pairs (i, C(j, i) mod m), i = 0 .. j, with C(j, i) nonzero mod m."""
    return tuple((i, c) for i in range(j + 1) if (c := math.comb(j, i) % m if m
                                                  else math.comb(j, i)))


def congruence_defect(c: List[List], gamma, delta: List, b: List[List], m) -> List[List]:
    """The z-rows of sum_j c_j (gamma Z + delta)^j - gamma^d sum_i b_i Z^i,
    d = len(b) - 1, for dense rows c_j and b_i and a dense delta in another
    variable X, and a scalar gamma.

    By the binomial theorem, row i is
    gamma^i sum_(j >= i) C(j, i) c_j delta^(j - i) - gamma^d b_i.  Zero
    rows c_j and binomials that vanish mod m are skipped: over F_p, by
    Lucas' theorem, C(j, i) is nonzero exactly when no base-p digit of i
    exceeds that of j, so for j = p^k only i = 0 and i = j remain.  delta's
    powers come off ``poly.power_ladder``: over F_p, delta^(p k) is delta^k
    spread by p (``spread``, the Frobenius map), and every other power takes
    one product.  Each row accumulates unreduced and is reduced once."""
    powers = {0: [1], 1: norm(delta, m)}
    product = functools.partial(mul, m=m)
    frobenius = functools.partial(spread, m=m)
    acc: List[List] = [[] for _ in range(max(len(c), len(b)))]
    for j, cj in enumerate(c):
        if not cj:
            continue
        for i, t in _binomials(j, m):
            pw = power_ladder(powers, j - i, m, product, frobenius)
            if not pw:
                continue
            row = acc[i]
            row.extend([0] * (len(cj) + len(pw) - 1 - len(row)))
            for a, x in enumerate(cj):
                if x:
                    x *= t
                    for k, y in enumerate(pw, a):
                        row[k] += x * y
    gamma_d = pow(gamma, len(b) - 1, m) if m else gamma ** (len(b) - 1)
    gamma_i = 1
    for i, row in enumerate(acc):
        if gamma_i != 1:
            row[:] = [gamma_i * v for v in row]
        if i < len(b):
            bi = b[i]
            row.extend([0] * (len(bi) - len(row)))
            for k, v in enumerate(bi):
                row[k] -= gamma_d * v
        acc[i] = norm(row, m)
        gamma_i = gamma_i * gamma % m if m else gamma_i * gamma
    return acc


# ---------------------------------------------------------------------------
# finite fields: one root finder and one equal-degree split for F_p and F_q
# ---------------------------------------------------------------------------


class FiniteField:
    """Dense polynomials in one variable T over a finite field with ``size``
    = p**``degree`` elements, their roots and their equal-degree factors.

    A subclass fixes the elements (``zero``, ``one``, ``element``, ``neg``,
    ``mul``, ``inv``; every zero is falsy) and the ring operations on
    polynomials, ascending lists of elements without trailing zeros
    (``poly``, ``add``, ``sub``, ``pmul``, ``pdivmod``).  The rest is
    written once here, Cantor-Zassenhaus included (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, ch. 14)."""

    def elements(self):
        """Every element, in a fixed order."""
        for digits in itertools.product(range(self.p), repeat=self.degree):
            yield self.element(list(digits))

    def monic(self, f):
        if not f:
            return []
        lead_inv = self.inv(f[-1])
        return [self.mul(c, lead_inv) for c in f]

    def gcd(self, f, g):
        """Monic gcd; gcd(0, 0) = []."""
        while g:
            f, g = g, self.pdivmod(f, g)[1]
        return self.monic(f)

    def pow_mod(self, f, e, g):
        """f**e mod g."""
        if not e:
            return [self.one]
        return square_and_multiply(self.pdivmod(f, g)[1], e,
                                   lambda a, b: self.pdivmod(self.pmul(a, b), g)[1])

    def roots(self, f) -> list:
        """The distinct roots of a nonzero f, sorted, without factoring f:
        a linear f gives its root at once, and otherwise the roots are those
        of gcd(f, T^size - T), split into its linear factors."""
        f = self.monic(f)
        if len(f) > 2:
            t = [self.zero, self.one]
            f = self.gcd(f, self.sub(self.pow_mod(t, self.size, f), t))
        return sorted(self.neg(g[0]) for g in self.split(f, 1))

    def split(self, f, k: int) -> list:
        """The monic irreducible factors, sorted, of a monic f that is a
        product of distinct irreducibles of degree k; f = 1 has none."""
        if len(f) - 1 <= k:
            return [f] if len(f) > 1 else []
        for g in self._splitters(f, k):
            g = self.gcd(f, g)
            if 1 < len(g) < len(f):
                return sorted(self.split(g, k) + self.split(self.pdivmod(f, g)[0], k))
        raise DanielewskiError(f"no equal-degree split of {f} into factors of degree {k}")

    def _splitters(self, f, k: int):
        """Polynomials whose gcd with f, a product of at least two distinct
        monic irreducibles of degree k, is a proper factor: often, for odd
        p; for at least one of them, for p = 2."""
        n = len(f) - 1
        if self.p == 2:
            # in F[T]/(f), a product of fields, each trace down to F_2 is 0
            # or 1 in every field; the b T^i (b over the basis X^j, i < n)
            # span the ring and Tr(b) is the same in every field, so for
            # some i > 0 Tr(b T^i) is not
            for i in range(1, n):
                for j in range(self.degree):
                    cur = [self.zero] * i + [self.element([0] * j + [1])]
                    trace = []
                    for _ in range(self.degree * k):
                        trace = self.add(trace, cur)
                        cur = self.pdivmod(self.pmul(cur, cur), f)[1]
                    yield trace
            return
        # the output is sorted, so it does not depend on the seed
        rng = random.Random(f"split|{self.size}|{k}|{f}")
        half = (self.size ** k - 1) // 2
        while True:
            r = self.poly([self.element([rng.randrange(self.p) for _ in range(self.degree)])
                           for _ in range(n)])
            if len(r) > 1:
                yield r
                yield self.sub(self.pow_mod(r, half, f), [self.one])


class Fp(FiniteField):
    """The prime field F_p: an element is an int in [0, p), and the ring
    operations on polynomials are the kernel above with m = p."""

    zero, one, degree = 0, 1, 1

    def __init__(self, p: int):
        self.p = self.size = p
        self.poly, self.add, self.sub, self.pmul, self.pdivmod = (
            functools.partial(op, m=p) for op in (norm, add, sub, mul, divrem))

    def element(self, digits):
        return digits[0] % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


class Fq(FiniteField):
    """The field F_q = F_p[X]/(q), q monic irreducible over F_p.

    An element is its dense F_p remainder mod q (``[]`` is zero).  Element
    arithmetic is the F_p kernel above followed by one reduction mod q.
    Inverses are cached: a small field repeats them, and the cache lives as
    long as the object."""

    zero, one = [], [1]

    def __init__(self, q: List[int], p: int):
        self.q = q
        self.p = p
        self.degree = deg(q)
        self.size = p ** self.degree
        self._inverses = {}

    # elements

    def element(self, digits):
        return norm(digits, self.p)

    def reduce(self, a):
        return divrem(a, self.q, self.p)[1] if len(a) > self.degree else a

    def mul(self, a, b):
        return self.reduce(mul(a, b, self.p))

    def inv(self, a):
        key = tuple(a)
        a_inv = self._inverses.get(key)
        if a_inv is None:
            a_inv = self._inverses[key] = xgcd(a, self.q, self.p)[1]
        return a_inv

    def neg(self, a):
        return norm([-c for c in a], self.p)

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
        return self.poly([add(f[i] if i < len(f) else [], g[i] if i < len(g) else [], p)
                          for i in range(n)])

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
                        out[i + j] = add(out[i + j], mul(a, b, p), p)
        return self.poly(out)

    def pdivmod(self, f, g):
        """(quotient, remainder) of f by a nonzero g."""
        p = self.p
        r = list(f)
        dg = len(g) - 1
        lead_inv = self.inv(g[-1])
        quo = [[] for _ in range(max(0, len(r) - dg))]
        # entries of r below the lead stay unreduced mod q until they lead
        while len(r) > dg:
            lead = self.reduce(r.pop())
            if lead:
                k = len(r) - dg
                c = quo[k] = self.mul(lead, lead_inv)
                for i, b in enumerate(g[:-1]):
                    r[k + i] = sub(r[k + i], mul(c, b, p), p)
        return quo, self.poly(r)


# ---------------------------------------------------------------------------
# conversion from and to Poly
# ---------------------------------------------------------------------------


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


def z_rows(P: Poly, x: str = "X", z: str = "Z") -> List[List]:
    """The coefficients c_k(x) of z^k in P, k = 0 .. deg_z P, as dense
    lists; P uses no variable but x and z."""
    x_off, z_off = P.slot(x)[0], P.slot(z)[0]
    rows: List[List] = [[] for _ in range(P.degree_in(z) + 1)]
    for key, c in P.packed.items():
        i, row = (key >> x_off) & SLOT_MASK, rows[(key >> z_off) & SLOT_MASK]
        row.extend([0] * (i + 1 - len(row)))
        row[i] = c
    return rows


def from_z_rows(rows: List[List], field: FieldSpec, vars: Tuple[str, ...], x: str = "X",
                z: str = "Z") -> Poly:
    """sum_k rows[k](x) z^k over ``vars``, the inverse of ``z_rows``.  The
    rows hold what the kernel computes with ``m = field.modulus``: residues
    in [0, p) over F_p, taken as they are; int or ``Fraction`` values over
    Q, normalized by ``q_norm``."""
    vars = tuple(vars)
    ux, uz = unit_key(len(vars), vars.index(x)), unit_key(len(vars), vars.index(z))
    canonical = q_norm if not field.modulus else None
    terms = {}
    for k, row in enumerate(rows):
        for i, c in enumerate(row):
            if c:
                terms[i * ux + k * uz] = canonical(c) if canonical else c
    return Poly._raw(field, vars, terms)
