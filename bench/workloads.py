"""Seeded workloads: their inputs, the operations that turn inputs into
verdicts, and the answers known by construction that each verdict is
checked against.

An operation parses document or expression text, calls the public library
API (``danielewski.__all__`` and ``danielewski.jsonio``) and writes its
verdict document with ``jsonio.dumps``.  Inputs are made round by round
from ``(workload, seed, round)`` alone, so one seed gives the same inputs in
any process, and every round has the same mix of operation kinds and sizes;
another seed changes the polynomials, not the mix.

Outcomes: ``OK`` (the verdict matches the known answer), ``REFUSED`` (an
honest ``SearchCapExceededError`` at the fixed cap ``CAP``) and ``FAILED``
(a wrong verdict, a dishonest refusal, or an error).
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import danielewski as dw
from danielewski import jsonio
from danielewski.errors import PreconditionError, SearchCapExceededError

OK, FAILED, REFUSED = "ok", "failed", "refused"

# One search cap for every decision.  At 500 tuples no decided operation
# takes much over a second on a desk machine, and the exhaustive cases
# F5 X^5(X+1) and F7 X^7(X+1) of the ROADMAP Baseline are refused.
CAP = 500


@dataclass
class Op:
    """One operation: ``text`` is its input document, ``expect`` the known
    answer, ``tags`` its sweep parameters (d, r, p) and solver branch,
    ``surfaces`` the surface texts it takes as input, and ``key`` names the
    state it shares with other operations of its round."""

    kind: str
    text: str
    expect: dict
    tags: Dict[str, object]
    surfaces: Tuple[str, ...] = ()
    key: str = ""


@dataclass
class Verdict:
    text: str                     # the verdict document
    value: object = None          # what the check needs besides the text
    refused: Optional[SearchCapExceededError] = None


def _rng(*parts) -> random.Random:
    # str seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random("|".join(str(p) for p in parts))


def _canon(text: str, fld, vars_) -> str:
    return dw.poly_str(dw.parse_poly(text, fld, vars_))


def _surface_text(fld, f: str, phi: str) -> str:
    return json.dumps({"field": fld.tag(), "f": _canon(f, fld, ("X",)),
                       "phi": _canon(phi, fld, ("X", "Z"))}, sort_keys=True)


def _substitute_text(text: str, images: Dict[str, str]) -> str:
    """Replace each variable of an expression by a parenthesised image."""
    return re.sub(r"[A-Za-z]\w*", lambda m: f"({images[m.group()]})"
                  if m.group() in images else m.group(), text)


def _dense_text(coeffs) -> str:
    return " + ".join(f"{c}*X^{i}" for i, c in enumerate(coeffs) if c) or "0"


def honest_refusal(exc: SearchCapExceededError) -> bool:
    return exc.cap == CAP and exc.needed > CAP


# ---------------------------------------------------------------------------
# cancel-q: stable isomorphism over Q
# ---------------------------------------------------------------------------


def _roots_g(roots) -> str:
    return "*".join(f"(X - {a})" if a > 0 else f"(X + {-a})" for a in roots)


# g = (X - a)(X - b) with distinct nonzero roots: squarefree, g(0) != 0
_G_CHOICES = tuple(itertools.combinations([a for a in range(-5, 6) if a], 2))


class CancelQ:
    """Build a stable-isomorphism certificate for f = X^2 g, P = (Z + cX)^d - 1
    over Q, then decode it and verify it; plus a sigma_family chain A_2..A_4
    and two builds whose hypotheses fail.  Every build uses a surface no
    other operation of the run uses.  A round has three surfaces at each of
    d = 2, 3 and one at each of d = 5, 7: 19 operations, so the median falls
    inside the blob of d = 3 builds and d = 2 verifies (six a round, so a
    run has a few hundred samples of it) and p95 inside the d = 7 blob, not
    on a boundary between two classes."""

    name = "cancel-q"
    # the highest of p90/p95/p97.5/p99 with >= 10 samples beyond it in a 30 s run
    tail_pct = 95.0
    bypassed = ("isomorph.decide_isomorphism.calls",)    # predicted exactly 0
    SURFACES = {2: 3, 3: 3, 5: 1, 7: 1}                 # surfaces a round, by d

    def __init__(self):
        self._orders: Dict[Tuple[int, object], list] = {}

    def _combo(self, seed: int, slot, k: int, choices):
        """The k-th of a seeded permutation of ``choices``: distinct rounds of
        one run never draw the same combination."""
        order = self._orders.get((seed, slot))
        if order is None:
            order = list(choices)
            _rng(self.name, seed, "order", slot).shuffle(order)
            self._orders[(seed, slot)] = order
        return order[k % len(order)]

    def round(self, seed: int, k: int) -> List[Op]:
        ops: List[Op] = []
        surface_choices = list(itertools.product(_G_CHOICES, (1, 2, -1, -2)))
        for d, count in self.SURFACES.items():
            for j in range(count):
                roots, c = self._combo(seed, d, k * count + j, surface_choices)
                g = _roots_g(roots)
                surf = _surface_text(dw.QQ, f"X^2*{g}", f"(Z + {c}*X)^{d} - 1")
                key = f"{k}.{d}.{j}"
                ops.append(Op("build", surf, {"h": _canon(f"X*{g}", dw.QQ, ("X",))},
                              {"d": d}, (surf,), key))
                ops.append(Op("verify", "", {}, {"d": d}, (), key))
        # c = +-3 keeps the chain's surfaces apart from those of the builds
        roots, c = self._combo(seed, "family", k, itertools.product(_G_CHOICES, (3, -3)))
        family = json.dumps({"field": "Q", "g": _canon(_roots_g(roots), dw.QQ, ("X",)),
                             "phi": _canon(f"(Z + {c}*X)^3 - 1", dw.QQ, ("X", "Z")),
                             "from": 2, "to": 4}, sort_keys=True)
        ops.append(Op("family", family, {"links": 2}, {"d": 3}, (family,)))
        # one build per failing hypothesis: P = (Z + cX)^2 shares its root
        # with P_Z; f = X g has a simple root at 0
        roots, c = self._combo(seed, "comaximal", k, surface_choices)
        surf = _surface_text(dw.QQ, f"X^2*{_roots_g(roots)}", f"(Z + {c}*X)^2")
        ops.append(Op("refuse", surf, {"failing": "(P, P_Z) = (1)"}, {"d": 2}, (surf,)))
        roots, c = self._combo(seed, "double_root", k, surface_choices)
        surf = _surface_text(dw.QQ, f"X*{_roots_g(roots)}", f"(Z + {c}*X)^3 - 1")
        ops.append(Op("refuse", surf, {"failing": "f has a double root at 0"}, {"d": 3},
                      (surf,)))
        return ops

    def execute(self, op: Op, state: dict) -> Verdict:
        if op.kind in ("build", "refuse"):
            spec = jsonio.surface_from_doc(json.loads(op.text))
            try:
                cert = dw.build_stable_iso(spec)
            except PreconditionError as exc:
                return Verdict(jsonio.dumps({"refused": str(exc)}))
            text = jsonio.dumps(jsonio.stable_to_doc(cert))
            state[op.key] = text
            return Verdict(text)
        if op.kind == "verify":
            cert = jsonio.stable_from_doc(json.loads(state[op.key]))
            report = dw.verify_stable_iso(cert)
            return Verdict(jsonio.dumps(report.to_doc()), report)
        doc = json.loads(op.text)
        fld = dw.parse_field_tag(doc["field"])
        report = dw.sigma_family(fld, dw.parse_poly(doc["g"], fld, ("X",)),
                                 dw.parse_poly(doc["phi"], fld, ("X", "Z")),
                                 doc["from"], doc["to"])
        return Verdict(jsonio.dumps(jsonio.family_to_doc(report)), report)

    def check(self, op: Op, verdict: Verdict, state: dict) -> Optional[str]:
        doc = json.loads(verdict.text)
        if op.kind == "build":
            if "refused" in doc:
                return f"build refused: {doc['refused']}"
            if doc["h"] != op.expect["h"] or doc["surfaceB"]["f"] != op.expect["h"]:
                return f"partner f is {doc['h']}, expected {op.expect['h']}"
            if doc["surfaceA"] != json.loads(op.surfaces[0]):
                return "certificate is for another surface"
            return None
        if op.kind == "verify":
            return None if verdict.value.ok and doc["ok"] else "certificate refuted"
        if op.kind == "refuse":
            why = doc.get("refused", "")
            failing = op.expect["failing"]
            return None if f"[FAIL] {failing}" in why else f"expected '{failing}' to fail"
        report = verdict.value
        if not report.ok or len(report.chain) != op.expect["links"]:
            return "family chain does not verify"
        if not all("differ" in v for _, _, v in report.nonisomorphic):
            return "family members not separated by fingerprint"
        return None


# ---------------------------------------------------------------------------
# iso-fp: isomorphism decisions over F_p
# ---------------------------------------------------------------------------


def _compose_dense(coeffs, lam: int, mu: int, p: int):
    """Coefficients of f(lam X + mu) mod p, by Horner's rule."""
    out = [0]
    for c in reversed(coeffs):
        nxt = [0] * (len(out) + 1)
        for i, a in enumerate(out):
            nxt[i] = (nxt[i] + a * mu) % p
            nxt[i + 1] = (nxt[i + 1] + a * lam) % p
        nxt[0] = (nxt[0] + c) % p
        out = nxt
    return out[:len(coeffs)]


def _affinely_rigid(coeffs, p: int) -> bool:
    """f(lam X + mu) = lam^r f(X) only for (lam, mu) = (1, 0), so a pair
    (s, T(s)) has exactly one affine match and a predictable search size."""
    r = len(coeffs) - 1
    for lam in range(1, p):
        scale = pow(lam, r, p)
        want = [(c * scale) % p for c in coeffs]
        for mu in range(p):
            if (lam, mu) != (1, 0) and _compose_dense(coeffs, lam, mu, p) == want:
                return False
    return True


def _random_phi(rng: random.Random, p: int, d: int) -> str:
    """Z^d plus every X^a Z^j, a <= 2, j < d, with a nonzero coefficient."""
    return " + ".join([f"Z^{d}"] + [f"{rng.randrange(1, p)}*X^{a}*Z^{j}"
                                    for j in range(d) for a in range(3)])


def _random_monic(rng: random.Random, p: int, r: int) -> str:
    return f"X^{r} + " + _dense_text([rng.randrange(p) for _ in range(r)])


class IsoFp:
    """decide_isomorphism on (s, T(s)) over the grid p x r x d, negative pairs
    whose multiplicity multiset, r or d differ, and automorphisms of the
    Baseline surfaces X^p(X+1), Z^p + Z + X."""

    name = "iso-fp"
    tail_pct = 95.0
    bypassed = ("resultant.resultant_in.calls", "resultant.det_bareiss.calls",
                "resultant.bezout_cofactors.calls", "fields.q.coeff_mults")
    PS = (2, 3, 5, 7)
    RS = (3, 5, 8)
    DS = (2, 3, 4, 5, 6, 7)
    # left-hand surfaces per (p, r, d), taken in turn: texts repeat across
    # rounds, and every run of POOL rounds or more draws each of them, so the
    # cost of a run depends little on which surfaces a seed put in its pool
    POOL = 4

    def __init__(self):
        self._pools: Dict[int, dict] = {}

    def _pool(self, seed: int) -> dict:
        pool = self._pools.get(seed)
        if pool is None:
            rng = _rng(self.name, seed, "pool")
            pool = {}
            for p, r, d in itertools.product(self.PS, self.RS, self.DS):
                entries = []
                while len(entries) < self.POOL:
                    coeffs = [rng.randrange(p) for _ in range(r)] + [1]
                    if not _affinely_rigid(coeffs, p):
                        continue
                    entries.append((_dense_text(coeffs), _random_phi(rng, p, d)))
                pool[(p, r, d)] = entries
            self._pools[seed] = pool
        return pool

    @staticmethod
    def _pair_text(fld, s1: Tuple[str, str], s2: Tuple[str, str]) -> Tuple[str, str, str]:
        a = _surface_text(fld, *s1)
        b = _surface_text(fld, *s2)
        return json.dumps({"source": json.loads(a), "target": json.loads(b)},
                          sort_keys=True), a, b

    def round(self, seed: int, k: int) -> List[Op]:
        pool = self._pool(seed)
        rng = _rng(self.name, seed, k)
        ops: List[Op] = []
        for p, r, d in itertools.product(self.PS, self.RS, self.DS):
            fld = dw.GF(p)
            f1, P1 = pool[(p, r, d)][k % self.POOL]
            lam, mu, gam = rng.randrange(1, p), rng.randrange(p), rng.randrange(1, p)
            delta = _canon(_dense_text([rng.randrange(p) for _ in range(r)]), fld, ("X",))
            theta = " + ".join(f"{rng.randrange(1, p)}*X^{a}*Z^{j}"
                               for j in range(d) for a in range(2))
            x_img = f"{lam}*X + {mu}"
            f2 = f"{pow(lam, -r, p)}*({_substitute_text(f1, {'X': x_img})})"
            f2 = _canon(f2, fld, ("X",))
            moved = _substitute_text(P1, {"X": x_img, "Z": f"{gam}*Z + {delta}"})
            P2 = f"{pow(gam, -d, p)}*(({moved}) - ({f2})*({theta}))"
            text, a, b = self._pair_text(fld, (f1, P1), (f2, P2))
            branch = "exhaustive" if d % p == 0 or r % p == 0 else "elimination"
            ops.append(Op("decide", text,
                          {"lambda": str(lam), "mu": str(mu), "gamma": str(gam),
                           "delta": delta},
                          {"p": p, "r": r, "d": d, "branch": branch}, (a, b)))
        for p in self.PS:        # negative pairs at fixed sizes
            fld = dw.GF(p)
            a, b = rng.sample(range(p), 2)
            c = rng.randrange(p)
            text, sa, sb = self._pair_text(
                fld, (f"(X + {c})^5", _random_phi(rng, p, 3)),
                (f"(X + {a})^4*(X + {b})", _random_phi(rng, p, 3)))
            ops.append(Op("decide", text, {"obstruction": "MultiplicityMultisetMismatch"},
                          {"p": p, "r": 5, "d": 3}, (sa, sb)))
            f1, P1 = pool[(p, 3, 4)][k % self.POOL]
            text, sa, sb = self._pair_text(
                fld, (f1, P1), (_random_monic(rng, p, 8), _random_phi(rng, p, 4)))
            ops.append(Op("decide", text, {"obstruction": "FDegreeMismatch"},
                          {"p": p, "r": 3, "d": 4}, (sa, sb)))
            f1, P1 = pool[(p, 8, 2)][k % self.POOL]
            text, sa, sb = self._pair_text(
                fld, (f1, P1), (_random_monic(rng, p, 8), _random_phi(rng, p, 5)))
            ops.append(Op("decide", text, {"obstruction": "ZDegreeMismatch"},
                          {"p": p, "r": 8, "d": 2}, (sa, sb)))
        for p in self.PS:        # ROADMAP Baseline: X^p(X+1), Z^p + Z + X
            surf = _surface_text(dw.GF(p), f"X^{p}*(X + 1)", f"Z^{p} + Z + X")
            ops.append(Op("automorphisms", surf, {"identity": True},
                          {"p": p, "r": p + 1, "d": p, "branch": "exhaustive"}, (surf,)))
        return ops

    def execute(self, op: Op, state: dict) -> Verdict:
        doc = json.loads(op.text)
        try:
            if op.kind == "automorphisms":
                result = dw.automorphisms(jsonio.surface_from_doc(doc), cap=CAP)
            else:
                result = dw.decide_isomorphism(jsonio.surface_from_doc(doc["source"]),
                                               jsonio.surface_from_doc(doc["target"]),
                                               cap=CAP)
        except SearchCapExceededError as exc:
            return Verdict(jsonio.dumps({"refused": {"needed": exc.needed, "cap": exc.cap}}),
                           refused=exc)
        if isinstance(result, list):
            return Verdict(jsonio.dumps({"certificates": [jsonio.iso_to_doc(c)
                                                          for c in result]}))
        return Verdict(jsonio.dumps(jsonio.obstruction_to_doc(result)))

    def check(self, op: Op, verdict: Verdict, state: dict) -> Optional[str]:
        if verdict.refused is not None:
            return None if honest_refusal(verdict.refused) else "dishonest refusal"
        doc = json.loads(verdict.text)
        if "obstruction" in op.expect:
            got = doc.get("kind")
            return None if got == op.expect["obstruction"] else f"obstruction {got}"
        certs = doc.get("certificates")
        if not certs:
            return f"no certificate: {doc}"
        for c in certs:
            rt = jsonio.iso_from_doc(json.loads(jsonio.dumps(c)))
            if not dw.verify_iso(rt).ok:
                return "a returned certificate fails verify_iso"
        if op.kind == "automorphisms":
            want = {"lambda": "1", "mu": "0", "gamma": "1", "delta": "0"}
        else:
            want = op.expect
        if not any(all(c[key] == val for key, val in want.items()) for c in certs):
            return f"known map {want} not among the certificates"
        return None


# ---------------------------------------------------------------------------
# expmap-mixed: exponential maps over Q and F_p
# ---------------------------------------------------------------------------


class ExpmapMixed:
    """Per surface: the canonical map through a JSON round trip and
    verification, the higher derivation of seeded elements, invariance of x,
    and conjugation by an automorphism.  The operations of one surface share
    one spec, so its Z-reduction cache is warm after the first."""

    name = "expmap-mixed"
    tail_pct = 99.0
    bypassed = ("resultant.resultant_in.calls", "resultant.det_bareiss.calls",
                "resultant.bezout_cofactors.calls")
    FIELDS = (0, 2, 3, 5, 7)     # 0 is Q
    DS = (2, 3, 5, 7)
    ELEMENTS = 3

    @staticmethod
    def _coeff(rng: random.Random, p: int, big: bool = True) -> int:
        """A nonzero coefficient; over Q, +-1 unless ``big``, since the
        coefficients of f and P are raised to high powers."""
        if p:
            return rng.randrange(1, p)
        return rng.choice((1, 2, 3, -1, -2, -3) if big else (1, -1))

    def _terms(self, rng: random.Random, p: int, positions, count: int,
               big: bool = True) -> List[str]:
        """``count`` terms c*X^a*Z^b at distinct random positions (a, b)."""
        return [f"{self._coeff(rng, p, big)}*X^{a}*Z^{b}"
                for a, b in rng.sample(list(positions), count)]

    def _element(self, rng: random.Random, fld, p: int, d: int) -> str:
        """e = g0 + g1 y in normal form; g1 has a term in Z^b with b = min(2, d-1)
        and none higher, so every element at one d has the same phi-degree."""
        top = min(2, d - 1)
        g0 = self._terms(rng, p, itertools.product(range(4), range(d)), 4)
        g1 = self._terms(rng, p, itertools.product(range(3), range(top)), 1)
        g1.append(f"{self._coeff(rng, p)}*X^{rng.randrange(3)}*Z^{top}")
        coeffs = {"0": _canon(" + ".join(g0), fld, ("X", "Z")),
                  "1": _canon(" + ".join(g1), fld, ("X", "Z"))}
        return json.dumps({"coeffs": coeffs, "aux": []}, sort_keys=True)

    def round(self, seed: int, k: int) -> List[Op]:
        rng = _rng(self.name, seed, k)
        ops: List[Op] = []
        for p, d in itertools.product(self.FIELDS, self.DS):
            fld = dw.GF(p) if p else dw.QQ
            f = f"X^2 + {self._coeff(rng, p, False)}*X + {self._coeff(rng, p, False)}"
            lower = self._terms(rng, p, itertools.product(range(2), range(d)), 3, False)
            surf = _surface_text(fld, f, " + ".join([f"Z^{d}"] + lower))
            tags = {"d": d, "p": p} if p else {"d": d}
            key = f"{k}.{p}.{d}"
            ops.append(Op("canonical", surf, {}, tags, (surf,), key))
            # under the canonical map z^b y has the U-leading term f^(b+d-1) U^(b+d)
            degree = d + min(2, d - 1)
            for _ in range(self.ELEMENTS):
                ops.append(Op("derive", self._element(rng, fld, p, d),
                              {"phi_degree": degree}, tags, (), key))
            ops.append(Op("invariant", "", {"x": True, "z": False}, tags, (), key))
            if p and d % p:          # elimination branch: a finite set, no search
                ops.append(Op("conjugate", "", {}, tags, (), key))
        return ops

    def execute(self, op: Op, state: dict) -> Verdict:
        if op.kind == "canonical":
            spec = jsonio.surface_from_doc(json.loads(op.text))
            text = jsonio.dumps(jsonio.expmap_to_doc(dw.canonical_expmap(spec)))
            m = jsonio.expmap_from_doc(json.loads(text)).verified()
            state[op.key] = (spec, m)
            return Verdict(jsonio.dumps({"map": json.loads(text),
                                         "status": m.status.value}), m)
        spec, m = state[op.key]
        if op.kind == "derive":
            e = jsonio.element_from_doc(json.loads(op.text), spec)
            degree = dw.phi_degree(m, e)
            parts = [dw.derivation_coeff(m, e, i) for i in range(int(degree) + 2)]
            return Verdict(jsonio.dumps({"phi_degree": degree,
                                         "derivation": [jsonio.element_to_doc(x)
                                                        for x in parts]}))
        if op.kind == "invariant":
            return Verdict(jsonio.dumps({"x": dw.is_invariant(m, spec.x()),
                                         "z": dw.is_invariant(m, spec.z())}))
        certs = dw.automorphisms(spec, cap=CAP)
        chosen = next((c for c in certs if not c.is_identity()), certs[0])
        cert = jsonio.iso_from_doc(json.loads(jsonio.dumps(jsonio.iso_to_doc(chosen))))
        conj = dw.conjugate(m, cert)
        return Verdict(jsonio.dumps({"certificate": jsonio.iso_to_doc(cert),
                                     "conjugate": jsonio.expmap_to_doc(conj),
                                     "status": conj.status.value}),
                       (conj, any(c.is_identity() for c in certs)))

    def check(self, op: Op, verdict: Verdict, state: dict) -> Optional[str]:
        doc = json.loads(verdict.text)
        if op.kind == "canonical":
            m = verdict.value
            return None if doc["status"] == "Verified" and m.is_nontrivial else "map refuted"
        if op.kind == "derive":
            parts = doc["derivation"]
            if doc["phi_degree"] != op.expect["phi_degree"]:
                return f"phi-degree {doc['phi_degree']}, expected {op.expect['phi_degree']}"
            if parts[0] != json.loads(op.text):
                return "D_0(e) != e"
            if not parts[-2]["coeffs"] or parts[-1]["coeffs"]:
                return "D_i(e) does not vanish exactly beyond the phi-degree"
            return None
        if op.kind == "invariant":
            return None if (doc["x"], doc["z"]) == (True, False) else f"invariance {doc}"
        conj, has_identity = verdict.value
        if doc["status"] != "Verified" or not has_identity:
            return "conjugate not verified, or identity missing"
        spec = state[op.key][0]
        return None if dw.is_invariant(conj, spec.x()) else "conjugate moves x"


WORKLOADS = {w.name: w for w in (CancelQ, IsoFp, ExpmapMixed)}
