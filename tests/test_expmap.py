import dataclasses
import math

import pytest

from danielewski import (GF, QQ, ExpMap, Poly, Scalar, apply_map, automorphisms,
                         build_stable_iso, canonical_expmap, conjugate, derivation_coeff,
                         is_invariant, normal_form, parse_poly, phi_degree, verify_expmap)
from danielewski import cancel, expmap, poly
from danielewski.errors import PreconditionError
from danielewski.expmap import VerifyStatus
from danielewski.poly import NEG_INF
from danielewski.surface import aux_coefficient

from conftest import random_element, surf
from oracles import (canonical_quotient_by_division, eval_by_horner,
                     verify_expmap_by_substitution)


def test_canonical_examples(surfaces):
    m = canonical_expmap(surfaces[0])  # (Q, X^2, Z^2+1)
    want_y = normal_form(parse_poly("Y + 2*Z*U + X^2*U^2", QQ, ("X", "Y", "Z", "U")),
                         surfaces[0])
    assert m.image_y == want_y
    m2 = canonical_expmap(surfaces[2])  # (F2, X^2+X, Z^2): the 2zU term vanishes
    want_y2 = normal_form(parse_poly("Y + (X^2+X)*U^2", GF(2), ("X", "Y", "Z", "U")),
                          surfaces[2])
    assert m2.image_y == want_y2
    for spec in surfaces:
        m = canonical_expmap(spec)
        assert m.image_x == spec.x()  # x is always fixed
        assert m.status is VerifyStatus.VERIFIED and m.is_nontrivial


def test_verify_passes_on_canonical(surfaces):
    for spec in surfaces:
        report = verify_expmap(canonical_expmap(spec))
        assert report.ok and len(report.checks) == 7


def test_verify_catches_broken_relation(surfaces):
    s45 = surfaces[2]
    m = canonical_expmap(s45)
    broken = ExpMap(s45, m.image_x, m.image_z, s45.y())
    report = verify_expmap(broken)
    failed = report.failures()
    assert failed and all("well-defined" in c.name for c in failed)
    assert broken.verified().status is VerifyStatus.REFUTED


def test_verify_catches_broken_cocycle():
    # z -> z + f U^2 with y adjusted to keep the relation: (W), (A1) pass, (A2) fails
    sq = surf(QQ, "X^2", "Z^2+1")
    image_z = normal_form(parse_poly("Z + X^2*U^2", QQ, ("X", "Y", "Z", "U")), sq)
    image_y = normal_form(parse_poly("Y + 2*Z*U^2 + X^2*U^4", QQ, ("X", "Y", "Z", "U")), sq)
    report = verify_expmap(ExpMap(sq, sq.x(), image_z, image_y))
    by_name = {c.name: c.passed for c in report.checks}
    assert by_name["well-defined: f(phi x) phi y - P(phi x, phi z) = 0"]
    assert not report.ok
    assert any("cocycle" in c.name for c in report.failures())


def test_apply_examples(surfaces):
    sq = surfaces[0]
    m = canonical_expmap(sq)
    assert apply_map(m, sq.x() ** 3) == sq.x() ** 3
    assert apply_map(m, sq.z()) == m.image_z
    assert apply_map(m, sq.y()) == m.image_y
    with pytest.raises(PreconditionError):
        apply_map(ExpMap(sq, sq.x(), sq.z(), sq.y()), sq.z())


def test_phi_degree_examples(surfaces):
    for spec in surfaces:
        m = canonical_expmap(spec)
        assert phi_degree(m, spec.x()) == 0
        assert phi_degree(m, spec.z()) == 1
        assert phi_degree(m, spec.y()) == spec.d
        assert phi_degree(m, spec.zero()) is NEG_INF


def test_derivation_coeff_examples(surfaces):
    sq = surfaces[0]
    m = canonical_expmap(sq)
    f_el = sq.from_xz_poly(sq.f.with_vars(("X", "Z")))
    assert derivation_coeff(m, sq.z(), 1) == f_el
    top = derivation_coeff(m, sq.y(), 2)
    assert top == sq.x() * sq.x()
    assert is_invariant(m, top)  # top coefficient is invariant
    for spec in surfaces:
        mm = canonical_expmap(spec)
        e = spec.z() * spec.y()
        assert derivation_coeff(mm, e, 0) == e


def test_invariance_examples(surfaces):
    sq = surfaces[0]
    m = canonical_expmap(sq)
    assert is_invariant(m, sq.x() ** 5)
    assert not is_invariant(m, sq.z())
    noisy = normal_form(parse_poly("X^2*Y - Z^2 - 1 + X^5", QQ, ("X", "Y", "Z")), sq)
    assert is_invariant(m, noisy) and noisy == sq.x() ** 5


def test_leibniz_rule(rng, surfaces):
    for spec in surfaces:
        m = canonical_expmap(spec)
        for _ in range(25):
            a = random_element(rng, spec, max_terms=3)
            b = random_element(rng, spec, max_terms=3)
            prod = a * b
            top = phi_degree(m, prod)
            top = 0 if top is NEG_INF else int(top)
            for n in range(top + 2):
                lhs = derivation_coeff(m, prod, n)
                rhs = spec.zero()
                for i in range(n + 1):
                    rhs = rhs + derivation_coeff(m, a, i) * derivation_coeff(m, b, n - i)
                assert lhs == rhs


def test_iterative_binomial_property(rng, surfaces):
    # phi^j(phi^i(a)) = C(i+j, i) phi^{i+j}(a), binomial reduced in K
    for spec in surfaces:
        m = canonical_expmap(spec)
        elements = [spec.x(), spec.z(), spec.y(), spec.z() * spec.y()]
        elements += [random_element(rng, spec, max_terms=2) for _ in range(2)]
        for a in elements:
            top = phi_degree(m, a)
            top = 0 if top is NEG_INF else int(top)
            for i in range(top + 1):
                for j in range(top + 1 - i):
                    lhs = derivation_coeff(m, derivation_coeff(m, a, i), j)
                    binom = Scalar(spec.field, math.comb(i + j, i))
                    rhs = derivation_coeff(m, a, i + j).scaled(binom)
                    assert lhs == rhs


def test_degree_inequality(rng, surfaces):
    # deg_phi(phi^i(a)) <= deg_phi(a) - i
    for spec in surfaces:
        m = canonical_expmap(spec)
        for _ in range(15):
            a = random_element(rng, spec, max_terms=3, nonzero=True)
            da = phi_degree(m, a)
            for i in range(int(da) + 1):
                ci = derivation_coeff(m, a, i)
                if ci.is_zero:
                    continue
                assert phi_degree(m, ci) <= da - i


def test_inertness_spot_check(rng, surfaces):
    # products of invariants built from noisy representatives stay invariant factorwise
    for spec in surfaces:
        m = canonical_expmap(spec)
        rel = (spec.f.with_vars(("X", "Y", "Z"))
               * Poly.variable(spec.field, ("X", "Y", "Z"), "Y")
               - spec.P.with_vars(("X", "Y", "Z")))
        for k in range(10):
            pa = Poly(spec.field, ("X", "Y", "Z"), {(k % 3, 0, 0): 1, (0, 0, 0): k})
            pb = Poly(spec.field, ("X", "Y", "Z"), {(k % 2 + 1, 0, 0): 1})
            a = normal_form(pa + rel.scaled(k % spec.field.modulus
                                            if spec.field.modulus else k), spec)
            b = normal_form(pb - rel, spec)
            prod = a * b
            if prod.is_zero:
                continue
            assert is_invariant(m, prod)
            assert is_invariant(m, a) and is_invariant(m, b)


def test_least_degree_element_properties_canonical_scope(surfaces):
    # for the canonical map z has least positive phi-degree 1, so the
    # p-power vanishing and degree-divisibility statements are checkable
    for spec in surfaces:
        m = canonical_expmap(spec)
        assert phi_degree(m, spec.z()) == 1
        for i in range(2, 6):
            assert derivation_coeff(m, spec.z(), i).is_zero
        for e in (spec.x(), spec.y(), spec.z() * spec.y()):
            d = phi_degree(m, e)
            assert d is NEG_INF or int(d) % 1 == 0


def test_trivial_map_is_representable(surfaces):
    for spec in surfaces:
        triv = ExpMap(spec, spec.x(), spec.z(), spec.y()).verified()
        assert triv.status is VerifyStatus.VERIFIED
        assert not triv.is_nontrivial


def test_conjugation(surfaces):
    s45 = surfaces[2]
    m = canonical_expmap(s45)
    autos = automorphisms(s45)
    ident = [c for c in autos if c.is_identity()][0]
    assert conjugate(m, ident) == m
    shift = [c for c in autos if c.mu == 1][0]
    mc = conjugate(m, shift)
    assert mc.status is VerifyStatus.VERIFIED
    assert is_invariant(mc, s45.x())
    # gamma = -1 over Q with P even in Z: image_z = z - f(x) U
    s3 = surf(QQ, "X^3-X^2", "Z^2+1")
    m3 = canonical_expmap(s3)
    neg = [c for c in automorphisms(s3) if c.gamma == -1][0]
    mneg = conjugate(m3, neg)
    want = normal_form(parse_poly("Z - (X^3-X^2)*U", QQ, ("X", "Y", "Z", "U")), s3)
    assert mneg.image_z == want


def test_derivation_index_must_be_a_nonnegative_int(surfaces):
    spec = surfaces[0]
    m = canonical_expmap(spec)
    for bad in (-1, 2.5, True, "1", None):
        with pytest.raises(PreconditionError, match="nonnegative integer"):
            derivation_coeff(m, spec.z(), bad)
    assert derivation_coeff(m, spec.z(), 0) == spec.z()


def test_slot_keeps_status_and_aux_checks(surfaces):
    spec = surfaces[1]
    m = canonical_expmap(spec)
    e = spec.z() * spec.y()
    apply_map(m, e)
    # copies start with an empty slot, and the status check comes first
    for status in (VerifyStatus.UNVERIFIED, VerifyStatus.REFUTED):
        copy = dataclasses.replace(m, status=status)
        assert copy._last == [None]
        with pytest.raises(PreconditionError, match="unverified"):
            apply_map(copy, e)
        object.__setattr__(copy, "_last", m._last)   # even a filled slot is not read
        with pytest.raises(PreconditionError, match="unverified"):
            apply_map(copy, e)
    refuted = ExpMap(spec, m.image_x, m.image_z, spec.y()).verified()
    assert refuted.status is VerifyStatus.REFUTED
    with pytest.raises(PreconditionError):
        apply_map(refuted, e)
    # an element with an auxiliary variable is refused, and the slot kept
    for aux in ("v", "U"):
        with pytest.raises(PreconditionError, match="auxiliary"):
            apply_map(m, e * spec.generator(aux))
    assert m._last[0][0] == e


def test_slot_is_outside_equality_and_repr(surfaces):
    spec = surfaces[0]
    m = canonical_expmap(spec)
    fresh = dataclasses.replace(m)
    apply_map(m, spec.y())
    assert m == fresh and repr(m) == repr(fresh)
    assert fresh._last == [None]


def test_higher_derivation_matches_horner(rng):
    for spec in (surf(QQ, "X^2-X", "Z^3+X*Z+1"), surf(GF(2), "X^2+X", "Z^3+Z+X"),
                 surf(GF(5), "X^2+X+1", "Z^3+2*Z+X")):
        m = canonical_expmap(spec)
        images = {"X": m.image_x, "Y": m.image_y, "Z": m.image_z}
        u = spec.generator("U")
        for _ in range(4):
            e = random_element(rng, spec, max_terms=4, nonzero=True)
            top = int(phi_degree(m, e))
            parts = [derivation_coeff(m, e, i) for i in range(top + 2)]
            assert parts[0] == e and not parts[top].is_zero and parts[top + 1].is_zero
            assembled = spec.zero()
            for i, part in enumerate(parts):
                assembled = assembled + part * u ** i
            assert assembled == eval_by_horner(e.raw_lift(), images, spec)


def test_derive_pattern_applies_phi_once(monkeypatch, surfaces):
    spec = surfaces[3]
    m = canonical_expmap(spec)
    calls = []
    real = expmap.eval_poly_on_elements

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(expmap, "eval_poly_on_elements", counted)
    for e in (spec.z() * spec.y(), spec.y() ** 2 + spec.x()):
        calls.clear()
        top = int(phi_degree(m, e))
        parts = [derivation_coeff(m, e, i) for i in range(top + 2)]
        assert len(parts) == top + 2 and len(calls) == 1


def test_apply_map_leaves_a_fixed_x_unbound(surfaces, rng, monkeypatch):
    from danielewski import surface
    from danielewski.surface import SurfaceElement
    bound = []
    original = surface.substitute
    monkeypatch.setattr(surface, "substitute",
                        lambda p, b, **kw: bound.append(sorted(b)) or original(p, b, **kw))
    for spec in surfaces:
        m = canonical_expmap(spec)
        e = random_element(rng, spec, nonzero=True)
        apply_map(m, spec.x() * e + spec.x())
    assert bound and all("X" not in keys for keys in bound)
    # the higher derivation reads U-slices and the U-degree off the normal form
    monkeypatch.setattr(SurfaceElement, "coeffs",
                        property(lambda self: pytest.fail("coeffs view built")))
    spec = surfaces[0]
    m = canonical_expmap(spec)
    e = spec.z() * spec.y()
    assert phi_degree(m, e) == 3
    assert derivation_coeff(m, e, 3) == derivation_coeff(m, e, 3)
    assert not derivation_coeff(m, e, 3).is_zero and derivation_coeff(m, e, 4).is_zero


# deg_Z P >= p, so that some binomial coefficients of the Taylor step vanish
# mod p; f has a double root at 0 and (P, P_Z) = (1), as build_stable_iso needs
TAYLOR_SURFACES = (
    (QQ, "X^2*(X-1)*(X+3)", "(Z+X)^3-1"),
    (GF(2), "X^2*(X+1)", "Z^4+X*Z^2+Z+X"),
    (GF(3), "X^3+X^2", "Z^6+X*Z^3+Z+X"),
    (GF(5), "X^2*(X+2)", "Z^5+Z+X"),
    (GF(7), "X^2*(X+3)", "Z^7+Z+X^2"),
)


@pytest.mark.parametrize("field, f, phi", TAYLOR_SURFACES, ids=str)
def test_canonical_image_y_matches_substitution_and_division(field, f, phi):
    spec = surf(field, f, phi)
    want = spec.y() + spec.from_xz_poly(canonical_quotient_by_division(spec))
    assert canonical_expmap(spec).image_y == want


def test_taylor_step_makes_no_substitution_or_division_by_f(monkeypatch):
    # the e_k of P(X, Z + T) are read off P's Z-coefficients: neither the
    # canonical map nor the stable-isomorphism build substitutes in three
    # variables or divides by f
    widths, divisors = [], []

    def recorded_substitute(*args, **kwargs):
        out = poly.substitute(*args, **kwargs)
        widths.append(len(out.vars))
        return out

    def recorded_exact_div(a, b):
        divisors.append(b)
        return poly.exact_div(a, b)
    for module in (expmap, cancel):
        monkeypatch.setattr(module, "substitute", recorded_substitute, raising=False)
        monkeypatch.setattr(module, "exact_div", recorded_exact_div, raising=False)
    for field, f, phi in TAYLOR_SURFACES:
        spec = surf(field, f, phi)
        divisors.clear()
        canonical_expmap(spec)
        build_stable_iso(spec)
        assert all(b != spec.f.with_vars(b.vars) for b in divisors)
    assert max(widths, default=0) <= 2


# -- verification off the U-expansion against the substitution oracle --------


def _same_report(m):
    assert verify_expmap(m).to_doc() == verify_expmap_by_substitution(m).to_doc()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=lambda f: f.tag())
def test_verify_matches_substitution_oracle_on_canonical_maps(field):
    for d in range(2, 8):
        for phi in (f"Z^{d}+X*Z+1", f"(Z+X)^{d}+X^2"):
            _same_report(canonical_expmap(surf(field, "X^2*(X+1)", phi)))


def test_verify_matches_substitution_oracle_on_conjugated_maps():
    moved = 0
    for field, f, phi in ((QQ, "X^3-X^2", "Z^2+1"), (GF(2), "X^2+X", "Z^2"),
                          (GF(3), "X^2*(X+1)", "Z^3+X"), (GF(5), "X^2*(X+2)", "Z^2+X+1")):
        spec = surf(field, f, phi)
        m = canonical_expmap(spec)
        for cert in automorphisms(spec):
            c = conjugate(m, cert)
            moved += c != m
            _same_report(c)
    assert moved >= 2


def test_verify_matches_substitution_oracle_on_broken_maps(surfaces):
    s45 = surfaces[2]
    m = canonical_expmap(s45)
    sq = surf(QQ, "X^2", "Z^2+1")
    vars4 = ("X", "Y", "Z", "U")

    def el(spec, text):
        return normal_form(parse_poly(text, spec.field, vars4), spec)
    broken = (
        ExpMap(s45, m.image_x, m.image_z, s45.y()),                   # (W) fails
        ExpMap(sq, sq.x(), el(sq, "Z + X^2*U^2"),                     # (A2) fails
               el(sq, "Y + 2*Z*U^2 + X^2*U^4")),
        ExpMap(sq, el(sq, "X + U"), el(sq, "Z + 1 + U"), el(sq, "Y - U^3")),  # all fail
        ExpMap(sq, sq.x(), el(sq, "Z + 1"), sq.y()),                  # no U, (W), (A1) fail
    )
    for b in broken:
        assert not verify_expmap(b).ok
        _same_report(b)
    for spec in surfaces:                                             # no U, verifies
        trivial = ExpMap(spec, spec.x(), spec.z(), spec.y())
        assert verify_expmap(trivial).ok
        _same_report(trivial)


def test_derivation_coeff_matches_aux_coefficient(rng):
    for spec in (surf(QQ, "X^2-X", "Z^3+X*Z+1"), surf(GF(2), "X^2+X", "Z^3+Z+X"),
                 surf(GF(3), "X^2*(X+1)", "Z^3+X")):
        m = canonical_expmap(spec)
        for e in [spec.zero(), spec.x(), spec.z() * spec.y()] + [
                random_element(rng, spec, max_terms=4) for _ in range(4)]:
            top = phi_degree(m, e)
            top = 0 if top is NEG_INF else int(top)
            for i in range(top + 3):
                assert derivation_coeff(m, e, i) == aux_coefficient(apply_map(m, e), "U", i)


def test_verify_substitutes_twice_and_three_times_on_failure(monkeypatch, surfaces):
    # (W) and the left sides phi_V(phi_U(g)) are substitutions; U -> 0,
    # U -> V and U -> U + V are read off the images.  The law on a fixed
    # generator, phi(g) = g, is read off its image, and the y law follows
    # from the other checks, so phi_V(phi_U(y)) is substituted only when one
    # fails
    calls = []
    real = expmap.eval_poly_on_elements
    monkeypatch.setattr(expmap, "eval_poly_on_elements",
                        lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
    for spec in surfaces:
        m = canonical_expmap(spec)
        for candidate, substitutions in ((m, 2), (ExpMap(spec, spec.x(), spec.z(), spec.y()), 1)):
            calls.clear()
            assert verify_expmap(candidate).ok
            assert len(calls) == substitutions
            assert spec.x().raw_lift() not in calls
            assert candidate.image_y.raw_lift() not in calls
        shifted_y = ExpMap(spec, m.image_x, m.image_z, m.image_y + spec.generator("U"))
        calls.clear()
        report = verify_expmap(shifted_y)           # (W) fails
        assert not report.checks[0].passed
        assert len(calls) == 3 and calls[-1] == shifted_y.image_y.raw_lift()
        unshifted_y = ExpMap(spec, m.image_x, m.image_z, spec.y())   # (W) fails, y fixed
        calls.clear()
        report = verify_expmap(unshifted_y)
        assert not report.checks[0].passed and report.checks[-1].passed
        assert len(calls) == 2 and spec.y().raw_lift() not in calls
