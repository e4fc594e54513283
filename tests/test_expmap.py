import dataclasses
import math

import pytest

from danielewski import (GF, QQ, ExpMap, Poly, Scalar, apply_map, automorphisms,
                         canonical_expmap, conjugate, derivation_coeff, is_invariant,
                         normal_form, parse_poly, phi_degree, verify_expmap)
from danielewski import expmap
from danielewski.errors import PreconditionError
from danielewski.expmap import VerifyStatus
from danielewski.poly import NEG_INF

from conftest import random_element, surf
from oracles import eval_by_horner


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
            a = normal_form(pa + rel.scaled(k % spec.field.characteristic()
                                            if spec.field.characteristic() else k), spec)
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


def test_slot_keeps_status_and_mode_checks(surfaces):
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
    # an element with v is refused in plain mode after an extended-mode call
    ev = e * spec.generator("v")
    extended = apply_map(m, ev, extended=True)
    with pytest.raises(PreconditionError, match="auxiliary"):
        apply_map(m, ev)
    assert apply_map(m, ev, extended=True) == extended
    # an element without v has one image in both modes
    assert apply_map(m, e, extended=True) == apply_map(m, e)


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
