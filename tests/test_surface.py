from dataclasses import fields

import pytest

from danielewski import (GF, QQ, build_stable_iso, canonical_expmap, divide_by_x, fiber,
                         filtration_deg, graded_surface, leading_form, normal_form,
                         parse_poly, poly_str, shift_surface, smoothness_check)
from danielewski import surface
from danielewski.errors import FieldMismatchError, PreconditionError, SurfaceConstraintError
from danielewski.poly import NEG_INF, Poly, substitute
from danielewski.surface import FiberKind, SurfaceElement, SurfaceSpec, eval_poly_on_elements

from conftest import random_coeff, random_poly, random_raw, surf
from oracles import eval_by_horner, normal_form_stepwise


def test_make_surface_examples():
    s = surf(GF(2), "X^2+X", "Z^2")
    assert (s.r, s.d, s.n) == (2, 2, 1)
    s = surf(QQ, "X^3-X^2", "Z^2+1")
    assert (s.r, s.d, s.n) == (3, 2, 2)
    with pytest.raises(SurfaceConstraintError):
        surf(QQ, "2*X^2", "Z^2+1")
    with pytest.raises(SurfaceConstraintError):
        surf(QQ, "X", "Z^2+1")
    with pytest.raises(SurfaceConstraintError):
        surf(QQ, "X^2", "Z + 1")
    with pytest.raises(SurfaceConstraintError):
        surf(QQ, "X^2", "X*Z^2 + 1")


def test_make_surface_refuses_other_variables_and_fields():
    make = surface.make_surface
    f = parse_poly("X^2+X", QQ, ("X", "Z"))
    P = parse_poly("Z^2+X", QQ, ("X", "Y", "Z"))
    assert make(QQ, f, P) == surf(QQ, "X^2+X", "Z^2+X")   # unused variables are dropped
    with pytest.raises(SurfaceConstraintError, match=r"f must be a polynomial in X alone, "
                                                     r"uses \('X', 'Z'\)"):
        make(QQ, parse_poly("X^2+Z", QQ, ("X", "Z")), P)
    with pytest.raises(SurfaceConstraintError, match=r"P must be a polynomial in X, Z, "
                                                     r"uses \('Y', 'Z'\)"):
        make(QQ, f, parse_poly("Z^2+Y", QQ, ("X", "Y", "Z")))
    for f_field, P_field in ((GF(3), QQ), (QQ, GF(3)), (GF(3), GF(3))):
        with pytest.raises(SurfaceConstraintError, match="over the declared field"):
            make(QQ, parse_poly("X^2+X", f_field, ("X",)),
                 parse_poly("Z^2+X", P_field, ("X", "Z")))


def test_normal_form_examples(surfaces):
    s45 = surfaces[2]
    nf = normal_form(parse_poly("Z^2", GF(2), ("X", "Y", "Z")), s45)
    assert dict(nf.coeffs) == {1: parse_poly("X^2+X", GF(2), ("X", "Z"))}
    nf3 = normal_form(parse_poly("Z^3", GF(2), ("X", "Y", "Z")), s45)
    assert dict(nf3.coeffs) == {1: parse_poly("X^2*Z+X*Z", GF(2), ("X", "Z"))}
    nfx = normal_form(parse_poly("X*Z", GF(2), ("X", "Y", "Z")), s45)
    assert dict(nfx.coeffs) == {0: parse_poly("X*Z", GF(2), ("X", "Z"))}


# surfaces of higher Z-degree, over F_p with p | d among them
WIDE_SURFACES = (
    (GF(3), "X^2*(X+1)", "Z^3+X*Z+X^2"),
    (GF(2), "X^3+X", "Z^4+X*Z^3+Z+1"),
    (QQ, "X^2-X", "Z^3-X*Z+1/2"),
)


def _random_aux_raw(rng, spec):
    """A representative over X, Y, Z and some of U, V, v in a shuffled
    variable order, with Z-degree up to d(d-1); half the time it is built
    as a multiple of P(X, theta) with deg_Z theta = d - 1, where such
    degrees come from."""
    names = ["X", "Y", "Z"] + rng.sample(["U", "V", "v"], rng.randint(1, 3))
    rng.shuffle(names)
    vs = tuple(names)
    top = spec.d * (spec.d - 1)
    raw = random_poly(rng, spec.field, vs, max_exp=2, max_terms=4)
    z = vs.index("Z")
    raw = raw + Poly(spec.field, vs, {
        tuple(rng.randint(0, top) if i == z else rng.randint(0, 1) for i in range(len(vs))):
        random_coeff(rng, spec.field) for _ in range(rng.randint(1, 3))})
    if rng.random() < 0.5:
        theta = (Poly.monomial(spec.field, ("X", "Z"), (0, spec.d - 1))
                 + random_poly(rng, spec.field, ("X", "Z"), max_exp=1, max_terms=2))
        at_theta = substitute(spec.P, {"Z": theta}).with_vars(vs)
        raw = raw + at_theta * random_poly(rng, spec.field, vs, max_exp=1, max_terms=2)
    return raw


def test_normal_form_uniqueness_across_orders(rng, surfaces):
    wide = tuple(surf(*s) for s in WIDE_SURFACES)
    for spec in surfaces + wide:
        state = repr(vars(spec))
        raws = [random_raw(rng, spec) for _ in range(60)]
        raws += [_random_aux_raw(rng, spec) for _ in range(20)]
        for raw in raws:
            fast = normal_form(raw, spec)
            high = normal_form_stepwise(raw, spec, "high")
            low = normal_form_stepwise(raw, spec, "low")
            assert fast == high == low
        # no per-surface state: normalizing leaves the surface as it was
        assert set(vars(spec)) == {f.name for f in fields(SurfaceSpec)}
        assert repr(vars(spec)) == state


def test_element_arithmetic(surfaces):
    s45 = surfaces[2]
    z, y = s45.z(), s45.y()
    fx = s45.from_xz_poly(parse_poly("X^2+X", GF(2), ("X", "Z")))
    assert z * z == normal_form(parse_poly("Z^2", GF(2), ("X", "Y", "Z")), s45)
    assert y * fx == s45.from_xz_poly(s45.P)
    sq = surfaces[1]
    assert (sq.one() + sq.z()) + (sq.one() - sq.z()) == sq.from_scalar(2)
    assert (sq.z() * sq.x()) * sq.y() == sq.z() * (sq.x() * sq.y())


def test_element_rejects_undeclared_aux(surfaces):
    sq = surfaces[1]
    with pytest.raises(SurfaceConstraintError):
        SurfaceElement(sq, (), {0: parse_poly("U", QQ, ("X", "Z", "U"))})
    with pytest.raises(SurfaceConstraintError):
        SurfaceElement(sq, ("Q9",), {})


def test_filtration_degree(surfaces):
    for spec in surfaces:
        assert filtration_deg(spec.x()) == 0
        assert filtration_deg(spec.z()) == 1
        assert filtration_deg(spec.y()) == spec.d
    s45 = surfaces[2]
    el = normal_form(parse_poly("(X^2+X)*Y*Z", GF(2), ("X", "Y", "Z")), s45)
    assert filtration_deg(el) == 3
    assert filtration_deg(s45.zero()) is NEG_INF


def test_deg_is_a_degree_function(rng, surfaces):
    from conftest import random_element
    for spec in surfaces:
        for _ in range(40):
            a = random_element(rng, spec, nonzero=True)
            b = random_element(rng, spec, nonzero=True)
            assert filtration_deg(a * b) == filtration_deg(a) + filtration_deg(b)
            s = a + b
            if not s.is_zero:
                assert filtration_deg(s) <= max(filtration_deg(a), filtration_deg(b))


def test_leading_form(surfaces):
    sq = surfaces[1]
    lf = leading_form(normal_form(parse_poly("Z + X^3", QQ, ("X", "Y", "Z")), sq))
    assert lf == graded_surface(sq).z()
    assert leading_form(sq.y()) == graded_surface(sq).y()
    # graded relation: w^d = f(u) v in B
    B = graded_surface(sq)
    assert B.z() ** sq.d == B.from_xz_poly(B.f.with_vars(("X", "Z"))) * B.y()


def test_leading_form_multiplicative(rng, surfaces):
    from conftest import random_element
    for spec in surfaces:
        for _ in range(40):
            a = random_element(rng, spec, nonzero=True)
            b = random_element(rng, spec, nonzero=True)
            assert leading_form(a * b) == leading_form(a) * leading_form(b)


def test_graded_surface_examples():
    s = surf(GF(2), "X^2+X", "Z^2+Z")
    assert poly_str(graded_surface(s).P) == "Z^2"
    s = surf(QQ, "X^3-X^2", "Z^2+1")
    g = graded_surface(s)
    assert poly_str(g.P) == "Z^2" and g.f == s.f
    assert graded_surface(g) == g


def test_divide_by_x(surfaces):
    sq = surfaces[1]
    e = sq.x() * sq.y() + sq.x() ** 2 * sq.z()
    assert divide_by_x(e) == sq.y() + sq.x() * sq.z()
    assert divide_by_x(sq.z()) is None
    s_no = surf(QQ, "X^2+1", "Z^2+1")
    with pytest.raises(PreconditionError):
        divide_by_x(s_no.x())


def test_divide_by_x_round_trip(rng, surfaces):
    from conftest import random_element
    for spec in surfaces:
        for _ in range(30):
            e = random_element(rng, spec)
            q = divide_by_x(spec.x() * e)
            assert q == e


def test_fiber_examples():
    s = surf(QQ, "X^2", "Z^2+1")
    rep = fiber(s, 1)
    assert rep.kind is FiberKind.GENERIC_LINE and rep.f_value == 1
    rep = fiber(s, 0)
    assert rep.kind is FiberKind.EXCEPTIONAL_FIBER
    assert [(poly_str(g), m) for g, m in rep.factors.factors] == [("Z^2 + 1", 1)]
    assert rep.closure_lines == 2
    rep = fiber(surf(QQ, "X^2", "Z^2"), 0)
    assert rep.kind is FiberKind.NON_REDUCED_FIBER


def test_fiber_kind_matches_invariants(rng, surfaces):
    for spec in surfaces:
        p = spec.field.modulus
        points = range(p) if p else range(-3, 4)
        for c in points:
            rep = fiber(spec, c)
            if rep.f_value != 0:
                assert rep.kind is FiberKind.GENERIC_LINE
            else:
                assert rep.kind in (FiberKind.EXCEPTIONAL_FIBER,
                                    FiberKind.NON_REDUCED_FIBER)


def test_smoothness_examples():
    assert smoothness_check(surf(QQ, "X^2", "Z^2+1")).smooth
    rep = smoothness_check(surf(QQ, "X^2", "Z^2"))
    assert not rep.smooth and poly_str(rep.witness) == "X"
    rep = smoothness_check(surf(GF(2), "X^2+X", "Z^2+Z+X"))
    assert rep.smooth and poly_str(rep.resultant) == "1"
    # P_Z = 0 in characteristic 2: never smooth
    rep = smoothness_check(surf(GF(2), "X^2+X", "Z^2+X"))
    assert not rep.smooth


def test_shift_surface_moves_the_root():
    s = surf(QQ, "(X-1)^2*(X+2)", "Z^2+1")
    assert s.n == 0
    shifted = shift_surface(s, 1)
    assert shifted.n == 2
    assert poly_str(shifted.f) == poly_str(parse_poly("X^2*(X+3)", QQ, ("X",)))


@pytest.mark.parametrize("field, f, p", [
    (QQ, "X^3-X^2", "(Z+X)^3-1"),
    (GF(2), "X^2*(X+1)", "Z^2+Z+X"),
    (GF(5), "X^2*(X+1)", "(Z+X)^3-1"),
])
def test_eval_poly_on_elements_matches_horner(rng, field, f, p):
    spec = surf(field, f, p)
    # P and a at (x, theta) in A[v]; an unbound X stands for x itself
    theta = build_stable_iso(spec).theta
    for _ in range(6):
        q = random_poly(rng, field, ("X", "Z"), max_exp=4)
        for images in ({"X": spec.x(), "Z": theta}, {"Z": theta}):
            assert eval_poly_on_elements(q, images, spec) == eval_by_horner(q, images, spec)
    # canonical-map images in A[U]; an unbound U passes through
    m = canonical_expmap(spec)
    images = m.images()
    for _ in range(6):
        q = random_poly(rng, field, ("X", "Y", "Z", "U"), max_exp=2)
        assert eval_poly_on_elements(q, images, spec) == eval_by_horner(q, images, spec)
    u_poly = parse_poly("U*Z", field, ("X", "Y", "Z", "U"))
    assert eval_poly_on_elements(u_poly, images, spec) == spec.generator("U") * m.image_z


def test_eval_poly_on_elements_rejects_foreign_image(surfaces):
    q = parse_poly("Z", QQ, ("X", "Z"))
    with pytest.raises(SurfaceConstraintError):
        eval_poly_on_elements(q, {"Z": surfaces[0].z()}, surfaces[1])


def test_element_is_stored_as_its_normal_form(surfaces, rng, monkeypatch):
    spec = surfaces[1]  # (Q, X^3-X^2, Z^2+1)
    e = normal_form(random_raw(rng, spec), spec)
    assert e.raw_lift() is e.raw_lift() and e.raw_lift().vars == ("X", "Y", "Z")
    assert not hasattr(surface, "_split_by_y")
    with pytest.raises(TypeError):
        e.coeffs[7] = e.coeffs.get(0)  # a read-only view
    # a product that needs no rewrite is one Poly product and no Poly sum
    x, y = spec.x(), spec.y()
    calls = []
    for name in ("__mul__", "__add__"):
        original = vars(Poly)[name]
        monkeypatch.setattr(Poly, name,
                            lambda a, b, _f=original, _n=name: calls.append(_n) or _f(a, b))
    xy = x * y
    monkeypatch.undo()
    assert calls == ["__mul__"]
    assert xy == normal_form(parse_poly("X*Y", QQ, ("X", "Y", "Z")), spec)


def test_constructor_validates_coefficients(surfaces):
    sq = surfaces[0]
    xz = ("X", "Z")
    e = SurfaceElement(sq, ("U",), {0: parse_poly("X", QQ, xz), 2: parse_poly("Z", QQ, xz)})
    assert e.aux == () and dict(e.coeffs) == {0: parse_poly("X", QQ, xz),
                                              2: parse_poly("Z", QQ, xz)}
    assert e == sq.x() + sq.z() * sq.y() ** 2
    with pytest.raises(SurfaceConstraintError):
        SurfaceElement(sq, (), {0: parse_poly("Z^2", QQ, xz)})  # Z-degree above d-1
    with pytest.raises(SurfaceConstraintError):
        SurfaceElement(sq, (), {-1: parse_poly("X", QQ, xz)})
    with pytest.raises(FieldMismatchError):
        SurfaceElement(sq, (), {0: parse_poly("X", GF(2), xz)})
    # a y-power of 2**31 or more would carry into x's exponent field
    one = parse_poly("1", QQ, xz)
    for i in (2**31, 2**32):
        with pytest.raises(SurfaceConstraintError, match=rf"y-power {i} is not an integer in"):
            SurfaceElement(sq, (), {i: one})
    assert dict(SurfaceElement(sq, (), {2**31 - 1: one}).coeffs) == {2**31 - 1: one}
