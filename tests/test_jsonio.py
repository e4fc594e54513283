import json
from fractions import Fraction

import pytest

from danielewski import (GF, QQ, Poly, automorphisms, build_stable_iso, canonical_expmap,
                         decide_isomorphism, jsonio, sigma_family, parse_poly, verify_expmap,
                         verify_iso, verify_stable_iso)
from danielewski.errors import InputError
from danielewski.expmap import VerifyStatus
from danielewski.surface import normal_form
from danielewski.jsonio import (certificates_to_doc, dumps, element_from_doc, element_to_doc,
                                expmap_from_doc, expmap_to_doc, family_to_doc, iso_from_doc,
                                iso_to_doc, stable_from_doc, stable_to_doc, surface_from_doc,
                                surface_to_doc)

from conftest import random_element, surf


def test_surface_round_trip(surfaces):
    for spec in surfaces:
        doc = surface_to_doc(spec)
        assert set(doc) == {"field", "f", "phi"}
        assert surface_from_doc(doc) == spec


def test_surface_doc_errors():
    with pytest.raises(InputError):
        surface_from_doc({"field": "Q", "f": "X^2"})
    with pytest.raises(InputError):
        surface_from_doc({"field": "Q", "f": "2*X^2", "phi": "Z^2"})
    with pytest.raises(InputError):
        surface_from_doc({"field": "F9", "f": "X^2", "phi": "Z^2"})
    with pytest.raises(InputError):
        surface_from_doc({"field": "Q", "f": "X^2 +", "phi": "Z^2"})


def test_element_round_trip(rng, surfaces):
    for spec in surfaces:
        for _ in range(20):
            e = random_element(rng, spec)
            assert element_from_doc(element_to_doc(e), spec) == e
    sq = surfaces[1]
    v_el = sq.from_xz_poly(parse_poly("v", QQ, ("X", "Z", "v")))
    doc = element_to_doc(v_el)
    assert doc["aux"] == ["v"]
    assert element_from_doc(doc, sq) == v_el


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(5), GF(7)), ids=lambda f: f.tag())
def test_element_printing_matches_coeffs_view(rng, field):
    from oracles import element_doc_by_coeffs, element_str_by_coeffs
    spec = surf(field, "X^2*(X+1)", "Z^3 + X*Z + 1")
    p = field.modulus
    for aux in ((), ("U",), ("V",), ("v",), ("U", "V")):
        vars_raw = ("X", "Y", "Z") + aux
        elements = [spec.zero(), spec.one(), spec.z(), spec.from_scalar(-1)]
        for _ in range(30):
            terms = {}
            top_y = rng.choice((0, 0, 1, 3))
            top_z = 4 if top_y else 2              # no Y at all in a quarter of them
            for _ in range(rng.randint(1, 8)):
                exps = (rng.randint(0, 4), rng.randint(0, top_y), rng.randint(0, top_z)) + tuple(
                    rng.randint(0, 2) for _ in aux)
                terms[exps] = (rng.randrange(1, p) if p else
                               Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 7))))
            elements.append(normal_form(Poly(field, vars_raw, terms), spec))
        assert any(e.aux for e in elements) == bool(aux)
        assert min(len(e.coeffs) for e in elements) == 0              # the zero element
        assert any(list(e.coeffs) == [0] for e in elements)            # no Y
        assert max(len(e.coeffs) for e in elements) > 2
        for e in elements:
            assert element_to_doc(e) == element_doc_by_coeffs(e)
            assert list(element_to_doc(e)["coeffs"]) == list(element_doc_by_coeffs(e)["coeffs"])
            assert str(e) == element_str_by_coeffs(e)
            assert element_from_doc(element_to_doc(e), spec) == e


def test_expmap_round_trip(surfaces):
    for spec in surfaces:
        m = canonical_expmap(spec)
        doc = expmap_to_doc(m)
        loaded = expmap_from_doc(doc)
        assert loaded.status is VerifyStatus.UNVERIFIED
        assert (loaded.image_x, loaded.image_z, loaded.image_y) == \
            (m.image_x, m.image_z, m.image_y)
        assert verify_expmap(loaded).ok


def test_conjugated_expmap_round_trip():
    from danielewski import conjugate
    s3 = surf(QQ, "X^3-X^2", "Z^2+1")
    m = canonical_expmap(s3)
    neg = [c for c in automorphisms(s3) if c.gamma == -1][0]
    mc = conjugate(m, neg)
    loaded = expmap_from_doc(expmap_to_doc(mc))
    assert (loaded.image_x, loaded.image_z, loaded.image_y) == \
        (mc.image_x, mc.image_z, mc.image_y)
    assert verify_expmap(loaded).ok


def test_iso_round_trip(surfaces):
    for cert in automorphisms(surfaces[2]):
        doc = iso_to_doc(cert)
        assert set(doc) == {"source", "target", "lambda", "mu", "gamma",
                            "delta", "u", "theta"}
        back = iso_from_doc(doc)
        assert back == cert and verify_iso(back).ok


def test_a_decision_renders_each_surface_once(monkeypatch):
    # the certificates of one decision share their source and target: each
    # is rendered once, and the documents are those of iso_to_doc
    rendered = []
    original = jsonio.surface_to_doc

    def counted(spec):
        rendered.append(spec)
        return original(spec)
    s1 = surf(GF(7), "X^7-X", "Z^7+Z")
    s2 = surf(GF(7), "X^7-X", "Z^7+Z+1")       # P_1(X, 2Z + 1) / 2^7
    for left, right, surfaces in ((s1, s1, 1), (s1, s2, 2)):
        certs = decide_isomorphism(left, right)
        assert len(certs) > 1
        single = dumps([iso_to_doc(c) for c in certs])
        monkeypatch.setattr(jsonio, "surface_to_doc", counted)
        docs = certificates_to_doc(certs)
        monkeypatch.undo()
        assert len(rendered) == surfaces and dumps(docs) == single
        rendered.clear()
        # no two documents share a dict: editing one surface leaves the rest
        docs[0]["source"]["phi"] = "Z^2"
        docs[0]["target"]["f"] = "X^2"
        assert dumps(docs[1:]) == dumps([iso_to_doc(c) for c in certs[1:]])
        assert docs[0]["source"]["f"] == docs[1]["source"]["f"]


def test_iso_doc_rejects_zero_units(surfaces):
    doc = iso_to_doc(automorphisms(surfaces[2])[0])
    doc["lambda"] = "0"
    with pytest.raises(InputError):
        iso_from_doc(doc)


def test_stable_round_trip():
    cert = build_stable_iso(surf(QQ, "X^3-X^2", "Z^2+1"))
    doc = stable_to_doc(cert)
    back = stable_from_doc(doc)
    assert back == cert
    assert verify_stable_iso(back).ok
    # degree-1 partner surfaces survive the round trip
    cert = build_stable_iso(surf(QQ, "X^2", "Z^2+1"))
    assert stable_from_doc(stable_to_doc(cert)) == cert


def test_q12_certificate_stores_only_what_it_cannot_derive():
    # the d = r = 12 certificate over Q; its document, with s and corr, was
    # 498,289 bytes
    f = "X^2*" + "*".join(f"(X-{i})" for i in range(1, 11))
    doc = stable_to_doc(build_stable_iso(surf(QQ, f, "(Z+X)^12 - 1")))
    assert set(doc) == {"surfaceA", "surfaceB", "h", "theta", "a", "b", "w"}
    assert len(dumps(doc)) <= 0.6 * 498_289


def test_family_doc_shape():
    fam = sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                       parse_poly("Z^2+1", QQ, ("X", "Z")), 2, 3)
    doc = family_to_doc(fam)
    assert doc["ok"] is True
    assert len(doc["surfaces"]) == 2 and len(doc["chain"]) == 1
    assert doc["chain"][0]["verification"]["ok"] is True
    assert dumps(doc) == dumps(family_to_doc(fam))  # deterministic


def test_dumps_deterministic(surfaces):
    a = dumps(surface_to_doc(surfaces[1]))
    b = dumps(surface_to_doc(surfaces[1]))
    assert a == b and a.startswith("{")


def _reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def test_dumps_writes_the_bytes_of_json_dumps(surfaces):
    from danielewski import decide_isomorphism
    from danielewski.isomorph import Obstruction
    from danielewski.jsonio import obstruction_to_doc
    docs = []
    for spec in surfaces:
        m = canonical_expmap(spec)
        docs += [surface_to_doc(spec), element_to_doc(m.image_y), expmap_to_doc(m),
                 verify_expmap(m).to_doc()]
    docs += [iso_to_doc(c) for c in automorphisms(surfaces[2])]
    obstruction = decide_isomorphism(surf(QQ, "X^2", "Z^2+1"), surf(QQ, "X^3", "Z^2+1"))
    assert isinstance(obstruction, Obstruction)
    docs.append({"isomorphic": False, "obstruction": obstruction_to_doc(obstruction)})
    cert = build_stable_iso(surf(QQ, "X^3-X^2", "(Z+X)^3-1"))
    docs += [stable_to_doc(cert), verify_stable_iso(cert).to_doc()]
    docs.append(family_to_doc(sigma_family(QQ, parse_poly("X-1", QQ, ("X",)),
                                           parse_poly("Z^2+1", QQ, ("X", "Z")), 2, 4)))
    deep_list, deep_dict = [], {}
    for depth in range(300):
        deep_list, deep_dict = [deep_list, depth], {"k": deep_dict, "d": [depth]}
    docs += [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]], deep_list, deep_dict,
             "", "été 日本 \U0001f600", "\x00\x01\x1f\x7f\"\\/\b\f\n\r\t",
             "  \ud800", {"é": 1, "e": 2, "\x00": 3, "Z": 4, "": 5},
             [None, True, False, 0, -1, 2 ** 80, -(3 ** 50)], ("tuple", ("in", "tuple")),
             {"b": [1, {"a": None}], "a": ["x", ("y",)]}]
    for doc in docs:
        assert dumps(doc) == _reference(doc)


def test_dumps_leaves_other_values_to_json_dumps():
    for doc in ({"a": 1.5}, [float("nan"), float("inf"), -0.0], {1: "one", 2: "two"},
                {"n": {True: 1, False: 2}}, [1, {"f": 2.0}]):
        assert dumps(doc) == _reference(doc)
    for doc in ({"a": object()}, {1: "one", "b": "two"}, [{"x": {2, 3}}]):
        with pytest.raises(TypeError):
            _reference(doc)
        with pytest.raises(TypeError):
            dumps(doc)
    cycle = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(cycle)
