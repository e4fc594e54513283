"""JSON document formats for surfaces, elements, maps and certificates.

All expressions use the polynomial grammar; field tags are "Q" or "F<p>".
Readers raise InputError on malformed documents so the CLI can map them to
exit code 2.  Writers are deterministic: same object, same document.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Dict, List

from .cancel import FamilyReport, StableIsoCertificate
from .errors import DanielewskiError, InputError
from .expmap import ExpMap
from .fields import parse_field_tag
from .isomorph import IsoCertificate, Obstruction
from .parsing import MAX_DEGREE, coefficient_strs, parse_poly, parse_scalar, poly_str, scalar_str
from .poly import Poly
from .surface import SurfaceElement, SurfaceSpec, make_surface, normal_form


def dumps(doc) -> str:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2)``, written
    without the pure-Python encoder that ``indent`` selects.  Documents hold
    dicts with str keys, lists, tuples, str, int, bool and None; anything
    else, and any failure (a cycle, say), is left to ``json.dumps`` itself."""
    out: List[str] = []
    try:
        _write(doc, "\n", out)
    except (_Unwritable, TypeError, RecursionError):
        return json.dumps(doc, sort_keys=True, indent=2)
    return "".join(out)


class _Unwritable(Exception):
    """A value ``_write`` leaves to ``json.dumps``."""


def _write(value, newline: str, out: List[str]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is the line
    break and indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise _Unwritable
            out.append(sep)
            out.append(_escape(key))
            out.append(": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise _Unwritable


def _require(doc: dict, key: str, kind: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{kind} document is missing {key!r}")
    return doc[key]


def _wrap(kind: str, fn, *args):
    try:
        return fn(*args)
    except InputError:
        raise
    except DanielewskiError as exc:
        raise InputError(f"bad {kind} document: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad {kind} document: {exc}") from exc


# -- surfaces -----------------------------------------------------------------


def surface_to_doc(spec: SurfaceSpec) -> dict:
    return {"field": spec.field.tag(), "f": poly_str(spec.f), "phi": poly_str(spec.P)}


def surface_from_doc(doc: dict) -> SurfaceSpec:
    return _wrap("surface", _surface, doc, 2)


def _surface(doc: dict, min_r: int) -> SurfaceSpec:
    field = parse_field_tag(_require(doc, "field", "surface"))
    f = parse_poly(_require(doc, "f", "surface"), field, ("X",))
    P = parse_poly(_require(doc, "phi", "surface"), field, ("X", "Z"))
    return make_surface(field, f, P, _min_r=min_r)


# -- elements -----------------------------------------------------------------


def element_to_doc(e: SurfaceElement) -> dict:
    return {"coeffs": {str(i): g for i, g in coefficient_strs(e.raw_lift(), "Y").items()},
            "aux": list(e.aux)}


def element_from_doc(doc: dict, spec: SurfaceSpec) -> SurfaceElement:
    def build():
        aux = _require(doc, "aux", "element") if "aux" in doc else []
        coeffs_doc = _require(doc, "coeffs", "element")
        if not isinstance(aux, list):
            raise InputError(f"element 'aux' must be a list, got {aux!r}")
        if not isinstance(coeffs_doc, dict):
            raise InputError(f"element 'coeffs' must be an object, got {coeffs_doc!r}")
        aux = tuple(aux)
        vars_c = ("X", "Z") + aux
        coeffs: Dict[int, Poly] = {}
        for key, text in coeffs_doc.items():
            i = int(key)
            if key != str(i):       # "01", "+1", " 1" and "1_0" would alias a power
                raise InputError(f"element y-power key {key!r} is not written as {str(i)!r}")
            if i > MAX_DEGREE:
                raise InputError(f"element y-power {i} exceeds the input budget of {MAX_DEGREE}")
            coeffs[i] = parse_poly(text, spec.field, vars_c)
        return SurfaceElement(spec, aux, coeffs)
    return _wrap("element", build)


# -- exponential maps ----------------------------------------------------------


def expmap_to_doc(m: ExpMap) -> dict:
    return {
        "surface": surface_to_doc(m.spec),
        "x": poly_str(m.image_x.raw_lift().with_vars(("X", "Z", "Y", "U"))),
        "z": poly_str(m.image_z.raw_lift().with_vars(("X", "Z", "Y", "U"))),
        "y": poly_str(m.image_y.raw_lift().with_vars(("X", "Z", "Y", "U"))),
    }


def expmap_from_doc(doc: dict) -> ExpMap:
    def build():
        spec = surface_from_doc(_require(doc, "surface", "exponential map"))
        images = {}
        for key in ("x", "z", "y"):
            raw = parse_poly(_require(doc, key, "exponential map"),
                             spec.field, ("X", "Z", "Y", "U"))
            images[key] = normal_form(raw.with_vars(("X", "Y", "Z", "U")), spec)
        return ExpMap(spec, images["x"], images["z"], images["y"])
    return _wrap("exponential map", build)


# -- isomorphism certificates ----------------------------------------------------


def certificates_to_doc(certs: List[IsoCertificate]) -> List[dict]:
    """The documents of a decision's certificates.  A surface object that
    several certificates share is rendered once; each document gets its own
    copy of the rendered dict, so editing one leaves the others as they are."""
    rendered: Dict[int, dict] = {}      # id of a surface in ``certs`` -> its document

    def surface(spec: SurfaceSpec) -> dict:
        doc = rendered.get(id(spec))
        if doc is None:
            doc = rendered[id(spec)] = surface_to_doc(spec)
        return dict(doc)
    return [{
        "source": surface(cert.source),
        "target": surface(cert.target),
        "lambda": scalar_str(cert.lam),
        "mu": scalar_str(cert.mu),
        "gamma": scalar_str(cert.gamma),
        "delta": poly_str(cert.delta),
        "u": scalar_str(cert.u),
        "theta": poly_str(cert.theta_rem),
    } for cert in certs]


def iso_to_doc(cert: IsoCertificate) -> dict:
    return certificates_to_doc([cert])[0]


def iso_from_doc(doc: dict) -> IsoCertificate:
    def build():
        source = surface_from_doc(_require(doc, "source", "certificate"))
        target = surface_from_doc(_require(doc, "target", "certificate"))
        field = source.field
        return IsoCertificate(
            source, target,
            parse_scalar(_require(doc, "lambda", "certificate"), field),
            parse_scalar(_require(doc, "mu", "certificate"), field),
            parse_scalar(_require(doc, "gamma", "certificate"), field),
            parse_poly(_require(doc, "delta", "certificate"), field, ("X",)),
            parse_scalar(_require(doc, "u", "certificate"), field),
            parse_poly(_require(doc, "theta", "certificate"), field, ("X", "Z")),
        )
    return _wrap("certificate", build)


def obstruction_to_doc(o: Obstruction) -> dict:
    return {"kind": o.kind.label, "item": o.kind.tag, "detail": o.detail}


# -- stable-isomorphism certificates ----------------------------------------------


def stable_to_doc(cert: StableIsoCertificate) -> dict:
    return {
        "surfaceA": surface_to_doc(cert.spec_a),
        "surfaceB": surface_to_doc(cert.spec_b),
        "h": poly_str(cert.h),
        "theta": element_to_doc(cert.theta),
        "a": poly_str(cert.a),
        "b": poly_str(cert.b),
        "w": element_to_doc(cert.w),
    }


def stable_from_doc(doc: dict) -> StableIsoCertificate:
    def build():
        spec_a = surface_from_doc(_require(doc, "surfaceA", "stable certificate"))
        spec_b = _surface(_require(doc, "surfaceB", "stable certificate"), 1)
        for key in ("corr", "s"):
            if key in doc:
                raise InputError(f"stable certificate has the key {key!r} of an older "
                                 "format; rebuild it with `cancel build`")
        field = spec_a.field
        if spec_b.field != field:
            raise InputError(f"surfaceB is over {spec_b.field.tag()}, "
                             f"surfaceA over {field.tag()}")
        return StableIsoCertificate(
            spec_a, spec_b,
            parse_poly(_require(doc, "h", "stable certificate"), field, ("X",)),
            element_from_doc(_require(doc, "theta", "stable certificate"), spec_a),
            parse_poly(_require(doc, "a", "stable certificate"), field, ("X", "Z")),
            parse_poly(_require(doc, "b", "stable certificate"), field, ("X", "Z")),
            element_from_doc(_require(doc, "w", "stable certificate"), spec_a),
        )
    return _wrap("stable certificate", build)


# -- family reports ----------------------------------------------------------------


def family_to_doc(report: FamilyReport) -> dict:
    return {
        "surfaces": [surface_to_doc(s) for s in report.surfaces],
        "fingerprints": [
            {"d": fp.d, "r": fp.r, "multiplicities": list(fp.multiplicities),
             "degrees": list(fp.degrees)}
            for fp in report.fingerprints
        ],
        "pairwise": [
            {"i": i, "j": j, "verdict": verdict}
            for i, j, verdict in report.nonisomorphic
        ],
        "chain": [
            {
                "upper": surface_to_doc(link.upper),
                "lower": surface_to_doc(link.lower),
                "certificate": stable_to_doc(link.certificate),
                "verification": link.report.to_doc(),
            }
            for link in report.chain
        ],
        "ok": report.ok,
    }
