"""Command-line front end.

Commands (all batch, UTF-8 JSON in and out):

    surface info       validate a surface, print invariants and smoothness
    expmap canonical   build the canonical exponential map
    expmap verify      re-verify an exponential-map document
    iso decide         decide K-isomorphism, print certificates or obstruction
    iso verify         re-verify an isomorphism certificate
    cancel build       build a stable-isomorphism certificate
    cancel verify      re-verify a stable-isomorphism certificate
    family demo        build and verify a counterexample family
    paper-examples     run the built-in example corpus

Exit codes: 0 verified/positive, 1 refuted/negative, 2 malformed input,
3 search-cap overflow, 4 internal error (a built object failed its own
verification: a bug, never a refutation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .cancel import build_stable_iso, sigma_family, verify_stable_iso
from .errors import (ComaximalityError, DanielewskiError, FieldMismatchError,
                     HypothesisError, InfiniteFamilyError, InputError, PolyParseError,
                     PreconditionError, SearchCapExceededError,
                     SurfaceConstraintError, VerificationInternalError)
from .expmap import canonical_expmap, verify_expmap
from .fields import parse_field_tag
from .isomorph import (DEFAULT_CAP, Obstruction, automorphisms, decide_isomorphism,
                       fingerprint, set_str, verify_iso)
from .jsonio import (dumps, expmap_from_doc, expmap_to_doc, family_to_doc, iso_from_doc,
                     iso_to_doc, obstruction_to_doc, stable_from_doc, stable_to_doc,
                     surface_from_doc, surface_to_doc)
from .factor import factor_univariate
from .parsing import parse_poly, poly_str
from .poly import Poly
from .reports import Check, VerificationReport
from .surface import fiber, make_surface, smoothness_check


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _surface_from_args(args) -> "SurfaceSpec":
    if args.surface:
        return surface_from_doc(_load_json(args.surface))
    if not (args.field and args.f and args.phi):
        raise InputError("give either --surface FILE or all of --field, --f, --phi")
    try:
        field = parse_field_tag(args.field)
        f = parse_poly(args.f, field, ("X",))
        P = parse_poly(args.phi, field, ("X", "Z"))
        return make_surface(field, f, P)
    except (ValueError, DanielewskiError) as exc:
        raise InputError(str(exc)) from exc


def _emit(args, doc: dict, text_lines: List[str]) -> None:
    if args.json:
        print(dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _report_exit(args, report: VerificationReport, doc_extra: Optional[dict] = None) -> int:
    doc = report.to_doc()
    if doc_extra:
        doc.update(doc_extra)
    _emit(args, doc, report.lines())
    return 0 if report.ok else 1


# -- command handlers -------------------------------------------------------------


def _cmd_surface_info(args) -> int:
    spec = _surface_from_args(args)
    f_factors = factor_univariate(spec.f)   # one factorization: fingerprint and roots
    fp = fingerprint(spec, f_factors)
    smooth = smoothness_check(spec)
    f_in_u = Poly(spec.field, ("U",), {(e[0],): c for e, c in spec.f.terms.items()})
    graded = f"({poly_str(f_in_u)}) * V = W^{spec.d}"
    fiber_docs = []
    fiber_lines = []
    for root in dict.fromkeys(f_factors.roots()):
        rep = fiber(spec, root)
        factors = " * ".join(f"({poly_str(g)})^{m}" if m > 1 else f"({poly_str(g)})"
                             for g, m in rep.factors.factors)
        fiber_docs.append({"point": str(rep.point), "kind": rep.kind.value,
                           "factors": factors,
                           "closure_lines": rep.closure_lines})
        extra = (f", {rep.closure_lines} lines over the closure"
                 if rep.closure_lines is not None else "")
        fiber_lines.append(f"  fiber over x = {rep.point}: {rep.kind.value}, "
                           f"P({rep.point}, Z) = {factors}{extra}")
    doc = {
        "surface": surface_to_doc(spec),
        "r": spec.r, "d": spec.d, "n": spec.n,
        "fingerprint": {"multiplicities": list(fp.multiplicities),
                        "degrees": list(fp.degrees)},
        "smooth": smooth.smooth,
        "witness": None if smooth.witness is None else poly_str(smooth.witness),
        "resultant": poly_str(smooth.resultant),
        "graded": graded,
        "fibers_over_rational_roots": fiber_docs,
    }
    lines = [
        f"surface over {spec.field.tag()}: f = {poly_str(spec.f)}, phi = {poly_str(spec.P)}",
        f"r = {spec.r}, d = {spec.d}, n (multiplicity of root 0 in f) = {spec.n}",
        f"fingerprint: multiplicities {set_str(fp.multiplicities)}, "
        f"factor degrees {set_str(fp.degrees)}",
        f"smooth (every exceptional fiber reduced): {smooth.smooth}"
        + ("" if smooth.witness is None else f", witness {poly_str(smooth.witness)}"),
        f"Res_Z(P, P_Z) = {poly_str(smooth.resultant)}",
        f"associated graded surface: {graded}",
    ]
    if fiber_lines:
        lines.append(f"exceptional fibers over the {spec.field.tag()}-rational roots of f:")
        lines.extend(fiber_lines)
    _emit(args, doc, lines)
    return 0


def _cmd_expmap_canonical(args) -> int:
    spec = _surface_from_args(args)
    m = canonical_expmap(spec)
    doc = expmap_to_doc(m)
    _emit(args, doc, [
        "canonical exponential map (verified):",
        f"  x -> {m.image_x}",
        f"  z -> {m.image_z}",
        f"  y -> {m.image_y}",
    ])
    return 0


def _cmd_expmap_verify(args) -> int:
    m = expmap_from_doc(_load_json(args.cert))
    return _report_exit(args, verify_expmap(m))


def _cmd_iso_decide(args) -> int:
    s1 = surface_from_doc(_load_json(args.left))
    s2 = surface_from_doc(_load_json(args.right))
    try:
        result = decide_isomorphism(s1, s2, cap=args.cap)
    except InfiniteFamilyError as exc:
        doc = {"isomorphic": True, "family": exc.parameter,
               "representatives": [iso_to_doc(c) for c in (exc.representative or [])]}
        _emit(args, doc, [
            f"isomorphic, with an infinite certificate family (free parameter: {exc.parameter})",
            *(f"  representative: {c}" for c in (exc.representative or [])),
        ])
        return 0
    if isinstance(result, Obstruction):
        _emit(args, {"isomorphic": False, "obstruction": obstruction_to_doc(result)},
              [f"not isomorphic: {result}"])
        return 1
    doc = {"isomorphic": True, "certificates": [iso_to_doc(c) for c in result]}
    _emit(args, doc, [f"isomorphic: {len(result)} certificate(s)",
                      *(f"  {c}" for c in result)])
    return 0


def _cmd_iso_verify(args) -> int:
    cert = iso_from_doc(_load_json(args.cert))
    return _report_exit(args, verify_iso(cert))


def _cmd_cancel_build(args) -> int:
    spec = _surface_from_args(args)
    try:
        cert = build_stable_iso(spec)
    except HypothesisError as exc:
        checks = exc.report.checks()
        _emit(args, {"ok": False, "checks": [c.__dict__ for c in checks]},
              ["hypotheses fail:"] + ["  " + c.line() for c in checks])
        return 1
    doc = stable_to_doc(cert)
    _emit(args, doc, [
        f"stable-isomorphism certificate for f = {poly_str(spec.f)}:",
        f"  partner surface: f = {poly_str(cert.spec_b.f)} (same phi)",
        f"  h = {poly_str(cert.h)}",
        f"  theta = {cert.theta}",
        f"  s = {cert.s}",
        f"  a = {poly_str(cert.a)}, b = {poly_str(cert.b)}",
        f"  w = {cert.w}",
    ])
    return 0


def _cmd_cancel_verify(args) -> int:
    cert = stable_from_doc(_load_json(args.cert))
    return _report_exit(args, verify_stable_iso(cert))


# family demo builds and verifies one certificate per n and compares every
# pair of members, so its cost grows at least with the square of the range;
# n = 64 is far beyond the desk-scale degrees
MAX_FAMILY_N = 64


def _cmd_family_demo(args) -> int:
    try:
        field = parse_field_tag(args.field)
        g = parse_poly(args.g, field, ("X",))
        P = parse_poly(args.phi, field, ("X", "Z"))
    except (ValueError, DanielewskiError) as exc:
        raise InputError(str(exc)) from exc
    if not 2 <= args.n_from <= args.n_to <= MAX_FAMILY_N:
        raise InputError(f"need 2 <= --from <= --to <= {MAX_FAMILY_N}, "
                         f"got --from {args.n_from} --to {args.n_to}")
    try:
        report = sigma_family(field, g, P, args.n_from, args.n_to)
    except SurfaceConstraintError as exc:  # malformed g; comaximality stays a refusal
        raise InputError(str(exc)) from exc
    doc = family_to_doc(report)
    lines = [f"family A_n = K[X,Y,Z]/(X^n*({args.g})*Y - ({args.phi})), "
             f"n in [{args.n_from}, {args.n_to}] over {args.field}"]
    for i, j, verdict in report.nonisomorphic:
        lines.append(f"  A_{args.n_from + i} vs A_{args.n_from + j}: {verdict}")
    for link in report.chain:
        lines.append(f"  chain {poly_str(link.upper.f)} ~ {poly_str(link.lower.f)}: "
                     f"{'VERIFIED' if link.report.ok else 'REFUTED'}")
    lines.append("family verdict: pairwise non-isomorphic, stably isomorphic"
                 if report.ok else "family verdict: FAILED")
    _emit(args, doc, lines)
    return 0 if report.ok else 1


def _surf(field_tag: str, f_text: str, p_text: str):
    field = parse_field_tag(field_tag)
    return make_surface(field, parse_poly(f_text, field, ("X",)),
                        parse_poly(p_text, field, ("X", "Z")))


def paper_examples(cap: int = DEFAULT_CAP) -> VerificationReport:
    """The built-in corpus: the worked automorphism examples, the x-scaling
    and never-isomorphic corollaries, the appendix smoothness cases, and one
    stable-isomorphism chain per characteristic."""
    checks = []

    s45 = _surf("F2", "X^2 + X", "Z^2")
    autos = automorphisms(s45, cap=cap)
    shift = [c for c in autos if c.lam == 1 and c.mu == 1 and c.gamma == 1
             and c.delta.is_zero and c.u == 1]
    ok = bool(shift) and verify_iso(shift[0]).ok
    checks.append(Check("automorphism T(x) = x + 1 of (F2, X(X+1), Z^2) found and verified",
                        "Ex 4.5", ok, f"{len(autos)} automorphism(s) total"))

    s46 = _surf("F2", "X^2*(X+1)^2", "Z^2")
    autos46 = automorphisms(s46, cap=cap)
    shift46 = [c for c in autos46 if c.mu == 1]
    ok = bool(shift46) and all(verify_iso(c).ok for c in shift46)
    checks.append(Check("automorphism with mu = 1 of (F2, X^2(X+1)^2, Z^2) found and verified",
                        "Ex 4.6", ok, f"{len(autos46)} automorphism(s) total"))

    sc = _surf("Q", "X^2*(X-1)", "Z^2+1")
    autos_c = automorphisms(sc, cap=cap)
    ok = all(c.mu == 0 for c in autos_c)
    checks.append(Check("every automorphism of (Q, X^2(X-1), Z^2+1) has mu = 0",
                        "Cor 4.3", ok, f"{len(autos_c)} automorphism(s)"))

    res = decide_isomorphism(sc, _surf("Q", "X^3", "Z^2+1"), cap=cap)
    ok = isinstance(res, Obstruction) and res.kind.label == "MultiplicityMultisetMismatch"
    checks.append(Check("(Q, X^2(X-1), Z^2+1) never isomorphic to (Q, X^3, Z^2+1)",
                        "Cor 4.4", ok, str(res) if isinstance(res, Obstruction) else ""))

    sm_good = smoothness_check(_surf("Q", "X^2", "Z^2+1"))
    checks.append(Check("(Q, X^2, Z^2+1) passes the smoothness criterion",
                        "Lemma A.2", sm_good.smooth))
    sm_bad = smoothness_check(_surf("Q", "X^2", "Z^2"))
    ok = (not sm_bad.smooth) and sm_bad.witness is not None \
        and poly_str(sm_bad.witness) == "X"
    checks.append(Check("(Q, X^2, Z^2) fails the smoothness criterion with witness X",
                        "Appendix example", ok))

    fam_q = sigma_family(parse_field_tag("Q"),
                         parse_poly("X - 1", parse_field_tag("Q"), ("X",)),
                         parse_poly("Z^2 + 1", parse_field_tag("Q"), ("X", "Z")), 2, 3)
    checks.append(Check("stable-isomorphism chain over Q (g = X-1, phi = Z^2+1)",
                        "Thm 5.1/5.2", fam_q.ok))
    f2 = parse_field_tag("F2")
    fam_2 = sigma_family(f2, parse_poly("X + 1", f2, ("X",)),
                         parse_poly("Z^2 + Z + X", f2, ("X", "Z")), 2, 3)
    checks.append(Check("stable-isomorphism chain over F2 (g = X+1, phi = Z^2+Z+X)",
                        "Thm 5.1/5.2", fam_2.ok))

    return VerificationReport("built-in example corpus", tuple(checks),
                              notes=(f"cap = {cap}",))


def _cmd_paper_examples(args) -> int:
    return _report_exit(args, paper_examples(cap=args.cap))


# -- parser ------------------------------------------------------------------------


def _add_surface_inputs(p):
    p.add_argument("--surface", help="surface JSON document")
    p.add_argument("--field", help="field tag: Q or F<p>")
    p.add_argument("--f", help="f(X) as an expression")
    p.add_argument("--phi", help="P(X, Z) as an expression")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                   help="cap on the candidates an isomorphism search examines (>= 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="danielewski",
        description="symbolic verification workbench for surfaces f(X)Y = P(X,Z)")
    sub = parser.add_subparsers(dest="command", required=True)

    surface = sub.add_parser("surface", help="surface inspection").add_subparsers(
        dest="subcommand", required=True)
    p = surface.add_parser("info", help="validate and summarize a surface")
    _add_surface_inputs(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_surface_info)

    expmap = sub.add_parser("expmap", help="exponential maps").add_subparsers(
        dest="subcommand", required=True)
    p = expmap.add_parser("canonical", help="build the canonical exponential map")
    _add_surface_inputs(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_expmap_canonical)
    p = expmap.add_parser("verify", help="verify an exponential-map document")
    p.add_argument("--cert", required=True, help="exponential-map JSON document")
    _add_common(p)
    p.set_defaults(handler=_cmd_expmap_verify)

    iso = sub.add_parser("iso", help="isomorphism decision").add_subparsers(
        dest="subcommand", required=True)
    p = iso.add_parser("decide", help="decide isomorphism of two surfaces")
    p.add_argument("--left", required=True, help="surface JSON document")
    p.add_argument("--right", required=True, help="surface JSON document")
    _add_common(p)
    p.set_defaults(handler=_cmd_iso_decide)
    p = iso.add_parser("verify", help="verify an isomorphism certificate")
    p.add_argument("--cert", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_iso_verify)

    cancel = sub.add_parser("cancel", help="stable isomorphism").add_subparsers(
        dest="subcommand", required=True)
    p = cancel.add_parser("build", help="build a stable-isomorphism certificate")
    _add_surface_inputs(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_cancel_build)
    p = cancel.add_parser("verify", help="verify a stable-isomorphism certificate")
    p.add_argument("--cert", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_cancel_verify)

    family = sub.add_parser("family", help="counterexample families").add_subparsers(
        dest="subcommand", required=True)
    p = family.add_parser("demo", help="build and verify a family X^n g Y = phi")
    p.add_argument("--g", required=True, help="g(X), squarefree, g(0) != 0")
    p.add_argument("--phi", required=True, help="P(X, Z)")
    p.add_argument("--field", required=True)
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True,
                   help=f"last n, at most {MAX_FAMILY_N}")
    _add_common(p)
    p.set_defaults(handler=_cmd_family_demo)

    p = sub.add_parser("paper-examples", help="run the built-in example corpus")
    _add_common(p)
    p.set_defaults(handler=_cmd_paper_examples)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SearchCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, PolyParseError, FieldMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, SurfaceConstraintError, ComaximalityError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except VerificationInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except DanielewskiError as exc:  # any other library error is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
