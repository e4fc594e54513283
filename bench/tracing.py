"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions of each layer: it rebinds every
module attribute in ``danielewski.*`` that *is* the original function
(modules import them by name, e.g. ``isomorph.substitute``) and patches the
arithmetic methods of ``Poly`` and ``SurfaceElement``.  Each call records a
span (id, parent, operation, name, start, end) in memory; ``uninstall`` puts
every original binding back and reports any wrapper left behind.

A layer's self time is its span minus the part its wrapped child spans
cover.  A call made directly inside a span of the same name (``__sub__``
calling ``__add__``, a jsonio writer calling another) is folded into the
outer span.  Counters are kept at the same boundaries:

    fields.{q,fp}.coeff_mults   coefficient products: |a|*|b| per Poly
                                product, |quotient|*|b| per exact_div,
                                |a| per Poly.scaled, one per FieldSpec.mul
    fields.q.max_coeff_bits     widest numerator or denominator that a Q
                                product or exact quotient produced
    poly.mul.term_products      sum of |a|*|b| over Poly products
    poly.add.terms_copied       terms copied by Poly addition/subtraction
    isomorph.congruence_checks  divmod_in calls under a decide span
    isomorph.certificates       certificates that decide calls returned
    jsonio.bytes                bytes of JSON text that jsonio.dumps wrote
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from danielewski import jsonio
from danielewski.fields import FieldKind, FieldSpec
from danielewski.poly import Poly
from danielewski.surface import SurfaceElement

# span name -> (module, function) for the module-level functions
FUNCTIONS = {
    "poly.substitute": ("poly", "substitute"),
    "poly.exact_div": ("poly", "exact_div"),
    "poly.divmod_in": ("poly", "divmod_in"),
    "resultant.resultant_in": ("resultant", "resultant_in"),
    "resultant.det_bareiss": ("resultant", "det_bareiss"),
    "resultant.bezout_cofactors": ("resultant", "bezout_cofactors"),
    "factor.factor_univariate": ("factor", "factor_univariate"),
    "factor.gcd_univariate": ("factor", "gcd_univariate"),
    "factor.roots_in_field": ("factor", "roots_in_field"),
    "surface.normal_form": ("surface", "normal_form"),
    "expmap.canonical_expmap": ("expmap", "canonical_expmap"),
    "expmap.verify_expmap": ("expmap", "verify_expmap"),
    "expmap.apply_map": ("expmap", "apply_map"),
    "expmap.derivation_coeff": ("expmap", "derivation_coeff"),
    "expmap.eval_poly_on_elements": ("expmap", "eval_poly_on_elements"),
    "expmap.conjugate": ("expmap", "conjugate"),
    "isomorph.decide_isomorphism": ("isomorph", "decide_isomorphism"),
    "isomorph.verify_iso": ("isomorph", "verify_iso"),
    "cancel.build_stable_iso": ("cancel", "build_stable_iso"),
    "cancel.verify_stable_iso": ("cancel", "verify_stable_iso"),
    "cancel.check_hypotheses": ("cancel", "check_hypotheses"),
    "cancel.sigma_family": ("cancel", "sigma_family"),
    "parsing.parse_poly": ("parsing", "parse_poly"),
    "parsing.poly_str": ("parsing", "poly_str"),
}

# layers reported as <name>.calls and <name>.self_s
TIMED = ("poly.mul", "poly.add", "poly.substitute", "poly.exact_div", "poly.divmod_in",
         "surface.mul") + tuple(name for name in FUNCTIONS if not name.startswith("poly."))

SPAN_CAP = 200_000      # spans kept for the trace file; counts cover every call
DECIDE = "isomorph.decide_isomorphism"


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "danielewski" or name.startswith("danielewski."))]


def _kind(p: Poly) -> str:
    return "fp" if p.field.kind is FieldKind.PRIME else "q"


def _max_bits(p: Poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)


class Tracer:
    def __init__(self):
        self.active = False           # spans are recorded only while True
        self.op = -1                  # index of the operation being traced
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(int)
        self.open: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple] = []
        self.next_id = 0
        self._stack: List[list] = []
        self._bindings: List[Tuple[object, str, Callable]] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [name, 0.0, span_id]
            tracer.open[name] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.open[name] -= 1
                dur = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id, parent, tracer.op, name, start, end))
            if after is not None:
                after(args, result)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _counter(self, fn: Callable, count) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                count(args)
            return fn(*args, **kwargs)

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- counters -----------------------------------------------------------------

    def _products(self, n: int, p: Poly, result: Optional[Poly]):
        kind = _kind(p)
        self.counters[f"fields.{kind}.coeff_mults"] += n
        if kind == "q" and result is not None and result.terms:
            bits = _max_bits(result)
            if bits > self.counters["fields.q.max_coeff_bits"]:
                self.counters["fields.q.max_coeff_bits"] = bits

    def _after_mul(self, args, result):
        a, b = args
        if isinstance(b, Poly):          # a scalar factor goes through Poly.scaled
            n = len(a.terms) * len(b.terms)
            self.counters["poly.mul.term_products"] += n
            self._products(n, a, result)

    def _after_exact_div(self, args, result):
        if result is not None:
            self._products(len(result.terms) * len(args[1].terms), args[0], result)

    def _before_add(self, args):
        self.counters["poly.add.terms_copied"] += len(args[0].terms)

    def _before_sub(self, args):
        a, b = args
        self.counters["poly.add.terms_copied"] += len(a.terms) + (
            len(b.terms) if isinstance(b, Poly) else 1)

    def _before_divmod(self, args):
        if self.open[DECIDE]:
            self.counters["isomorph.congruence_checks"] += 1

    def _after_decide(self, args, result):
        if isinstance(result, list):
            self.counters["isomorph.certificates"] += len(result)

    def _after_dumps(self, args, result):
        self.counters["jsonio.bytes"] += len(result.encode())

    def _count_scaled(self, args):
        self.counters[f"fields.{_kind(args[0])}.coeff_mults"] += len(args[0].terms)

    def _count_field_mul(self, args):
        kind = "fp" if args[0].kind is FieldKind.PRIME else "q"
        self.counters[f"fields.{kind}.coeff_mults"] += 1

    # -- install / uninstall ---------------------------------------------------------

    def _rebind(self, original: Callable, wrapper: Callable, owners) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._bindings.append((owner, attr, original))

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        hooks = {"poly.exact_div": (None, self._after_exact_div),
                 "poly.divmod_in": (self._before_divmod, None),
                 DECIDE: (None, self._after_decide)}
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[f"danielewski.{module}"], attr)
            before, after = hooks.get(name, (None, None))
            self._rebind(original, self._span(name, original, before, after), modules)
        for attr, original in sorted(vars(jsonio).items()):
            if attr == "dumps":
                wrapper = self._span("jsonio.encode", original, after=self._after_dumps)
            elif attr.endswith("_to_doc"):
                wrapper = self._span("jsonio.encode", original)
            elif attr.endswith("_from_doc"):
                wrapper = self._span("jsonio.decode", original)
            else:
                continue
            self._rebind(original, wrapper, modules)
        methods = (
            (Poly, "__mul__", self._span("poly.mul", Poly.__mul__, after=self._after_mul)),
            (Poly, "__add__", self._span("poly.add", Poly.__add__, before=self._before_add)),
            (Poly, "__sub__", self._span("poly.add", Poly.__sub__, before=self._before_sub)),
            (Poly, "scaled", self._counter(Poly.scaled, self._count_scaled)),
            (FieldSpec, "mul", self._counter(FieldSpec.mul, self._count_field_mul)),
            (SurfaceElement, "__mul__",
             self._span("surface.mul", SurfaceElement.__mul__)),
        )
        for cls, attr, wrapper in methods:
            self._rebind(vars(cls)[attr], wrapper, (cls,))

    def uninstall(self) -> List[str]:
        """Restore every binding; return the names still bound to a wrapper
        (empty when the library is back to its original state)."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        left = []
        for owner in _library_modules() + [Poly, FieldSpec, SurfaceElement]:
            for attr, value in vars(owner).items():
                if hasattr(value, "__bench_wrapped__"):
                    left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return left

    # -- results -------------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for name in ("fields.q.coeff_mults", "fields.fp.coeff_mults"):
            out[name] = (self.counters[name], "count")
        out["fields.q.max_coeff_bits"] = (self.counters["fields.q.max_coeff_bits"], "bits")
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in ("poly.mul.term_products", "poly.add.terms_copied",
                     "isomorph.congruence_checks", "isomorph.certificates"):
            out[name] = (self.counters[name], "count")
        checks = self.counters["isomorph.congruence_checks"]
        out["isomorph.hit_ratio"] = (
            self.counters["isomorph.certificates"] / checks if checks else 0.0, "ratio")
        out["jsonio.encode_s"] = (self.total_s["jsonio.encode"], "s")
        out["jsonio.decode_s"] = (self.total_s["jsonio.decode"], "s")
        out["jsonio.bytes"] = (self.counters["jsonio.bytes"], "bytes")
        return out

    def write_spans(self, path, header: dict) -> None:
        """Write the spans as JSON lines [id, parent, operation, name,
        start_us, end_us] (times from the earliest start), after a header line
        that records how many spans were traced and how many were kept."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans_kept=len(self.spans),
                                     spans_total=self.next_id)) + "\n")
            origin = min((span[4] for span in self.spans), default=0.0)
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, op, name,
                                     round((start - origin) * 1e6),
                                     round((end - origin) * 1e6)]) + "\n")
