"""Symbolic verification workbench for surfaces K[X,Y,Z]/(f(X)Y - P(X,Z)):
exact polynomial arithmetic over Q and F_p, exponential maps with full
axiom verification, a complete K-isomorphism decision procedure with
re-verifiable certificates, and explicit stable-isomorphism certificates
realizing cancellation counterexamples.
"""

from .cancel import (FamilyReport, StableIsoCertificate, build_stable_iso,
                     check_hypotheses, sigma_family, verify_stable_iso)
from .errors import DanielewskiError
from .expmap import (ExpMap, apply_map, canonical_expmap, conjugate, derivation_coeff,
                     is_invariant, phi_degree, verify_expmap)
from .factor import (Factorization, factor_univariate, gcd_univariate, is_squarefree,
                     roots_in_field, squarefree_part)
from .fields import GF, QQ, FieldSpec, Scalar, parse_field_tag
from .isomorph import (IsoCertificate, Obstruction, automorphisms, compose_certificates,
                       decide_isomorphism, fingerprint, identity_certificate,
                       invert_certificate, verify_iso)
from .parsing import parse_poly, parse_scalar, poly_str
from .poly import Poly, exact_div, substitute
from .resultant import bezout_cofactors, resultant_in
from .surface import (FiberKind, FiberReport, SurfaceElement, SurfaceSpec, divide_by_x,
                      fiber, filtration_deg, graded_surface, leading_form, make_surface,
                      normal_form, shift_surface, smoothness_check)

__version__ = "0.1.0"

__all__ = [
    "DanielewskiError", "ExpMap", "Factorization", "FamilyReport", "FiberKind",
    "FiberReport", "FieldSpec", "GF", "IsoCertificate", "Obstruction", "Poly", "QQ",
    "Scalar", "StableIsoCertificate", "SurfaceElement", "SurfaceSpec", "apply_map",
    "automorphisms", "bezout_cofactors", "build_stable_iso", "canonical_expmap",
    "check_hypotheses", "compose_certificates", "conjugate", "decide_isomorphism",
    "derivation_coeff", "divide_by_x", "exact_div", "factor_univariate", "fiber",
    "filtration_deg", "fingerprint", "gcd_univariate", "graded_surface",
    "identity_certificate", "invert_certificate", "is_invariant", "is_squarefree",
    "leading_form", "make_surface", "normal_form", "parse_field_tag",
    "parse_poly", "parse_scalar", "phi_degree", "poly_str", "resultant_in",
    "roots_in_field", "shift_surface", "sigma_family", "smoothness_check",
    "squarefree_part", "substitute", "verify_expmap", "verify_iso",
    "verify_stable_iso",
]
